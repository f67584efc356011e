//! The dynamic-tenancy scenario DSL: a seeded, deterministic timeline of
//! tenant events compiled into a [`Simulation`](crate::Simulation).
//!
//! Every run is a scenario. A static run — the fixed tenant set the paper
//! evaluates — is the degenerate timeline where every tenant arrives at
//! cycle 0 and nobody leaves ([`ScenarioSpec::static_run`]); a plain
//! tenant list compiles to that same form and runs the same path, minus
//! the churn report. Dynamic timelines add [`ScenarioEvent::Arrive`] /
//! [`ScenarioEvent::Depart`] / [`ScenarioEvent::Repartition`] events
//! (paper §VI.C: the walker partition re-splits as the tenant set changes)
//! and per-tenant SLO targets that an online QoS controller enforces by
//! throttling or evicting the aggressor tenant (in the spirit of MASK's
//! QoS-aware policies and Guardian's admission control).
//!
//! Tenants are indexed by arrival order: the i-th `Arrive` event in the
//! timeline creates tenant `i`. The full tenant set is known up front, so
//! the simulation is constructed with every tenant's resources in place
//! and late arrivals simply stay quiescent until their cycle.
//!
//! Specs round-trip through JSON ([`ScenarioSpec::to_json`] /
//! [`ScenarioSpec::try_from_json`]) with validation — a depart-before-
//! arrive timeline, an out-of-range tenant index, or a window with no
//! resident tenant is a [`ConfigError::Scenario`], not a mid-run panic.
//!
//! # Examples
//!
//! ```
//! use walksteal_multitenant::{ScenarioSpec, SimulationBuilder};
//! use walksteal_workloads::AppId;
//!
//! // MM is resident; GUPS arrives later and leaves again.
//! let spec = ScenarioSpec::new()
//!     .arrive(0, AppId::Mm)
//!     .arrive(2_000, AppId::Gups)
//!     .depart(60_000, 1);
//! let result = SimulationBuilder::new()
//!     .n_sms(4)
//!     .warps_per_sm(4)
//!     .instructions_per_warp(300)
//!     .seed(1)
//!     .scenario(spec)
//!     .build()
//!     .run();
//! let churn = result.churn.as_ref().unwrap();
//! assert_eq!(churn.tenants[1].arrived, Some(2_000));
//! ```

use walksteal_sim_core::{ConfigError, Json};
use walksteal_workloads::{AppId, AppProfile};

use crate::build::TenantSpec;

/// One event on a scenario timeline. See the [module docs](self) for the
/// tenant-indexing convention.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEvent {
    /// A tenant arrives and starts executing at `cycle`. The i-th arrival
    /// in the timeline is tenant `i`.
    Arrive {
        /// When the tenant's warps launch.
        cycle: u64,
        /// What it runs.
        spec: TenantSpec,
    },
    /// Tenant `tenant` departs at `cycle`: its queued walks are cancelled,
    /// its TLB entries shot down, and the walkers repartition among the
    /// remaining tenants.
    Depart {
        /// When the tenant leaves.
        cycle: u64,
        /// Which tenant (arrival index).
        tenant: usize,
    },
    /// An explicit walker repartition at `cycle`, overriding the automatic
    /// arrive/depart-driven split (e.g. to model an operator decision).
    /// `active[t]` grants tenant `t` a walker share; every flagged tenant
    /// must be resident at `cycle`.
    Repartition {
        /// When the partition changes.
        cycle: u64,
        /// Which tenants own walkers afterwards.
        active: Vec<bool>,
    },
    /// Declares tenant `tenant`'s p99 walk-latency SLO. The QoS controller
    /// checks it periodically (see [`SloPolicy`]) against the tenant's
    /// walk-latency histogram in the walk layer's statistics.
    SloTarget {
        /// Which tenant (arrival index).
        tenant: usize,
        /// The p99 walk-latency bound, in cycles.
        p99_cycles: u64,
    },
}

impl ScenarioEvent {
    /// The cycle a timeline event fires at; `None` for declarations
    /// ([`SloTarget`](ScenarioEvent::SloTarget)) that are not scheduled.
    #[must_use]
    pub fn cycle(&self) -> Option<u64> {
        match self {
            ScenarioEvent::Arrive { cycle, .. }
            | ScenarioEvent::Depart { cycle, .. }
            | ScenarioEvent::Repartition { cycle, .. } => Some(*cycle),
            ScenarioEvent::SloTarget { .. } => None,
        }
    }
}

/// How the online QoS controller samples and reacts to SLO violations.
///
/// Every `check_interval` cycles the controller reads each targeted
/// tenant's cumulative p99 walk latency from the walk layer's statistics.
/// On a violation it throttles the aggressor — the other resident tenant that
/// enqueued the most walks since the last check — by excluding it from the
/// walker partition; after `evict_after` consecutive violating checks for
/// the same victim, the aggressor is evicted entirely (a forced
/// departure). When the victim recovers, throttles lift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloPolicy {
    /// Cycles between SLO checks; must be positive.
    pub check_interval: u64,
    /// Consecutive violating checks (per victim) before the aggressor is
    /// evicted. Bounds how long a hopeless configuration persists.
    pub evict_after: u32,
    /// A check only counts when the tenant completed at least this many
    /// walks since its last counted check — fewer and there is no signal.
    pub min_samples: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            check_interval: 20_000,
            evict_after: 4,
            min_samples: 32,
        }
    }
}

/// A validated-on-use scenario: the timeline plus the QoS policy.
///
/// Build one with the fluent helpers ([`arrive`](Self::arrive),
/// [`depart`](Self::depart), ...) or parse it from JSON
/// ([`try_from_json`](Self::try_from_json)); hand it to
/// [`SimulationBuilder::scenario`](crate::SimulationBuilder::scenario).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioSpec {
    /// The timeline, in the order events apply (same-cycle events apply in
    /// list order).
    pub events: Vec<ScenarioEvent>,
    /// QoS controller parameters; `None` with SLO targets present means
    /// [`SloPolicy::default`].
    pub slo: Option<SloPolicy>,
}

impl ScenarioSpec {
    /// An empty scenario; add events with the fluent helpers.
    #[must_use]
    pub fn new() -> Self {
        ScenarioSpec::default()
    }

    /// The degenerate scenario equivalent to a static run: every tenant
    /// arrives at cycle 0, nobody departs, no SLOs.
    #[must_use]
    pub fn static_run<I>(tenants: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<TenantSpec>,
    {
        let mut s = ScenarioSpec::new();
        for t in tenants {
            s = s.arrive(0, t);
        }
        s
    }

    /// Appends an [`Arrive`](ScenarioEvent::Arrive) event.
    #[must_use]
    pub fn arrive(mut self, cycle: u64, spec: impl Into<TenantSpec>) -> Self {
        self.events.push(ScenarioEvent::Arrive {
            cycle,
            spec: spec.into(),
        });
        self
    }

    /// Appends a [`Depart`](ScenarioEvent::Depart) event.
    #[must_use]
    pub fn depart(mut self, cycle: u64, tenant: usize) -> Self {
        self.events.push(ScenarioEvent::Depart { cycle, tenant });
        self
    }

    /// Appends a [`Repartition`](ScenarioEvent::Repartition) event.
    #[must_use]
    pub fn repartition(mut self, cycle: u64, active: Vec<bool>) -> Self {
        self.events
            .push(ScenarioEvent::Repartition { cycle, active });
        self
    }

    /// Declares a tenant's p99 walk-latency SLO.
    #[must_use]
    pub fn slo_target(mut self, tenant: usize, p99_cycles: u64) -> Self {
        self.events
            .push(ScenarioEvent::SloTarget { tenant, p99_cycles });
        self
    }

    /// Sets the QoS controller parameters.
    #[must_use]
    pub fn slo_policy(mut self, policy: SloPolicy) -> Self {
        self.slo = Some(policy);
        self
    }

    /// How many tenants the scenario creates (its arrival count).
    #[must_use]
    pub fn n_tenants(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ScenarioEvent::Arrive { .. }))
            .count()
    }

    /// The tenant specs, in arrival (= tenant-index) order.
    #[must_use]
    pub fn tenant_specs(&self) -> Vec<TenantSpec> {
        self.events
            .iter()
            .filter_map(|e| match e {
                ScenarioEvent::Arrive { spec, .. } => Some(*spec),
                _ => None,
            })
            .collect()
    }

    /// Checks the timeline's static semantics. The rules, each a
    /// [`ConfigError::Scenario`] when broken:
    ///
    /// * at least one arrival, and the first at cycle 0 (the run needs a
    ///   resident tenant from the start);
    /// * arrival cycles non-decreasing in list order (tenant indices are
    ///   arrival order, which must be chronological);
    /// * departures and SLO targets name an in-range tenant; a tenant
    ///   departs at most once, strictly after it arrived; at most one SLO
    ///   target per tenant, and targets are positive;
    /// * repartitions cover all tenants, grant at least one a share, and
    ///   only flag tenants resident at that cycle;
    /// * at least one tenant is resident at every point of the timeline;
    /// * an SLO policy's check interval is positive (a zero interval would
    ///   reschedule the check at the same cycle forever).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |msg: String| Err(ConfigError::Scenario(msg));
        let n = self.n_tenants();
        if n == 0 {
            return err("timeline has no Arrive event".into());
        }
        if self.slo.is_some_and(|p| p.check_interval == 0) {
            return err("SLO check_interval must be positive".into());
        }

        // Arrival order must be chronological (it defines tenant indices).
        let arrivals: Vec<u64> = self
            .events
            .iter()
            .filter_map(|e| match e {
                ScenarioEvent::Arrive { cycle, .. } => Some(*cycle),
                _ => None,
            })
            .collect();
        if arrivals[0] != 0 {
            return err(format!(
                "first arrival at cycle {}; a tenant must be resident at cycle 0",
                arrivals[0]
            ));
        }
        if arrivals.windows(2).any(|w| w[0] > w[1]) {
            return err("arrival cycles must be non-decreasing".into());
        }

        let mut departs: Vec<Option<u64>> = vec![None; n];
        let mut slo_seen = vec![false; n];
        for e in &self.events {
            match e {
                ScenarioEvent::Arrive { .. } => {}
                ScenarioEvent::Depart { cycle, tenant } => {
                    if *tenant >= n {
                        return err(format!("Depart names tenant {tenant}, but only {n} arrive"));
                    }
                    if departs[*tenant].is_some() {
                        return err(format!("tenant {tenant} departs twice"));
                    }
                    if *cycle <= arrivals[*tenant] {
                        return err(format!(
                            "tenant {tenant} departs at cycle {cycle} but arrives at {}",
                            arrivals[*tenant]
                        ));
                    }
                    departs[*tenant] = Some(*cycle);
                }
                ScenarioEvent::Repartition { active, .. } => {
                    if active.len() != n {
                        return err(format!(
                            "Repartition covers {} tenants; the scenario has {n}",
                            active.len()
                        ));
                    }
                    if !active.iter().any(|&a| a) {
                        return err("Repartition grants no tenant a walker share".into());
                    }
                }
                ScenarioEvent::SloTarget { tenant, p99_cycles } => {
                    if *tenant >= n {
                        return err(format!(
                            "SloTarget names tenant {tenant}, but only {n} arrive"
                        ));
                    }
                    if slo_seen[*tenant] {
                        return err(format!("tenant {tenant} has two SLO targets"));
                    }
                    if *p99_cycles == 0 {
                        return err(format!("tenant {tenant} SLO target must be positive"));
                    }
                    slo_seen[*tenant] = true;
                }
            }
        }

        // Replay the timeline in apply order (stable by cycle): residency
        // must never reach zero, and repartitions must only flag residents.
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| self.events[i].cycle().unwrap_or(0));
        let mut resident = vec![false; n];
        let mut next_arrival = 0usize;
        for &i in &order {
            match &self.events[i] {
                ScenarioEvent::Arrive { .. } => {
                    resident[next_arrival] = true;
                    next_arrival += 1;
                }
                ScenarioEvent::Depart { cycle, tenant } => {
                    resident[*tenant] = false;
                    if !resident.iter().any(|&r| r) {
                        return err(format!(
                            "no tenant is resident after the departure at cycle {cycle}"
                        ));
                    }
                }
                ScenarioEvent::Repartition { cycle, active } => {
                    for (t, (&a, &r)) in active.iter().zip(&resident).enumerate() {
                        if a && !r {
                            return err(format!(
                                "Repartition at cycle {cycle} flags tenant {t}, \
                                 which is not resident"
                            ));
                        }
                    }
                }
                ScenarioEvent::SloTarget { .. } => {}
            }
        }
        Ok(())
    }

    /// Whether any tenant declares an SLO target (the run then schedules the
    /// QoS controller's periodic checks).
    #[must_use]
    pub fn has_slo_targets(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, ScenarioEvent::SloTarget { .. }))
    }

    /// Serializes to [`Json`]. Calibrated tenants serialize as their app
    /// name; synthetic tenants carry their full profile.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let events = self
            .events
            .iter()
            .map(|e| match e {
                ScenarioEvent::Arrive { cycle, spec } => {
                    let mut fields = vec![("cycle".to_string(), Json::UInt(*cycle))];
                    match spec.profile_override() {
                        Some(p) => fields.push(("profile".into(), p.to_json())),
                        None => {
                            fields.push(("app".into(), Json::Str(spec.app().name().to_string())));
                        }
                    }
                    Json::Obj(vec![("arrive".into(), Json::Obj(fields))])
                }
                ScenarioEvent::Depart { cycle, tenant } => Json::Obj(vec![(
                    "depart".into(),
                    Json::Obj(vec![
                        ("cycle".into(), Json::UInt(*cycle)),
                        ("tenant".into(), Json::UInt(*tenant as u64)),
                    ]),
                )]),
                ScenarioEvent::Repartition { cycle, active } => Json::Obj(vec![(
                    "repartition".into(),
                    Json::Obj(vec![
                        ("cycle".into(), Json::UInt(*cycle)),
                        (
                            "active".into(),
                            Json::Arr(active.iter().map(|&a| Json::Bool(a)).collect()),
                        ),
                    ]),
                )]),
                ScenarioEvent::SloTarget { tenant, p99_cycles } => Json::Obj(vec![(
                    "slo_target".into(),
                    Json::Obj(vec![
                        ("tenant".into(), Json::UInt(*tenant as u64)),
                        ("p99_cycles".into(), Json::UInt(*p99_cycles)),
                    ]),
                )]),
            })
            .collect();
        let mut obj = vec![("events".to_string(), Json::Arr(events))];
        if let Some(slo) = &self.slo {
            obj.push((
                "slo".into(),
                Json::Obj(vec![
                    ("check_interval".into(), Json::UInt(slo.check_interval)),
                    ("evict_after".into(), Json::UInt(u64::from(slo.evict_after))),
                    ("min_samples".into(), Json::UInt(slo.min_samples)),
                ]),
            ));
        }
        Json::Obj(obj)
    }

    /// Parses and validates a spec from [`to_json`](Self::to_json) output
    /// (or hand-written JSON in the same shape).
    ///
    /// # Errors
    ///
    /// [`ConfigError::Scenario`] on malformed JSON or — via
    /// [`validate`](Self::validate) — a semantically bad timeline.
    pub fn try_from_json(v: &Json) -> Result<ScenarioSpec, ConfigError> {
        let err = |msg: String| ConfigError::Scenario(msg);
        let events_json = v
            .get("events")
            .and_then(Json::as_array)
            .ok_or_else(|| err("missing \"events\" array".into()))?;
        let mut events = Vec::with_capacity(events_json.len());
        for (i, e) in events_json.iter().enumerate() {
            let bad = |what: &str| err(format!("event {i}: {what}"));
            let cycle = |obj: &Json| {
                obj.get("cycle")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("missing \"cycle\""))
            };
            let tenant = |obj: &Json| {
                obj.get("tenant")
                    .and_then(Json::as_u64)
                    .map(|t| t as usize)
                    .ok_or_else(|| bad("missing \"tenant\""))
            };
            if let Some(a) = e.get("arrive") {
                let spec = if let Some(p) = a.get("profile") {
                    TenantSpec::synthetic(
                        AppProfile::from_json(p).map_err(|e| bad(&format!("bad profile: {e}")))?,
                    )
                } else {
                    let name = a
                        .get("app")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("arrive needs \"app\" or \"profile\""))?;
                    TenantSpec::new(
                        AppId::from_name(name)
                            .ok_or_else(|| bad(&format!("unknown app {name:?}")))?,
                    )
                };
                events.push(ScenarioEvent::Arrive {
                    cycle: cycle(a)?,
                    spec,
                });
            } else if let Some(d) = e.get("depart") {
                events.push(ScenarioEvent::Depart {
                    cycle: cycle(d)?,
                    tenant: tenant(d)?,
                });
            } else if let Some(r) = e.get("repartition") {
                let active = r
                    .get("active")
                    .and_then(Json::as_array)
                    .ok_or_else(|| bad("missing \"active\""))?
                    .iter()
                    .map(Json::as_bool)
                    .collect::<Option<Vec<bool>>>()
                    .ok_or_else(|| bad("\"active\" must be booleans"))?;
                events.push(ScenarioEvent::Repartition {
                    cycle: cycle(r)?,
                    active,
                });
            } else if let Some(s) = e.get("slo_target") {
                events.push(ScenarioEvent::SloTarget {
                    tenant: tenant(s)?,
                    p99_cycles: s
                        .get("p99_cycles")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("missing \"p99_cycles\""))?,
                });
            } else {
                return Err(bad(
                    "expected one of \"arrive\", \"depart\", \"repartition\", \"slo_target\"",
                ));
            }
        }
        let slo = match v.get("slo") {
            None => None,
            Some(s) => Some(SloPolicy {
                check_interval: s
                    .get("check_interval")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| err("slo: missing \"check_interval\"".into()))?,
                evict_after: s
                    .get("evict_after")
                    .and_then(Json::as_u64)
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| err("slo: missing \"evict_after\"".into()))?,
                min_samples: s
                    .get("min_samples")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| err("slo: missing \"min_samples\"".into()))?,
            }),
        };
        let spec = ScenarioSpec { events, slo };
        spec.validate()?;
        Ok(spec)
    }

    /// Compiles a validated spec into the run's [`Tenancy`]. Arrivals are
    /// chronological and name tenants in order, so the cycle-0 arrivals
    /// are the first tenants: they set the initial residency instead of
    /// becoming timeline entries.
    pub(crate) fn compile(&self) -> Tenancy {
        let mut tenancy = Tenancy {
            reports_churn: true,
            ..Tenancy::default()
        };
        let mut arrivals = 0usize;
        for e in &self.events {
            match e {
                ScenarioEvent::Arrive { cycle: 0, .. } => {
                    tenancy.resident_at_start += 1;
                    arrivals += 1;
                }
                ScenarioEvent::Arrive { cycle, .. } => {
                    tenancy.timeline.push((*cycle, Action::Arrive(arrivals)));
                    arrivals += 1;
                }
                ScenarioEvent::Depart { cycle, tenant } => {
                    tenancy.timeline.push((*cycle, Action::Depart(*tenant)));
                }
                ScenarioEvent::Repartition { cycle, active } => {
                    tenancy
                        .timeline
                        .push((*cycle, Action::Repartition(active.clone())));
                }
                ScenarioEvent::SloTarget { tenant, p99_cycles } => {
                    tenancy.slo_targets.push((*tenant, *p99_cycles));
                }
            }
        }
        tenancy.timeline.sort_by_key(|&(c, _)| c); // Stable: same-cycle keeps list order.
        if !tenancy.slo_targets.is_empty() {
            tenancy.slo = Some(self.slo.unwrap_or_default());
        }
        tenancy
    }
}

/// One compiled timeline action (the cycle lives alongside it).
#[derive(Debug, Clone)]
pub(crate) enum Action {
    /// Tenant (by arrival index) arrives.
    Arrive(usize),
    /// Tenant departs.
    Depart(usize),
    /// Explicit walker repartition.
    Repartition(Vec<bool>),
}

/// A run's tenancy in the form the simulation executes, compiled from a
/// tenant list ([`Tenancy::all_resident`]) or a [`ScenarioSpec`]
/// ([`ScenarioSpec::compile`]): who is resident from cycle 0, the later
/// timeline and its cursor, the QoS controller's policy, and the run-wide
/// churn counters. Each tenant's residency and controller state lives on
/// the simulation's tenant record.
#[derive(Debug, Default)]
pub(crate) struct Tenancy {
    /// Tenants `0..resident_at_start` are resident from cycle 0.
    pub resident_at_start: usize,
    /// Declared p99 walk-latency SLOs as `(tenant, cycles)`, copied onto
    /// the tenant records when the simulation is built.
    pub slo_targets: Vec<(usize, u64)>,
    /// `(cycle, action)` pairs, stably sorted by cycle.
    pub timeline: Vec<(u64, Action)>,
    /// Next timeline entry to apply.
    pub next: usize,
    /// QoS controller parameters; `None` when no tenant has an SLO target.
    pub slo: Option<SloPolicy>,
    /// Whether the result carries a [`ChurnReport`]: exactly when the
    /// tenants came from a [`ScenarioSpec`].
    pub reports_churn: bool,
    pub evictions: u64,
    pub repartitions: u64,
    pub throttles: u64,
}

impl Tenancy {
    /// A tenant list's tenancy: all `n` tenants resident from cycle 0, no
    /// timeline, no SLO, and no churn report.
    pub fn all_resident(n: usize) -> Self {
        Tenancy {
            resident_at_start: n,
            ..Tenancy::default()
        }
    }
}

/// Fairness-under-churn metrics of one tenant (see [`ChurnReport`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantChurn {
    /// Cycle the tenant arrived, if it did before the run ended.
    pub arrived: Option<u64>,
    /// Cycle it departed or was evicted, if it did.
    pub departed: Option<u64>,
    /// Whether the departure was a QoS eviction.
    pub evicted: bool,
    /// The declared p99 walk-latency SLO, if any.
    pub slo_target: Option<u64>,
    /// SLO checks counted against this tenant's target.
    pub slo_checks: u64,
    /// Checks whose p99 met the target.
    pub slo_met: u64,
    /// Checks during which the tenant sat throttled by the controller.
    pub throttled_checks: u64,
    /// Queued walks cancelled when the tenant departed.
    pub cancelled_walks: u64,
    /// Warp instructions retired while resident.
    pub lifetime_instructions: u64,
    /// Cycles between arrival and departure (or run end).
    pub lifetime_cycles: u64,
}

impl TenantChurn {
    /// Fraction of counted SLO checks that met the target (1.0 with no
    /// checks: an unmeasured SLO is not a violated one).
    #[must_use]
    pub fn slo_compliance(&self) -> f64 {
        if self.slo_checks == 0 {
            1.0
        } else {
            self.slo_met as f64 / self.slo_checks as f64
        }
    }

    /// Instructions per cycle over the tenant's residency window — the
    /// per-tenant term of weighted-speedup-over-lifetime.
    #[must_use]
    pub fn lifetime_ipc(&self) -> f64 {
        if self.lifetime_cycles == 0 {
            0.0
        } else {
            self.lifetime_instructions as f64 / self.lifetime_cycles as f64
        }
    }
}

/// Fairness-under-churn results of a scenario run, attached to
/// [`SimResult::churn`](crate::SimResult) when a [`ScenarioSpec`]
/// supplied the tenants.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnReport {
    /// Per-tenant metrics, indexed by arrival order.
    pub tenants: Vec<TenantChurn>,
    /// QoS evictions performed.
    pub evictions: u64,
    /// Walker repartitions performed (arrivals, departures, explicit
    /// repartition events, throttles, and un-throttles).
    pub repartitions: u64,
    /// Throttle impositions by the QoS controller.
    pub throttles: u64,
}

impl ChurnReport {
    /// Weighted speedup over tenant lifetimes: Σᵢ lifetime-IPCᵢ / IPCˢᴬᵢ,
    /// the churn analogue of weighted IPC (each tenant normalized by its
    /// stand-alone IPC, measured over its own residency window).
    ///
    /// # Panics
    ///
    /// Panics if `standalone_ipc.len()` differs from the tenant count or
    /// any stand-alone IPC is non-positive.
    #[must_use]
    pub fn weighted_speedup_over_lifetime(&self, standalone_ipc: &[f64]) -> f64 {
        assert_eq!(
            self.tenants.len(),
            standalone_ipc.len(),
            "stand-alone IPC per tenant required"
        );
        self.tenants
            .iter()
            .zip(standalone_ipc)
            .map(|(t, &sa)| {
                assert!(sa > 0.0, "stand-alone IPC must be positive");
                t.lifetime_ipc() / sa
            })
            .sum()
    }

    /// Serializes to a [`Json`] object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| match v {
            Some(c) => Json::UInt(c),
            None => Json::Null,
        };
        Json::Obj(vec![
            (
                "tenants".into(),
                Json::Arr(
                    self.tenants
                        .iter()
                        .map(|t| {
                            Json::Obj(vec![
                                ("arrived".into(), opt(t.arrived)),
                                ("departed".into(), opt(t.departed)),
                                ("evicted".into(), Json::Bool(t.evicted)),
                                ("slo_target".into(), opt(t.slo_target)),
                                ("slo_checks".into(), Json::UInt(t.slo_checks)),
                                ("slo_met".into(), Json::UInt(t.slo_met)),
                                ("throttled_checks".into(), Json::UInt(t.throttled_checks)),
                                ("cancelled_walks".into(), Json::UInt(t.cancelled_walks)),
                                (
                                    "lifetime_instructions".into(),
                                    Json::UInt(t.lifetime_instructions),
                                ),
                                ("lifetime_cycles".into(), Json::UInt(t.lifetime_cycles)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("evictions".into(), Json::UInt(self.evictions)),
            ("repartitions".into(), Json::UInt(self.repartitions)),
            ("throttles".into(), Json::UInt(self.throttles)),
        ])
    }

    /// Deserializes from [`to_json`](Self::to_json) output.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<ChurnReport> {
        let opt = |v: Option<&Json>| match v {
            None | Some(Json::Null) => Some(None),
            Some(j) => j.as_u64().map(Some),
        };
        Some(ChurnReport {
            tenants: v
                .get("tenants")?
                .as_array()?
                .iter()
                .map(|t| {
                    Some(TenantChurn {
                        arrived: opt(t.get("arrived"))?,
                        departed: opt(t.get("departed"))?,
                        evicted: t.get("evicted")?.as_bool()?,
                        slo_target: opt(t.get("slo_target"))?,
                        slo_checks: t.get("slo_checks")?.as_u64()?,
                        slo_met: t.get("slo_met")?.as_u64()?,
                        throttled_checks: t.get("throttled_checks")?.as_u64()?,
                        cancelled_walks: t.get("cancelled_walks")?.as_u64()?,
                        lifetime_instructions: t.get("lifetime_instructions")?.as_u64()?,
                        lifetime_cycles: t.get("lifetime_cycles")?.as_u64()?,
                    })
                })
                .collect::<Option<_>>()?,
            evictions: v.get("evictions")?.as_u64()?,
            repartitions: v.get("repartitions")?.as_u64()?,
            throttles: v.get("throttles")?.as_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenant_churn() -> ScenarioSpec {
        ScenarioSpec::new()
            .arrive(0, AppId::Mm)
            .arrive(1_000, AppId::Gups)
            .depart(50_000, 1)
            .slo_target(0, 800)
    }

    #[test]
    fn valid_timelines_validate() {
        two_tenant_churn().validate().unwrap();
        ScenarioSpec::static_run([AppId::Mm, AppId::Gups])
            .validate()
            .unwrap();
    }

    #[test]
    fn static_run_arrivals_all_at_zero() {
        let s = ScenarioSpec::static_run([AppId::Mm, AppId::Gups]);
        assert_eq!(s.n_tenants(), 2);
        assert!(s
            .events
            .iter()
            .all(|e| matches!(e, ScenarioEvent::Arrive { cycle: 0, .. })));
    }

    #[test]
    fn rejects_empty_and_late_first_arrival() {
        let e = ScenarioSpec::new().validate().unwrap_err();
        assert!(matches!(e, ConfigError::Scenario(_)), "{e}");
        let e = ScenarioSpec::new()
            .arrive(5, AppId::Mm)
            .validate()
            .unwrap_err();
        assert!(e.to_string().contains("cycle 0"), "{e}");
    }

    #[test]
    fn rejects_depart_before_arrive() {
        let e = ScenarioSpec::new()
            .arrive(0, AppId::Mm)
            .arrive(10_000, AppId::Gups)
            .depart(5_000, 1)
            .validate()
            .unwrap_err();
        assert!(e.to_string().contains("departs at cycle 5000"), "{e}");
    }

    #[test]
    fn rejects_double_depart_and_bad_index() {
        let e = ScenarioSpec::new()
            .arrive(0, AppId::Mm)
            .arrive(0, AppId::Gups)
            .depart(10, 1)
            .depart(20, 1)
            .validate()
            .unwrap_err();
        assert!(e.to_string().contains("twice"), "{e}");
        let e = ScenarioSpec::new()
            .arrive(0, AppId::Mm)
            .depart(10, 3)
            .validate()
            .unwrap_err();
        assert!(e.to_string().contains("tenant 3"), "{e}");
    }

    #[test]
    fn rejects_emptying_the_gpu() {
        let e = ScenarioSpec::new()
            .arrive(0, AppId::Mm)
            .depart(100, 0)
            .arrive(200, AppId::Gups)
            .validate()
            .unwrap_err();
        assert!(e.to_string().contains("no tenant is resident"), "{e}");
    }

    #[test]
    fn rejects_unsorted_arrivals() {
        let e = ScenarioSpec::new()
            .arrive(0, AppId::Mm)
            .arrive(500, AppId::Gups)
            .arrive(100, AppId::Tds)
            .validate()
            .unwrap_err();
        assert!(e.to_string().contains("non-decreasing"), "{e}");
    }

    #[test]
    fn rejects_bad_repartitions() {
        let e = ScenarioSpec::new()
            .arrive(0, AppId::Mm)
            .repartition(10, vec![true, false])
            .validate()
            .unwrap_err();
        assert!(e.to_string().contains("covers 2 tenants"), "{e}");
        let e = ScenarioSpec::new()
            .arrive(0, AppId::Mm)
            .repartition(10, vec![false])
            .validate()
            .unwrap_err();
        assert!(e.to_string().contains("no tenant"), "{e}");
        // Flagging a tenant that has not arrived yet.
        let e = ScenarioSpec::new()
            .arrive(0, AppId::Mm)
            .arrive(1_000, AppId::Gups)
            .repartition(10, vec![true, true])
            .validate()
            .unwrap_err();
        assert!(e.to_string().contains("not resident"), "{e}");
    }

    #[test]
    fn rejects_bad_slo_targets() {
        let e = ScenarioSpec::new()
            .arrive(0, AppId::Mm)
            .slo_target(0, 100)
            .slo_target(0, 200)
            .validate()
            .unwrap_err();
        assert!(e.to_string().contains("two SLO targets"), "{e}");
        let e = ScenarioSpec::new()
            .arrive(0, AppId::Mm)
            .slo_target(0, 0)
            .validate()
            .unwrap_err();
        assert!(e.to_string().contains("positive"), "{e}");
        let e = ScenarioSpec::new()
            .arrive(0, AppId::Mm)
            .slo_target(0, 100)
            .slo_policy(SloPolicy {
                check_interval: 0,
                ..SloPolicy::default()
            })
            .validate()
            .unwrap_err();
        assert!(e.to_string().contains("check_interval"), "{e}");
    }

    #[test]
    fn json_round_trips() {
        let spec = two_tenant_churn()
            .repartition(60_000, vec![true, false])
            .slo_policy(SloPolicy {
                check_interval: 10_000,
                evict_after: 3,
                min_samples: 16,
            });
        let text = spec.to_json().dump();
        let back = ScenarioSpec::try_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn json_round_trips_synthetic_profiles() {
        let mut p = AppId::Mm.profile();
        p.cold_pages = 4096;
        p.cold_prob = 0.5;
        let spec = ScenarioSpec::new().arrive(0, TenantSpec::synthetic(p));
        let text = spec.to_json().dump();
        let back = ScenarioSpec::try_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.tenant_specs()[0].profile().cold_pages, 4096);
    }

    #[test]
    fn json_parse_rejects_bad_timelines() {
        // Structurally fine, semantically bad: depart before arrive.
        let bad = r#"{"events":[
            {"arrive":{"cycle":0,"app":"MM"}},
            {"arrive":{"cycle":10000,"app":"GUPS"}},
            {"depart":{"cycle":500,"tenant":1}}
        ]}"#;
        let e = ScenarioSpec::try_from_json(&Json::parse(bad).unwrap()).unwrap_err();
        assert!(matches!(e, ConfigError::Scenario(_)), "{e}");

        // Structurally bad.
        for bad in [
            r#"{}"#,
            r#"{"events":[{"arrive":{"cycle":0}}]}"#,
            r#"{"events":[{"arrive":{"cycle":0,"app":"NOPE"}}]}"#,
            r#"{"events":[{"blargh":{}}]}"#,
            r#"{"events":[{"depart":{"cycle":5}}]}"#,
        ] {
            let e = ScenarioSpec::try_from_json(&Json::parse(bad).unwrap()).unwrap_err();
            assert!(matches!(e, ConfigError::Scenario(_)), "{bad}: {e}");
        }
    }

    #[test]
    fn compile_sorts_timeline_and_collects_targets() {
        let t = two_tenant_churn().compile();
        assert_eq!(t.resident_at_start, 1, "the cycle-0 arrival is resident");
        let cycles: Vec<u64> = t.timeline.iter().map(|&(c, _)| c).collect();
        assert_eq!(cycles, vec![1_000, 50_000]);
        assert_eq!(t.slo_targets, vec![(0, 800)]);
        assert!(t.slo.is_some(), "targets imply a default policy");
        assert!(t.reports_churn);
        let t = ScenarioSpec::static_run([AppId::Mm, AppId::Gups]).compile();
        assert_eq!(t.resident_at_start, 2);
        assert!(t.timeline.is_empty() && t.slo.is_none() && t.reports_churn);
        let t = Tenancy::all_resident(2);
        assert_eq!(t.resident_at_start, 2);
        assert!(t.timeline.is_empty() && t.slo.is_none() && !t.reports_churn);
    }

    #[test]
    fn churn_report_metrics() {
        let t = TenantChurn {
            arrived: Some(0),
            departed: Some(1_000),
            evicted: false,
            slo_target: Some(500),
            slo_checks: 4,
            slo_met: 3,
            throttled_checks: 0,
            cancelled_walks: 2,
            lifetime_instructions: 5_000,
            lifetime_cycles: 1_000,
        };
        assert!((t.slo_compliance() - 0.75).abs() < 1e-12);
        assert!((t.lifetime_ipc() - 5.0).abs() < 1e-12);
        let report = ChurnReport {
            tenants: vec![t],
            evictions: 1,
            repartitions: 3,
            throttles: 2,
        };
        let w = report.weighted_speedup_over_lifetime(&[10.0]);
        assert!((w - 0.5).abs() < 1e-12);

        let text = report.to_json().dump();
        let back = ChurnReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
    }
}
