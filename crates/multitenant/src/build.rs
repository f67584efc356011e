//! Fluent construction of a [`Simulation`]: tenants, policy preset, config
//! knobs, run budgets, and observability sinks in one place.
//!
//! [`SimulationBuilder`] is the single public construction path for
//! simulations. It applies configuration in the canonical order the
//! experiment suite uses — `for_tenants(n)` first, then the policy preset.
//! A tenant list compiles to the same form as a
//! [`scenario`](SimulationBuilder::scenario) timeline, every tenant
//! resident from cycle 0, and runs the same path, but reports no churn.
//! [`ScenarioSpec::static_run`] gives the same results as the plain list
//! plus a churn report (the `static_scenario_is_degenerate` test pins it).
//!
//! # Examples
//!
//! ```
//! use walksteal_multitenant::{PolicyPreset, SimulationBuilder};
//! use walksteal_workloads::AppId;
//!
//! let result = SimulationBuilder::new()
//!     .tenants([AppId::Gups, AppId::Mm])
//!     .preset(PolicyPreset::DwsPlusPlus)
//!     .n_sms(4)
//!     .warps_per_sm(4)
//!     .instructions_per_warp(400)
//!     .seed(1)
//!     .build()
//!     .run();
//! assert_eq!(result.tenants.len(), 2);
//! ```

use walksteal_sim_core::metrics::SharedMetrics;
use walksteal_sim_core::trace::{Observer, Tracer};
use walksteal_sim_core::{ConfigError, RunBudget, SimError};
use walksteal_vm::PageSize;
use walksteal_workloads::{AppId, AppProfile};

use crate::config::{GpuConfig, PolicyPreset};
use crate::metrics::SimResult;
use crate::scenario::{ScenarioSpec, Tenancy};
use crate::sim::Simulation;

/// One tenant in a [`SimulationBuilder`]: which application it runs, or —
/// for fuzzer-generated tenants — an arbitrary behavioral profile.
///
/// Exists as its own type so per-tenant knobs have a home; it wraps an
/// [`AppId`] (and converts from one) or carries a full synthetic
/// [`AppProfile`] overriding the calibrated one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    app: AppId,
    profile: Option<AppProfile>,
}

impl TenantSpec {
    /// A tenant running `app` with its calibrated profile.
    #[must_use]
    pub fn new(app: AppId) -> Self {
        TenantSpec { app, profile: None }
    }

    /// A tenant running an arbitrary behavioral profile (the scenario
    /// fuzzer's synthetic tenants). The profile's `id` labels the tenant
    /// in results; behavior comes entirely from the profile's knobs.
    #[must_use]
    pub fn synthetic(profile: AppProfile) -> Self {
        TenantSpec {
            app: profile.id,
            profile: Some(profile),
        }
    }

    /// The application this tenant runs (the label, for synthetic tenants).
    #[must_use]
    pub fn app(&self) -> AppId {
        self.app
    }

    /// The behavioral profile this tenant simulates: the synthetic
    /// override if present, the app's calibrated profile otherwise.
    #[must_use]
    pub fn profile(&self) -> AppProfile {
        self.profile.unwrap_or_else(|| self.app.profile())
    }

    /// The synthetic profile override, if this spec carries one (the
    /// scenario JSON codec serializes it; calibrated specs serialize as
    /// their app name alone).
    pub(crate) fn profile_override(&self) -> Option<AppProfile> {
        self.profile
    }
}

impl From<AppId> for TenantSpec {
    fn from(app: AppId) -> Self {
        TenantSpec::new(app)
    }
}

/// How warp streams are generated: always inline on the simulation thread.
/// The single variant remains so existing callers of
/// [`SimulationBuilder::stream_pipelining`] keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamPipelining {
    /// Generate each warp's next op inline, when the warp issues it.
    #[default]
    Off,
}

/// Fluent builder for a [`Simulation`]. See the [module docs](self).
pub struct SimulationBuilder {
    cfg: GpuConfig,
    tenants: Vec<TenantSpec>,
    scenario: Option<ScenarioSpec>,
    preset: Option<PolicyPreset>,
    seed: u64,
    budget: RunBudget,
    obs: Observer,
    metrics: Option<SharedMetrics>,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimulationBuilder {
    /// A builder with the paper's Table I baseline configuration, no
    /// tenants, seed 42, an unlimited budget, and observability off.
    #[must_use]
    pub fn new() -> Self {
        SimulationBuilder {
            cfg: GpuConfig::default(),
            tenants: Vec::new(),
            scenario: None,
            preset: None,
            seed: 42,
            budget: RunBudget::unlimited(),
            obs: Observer::off(),
            metrics: None,
        }
    }

    /// Replaces the base configuration (tenant count and preset are still
    /// applied on top at [`build`](Self::build) time).
    #[must_use]
    pub fn config(mut self, cfg: GpuConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Adds one tenant.
    #[must_use]
    pub fn tenant(mut self, spec: impl Into<TenantSpec>) -> Self {
        self.tenants.push(spec.into());
        self
    }

    /// Adds several tenants, in order.
    #[must_use]
    pub fn tenants<I>(mut self, specs: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<TenantSpec>,
    {
        self.tenants.extend(specs.into_iter().map(Into::into));
        self
    }

    /// Attaches a dynamic-tenancy scenario: the timeline supplies the
    /// tenants (mutually exclusive with [`tenant`](Self::tenant) /
    /// [`tenants`](Self::tenants)) and is validated at
    /// [`build`](Self::build) time.
    #[must_use]
    pub fn scenario(mut self, spec: ScenarioSpec) -> Self {
        self.scenario = Some(spec);
        self
    }

    /// Applies a policy preset (after tenant-count specialization, matching
    /// the experiment suite's canonical order).
    #[must_use]
    pub fn preset(mut self, preset: PolicyPreset) -> Self {
        self.preset = Some(preset);
        self
    }

    /// Seeds all workload randomness (default: 42).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Bounds the run; [`run`](Self::run) fails with
    /// [`SimError::BudgetExceeded`] when blown (default: unlimited).
    #[must_use]
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a trace sink receiving walk-lifecycle events.
    #[must_use]
    pub fn tracer(mut self, tracer: impl Tracer + 'static) -> Self {
        self.obs.tracer = Some(Box::new(tracer));
        self
    }

    /// Attaches a metrics registry handle; keep a clone to read the run's
    /// final counters and histograms after it ends. The run replaces the
    /// handle's contents when it ends and never reads them, so attaching
    /// one does not change the result.
    #[must_use]
    pub fn metrics(mut self, metrics: SharedMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Sets the number of SMs.
    #[must_use]
    pub fn n_sms(mut self, n: usize) -> Self {
        self.cfg = self.cfg.with_n_sms(n);
        self
    }

    /// Sets resident warps per SM.
    #[must_use]
    pub fn warps_per_sm(mut self, n: usize) -> Self {
        self.cfg = self.cfg.with_warps_per_sm(n);
        self
    }

    /// Sets the base per-warp instruction budget per execution.
    #[must_use]
    pub fn instructions_per_warp(mut self, n: u64) -> Self {
        self.cfg = self.cfg.with_instructions_per_warp(n);
        self
    }

    /// Sets the L2 TLB size in entries (16-way).
    #[must_use]
    pub fn l2_tlb_entries(mut self, entries: usize) -> Self {
        self.cfg = self.cfg.with_l2_tlb_entries(entries);
        self
    }

    /// Sets the number of page-table walkers.
    #[must_use]
    pub fn walkers(mut self, n: usize) -> Self {
        self.cfg = self.cfg.with_walkers(n);
        self
    }

    /// Sets the page size.
    #[must_use]
    pub fn page_size(mut self, page_size: PageSize) -> Self {
        self.cfg = self.cfg.with_page_size(page_size);
        self
    }

    /// Enables periodic timeline sampling every `cycles` cycles.
    #[must_use]
    pub fn sample_interval(mut self, cycles: u64) -> Self {
        self.cfg = self.cfg.with_sample_interval(cycles);
        self
    }

    /// A no-op kept for source compatibility: streams are always
    /// generated inline, so the one [`StreamPipelining`] mode changes
    /// nothing and is not stored.
    #[must_use]
    pub fn stream_pipelining(self, _mode: StreamPipelining) -> Self {
        self
    }

    /// Builds the simulation: specializes the config for the tenant count,
    /// applies the preset, and attaches the observer.
    ///
    /// # Panics
    ///
    /// Panics if no tenants were added, or the configuration cannot host
    /// them (SMs/walkers not evenly divisible); use
    /// [`try_build`](Self::try_build) to get the rejection as a
    /// [`SimError::InvalidConfig`] instead.
    #[must_use]
    pub fn build(self) -> Simulation {
        self.try_build()
            .unwrap_or_else(|e| panic!("SimulationBuilder: {e}"))
    }

    /// Fallible form of [`build`](Self::build).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when no tenants were added, the
    /// configuration cannot host them, or a tenant's profile is malformed
    /// or lays out pages past the page table's reach
    /// ([`ConfigError::Profile`]).
    pub fn try_build(mut self) -> Result<Simulation, SimError> {
        let tenancy = match self.scenario.take() {
            Some(spec) => {
                if !self.tenants.is_empty() {
                    return Err(SimError::InvalidConfig(ConfigError::Scenario(
                        "a scenario supplies its own tenants; \
                         do not also add tenants to the builder"
                            .into(),
                    )));
                }
                spec.validate()?;
                self.tenants = spec.tenant_specs();
                spec.compile()
            }
            None => Tenancy::all_resident(self.tenants.len()),
        };
        if self.tenants.is_empty() {
            return Err(SimError::InvalidConfig(ConfigError::NoTenants));
        }
        let profiles: Vec<AppProfile> = self.tenants.iter().map(TenantSpec::profile).collect();
        let mut cfg = self.cfg.try_for_tenants(profiles.len())?;
        if let Some(preset) = self.preset {
            cfg = cfg.try_with_preset(preset)?;
        }
        cfg.check_profiles(&profiles)?;
        let sim = Simulation::new(cfg, &profiles, tenancy, self.seed, self.obs, self.metrics);
        Ok(sim)
    }

    /// Builds and runs under the configured budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the configuration is
    /// rejected, or [`SimError::BudgetExceeded`] when the budget is blown.
    pub fn run(self) -> Result<SimResult, SimError> {
        let budget = self.budget;
        self.try_build()?.run_budgeted(&budget)
    }
}

#[cfg(test)]
mod tests {
    use walksteal_vm::{PageTable, MAX_FRAMES};

    use super::*;

    fn small() -> SimulationBuilder {
        SimulationBuilder::new()
            .n_sms(4)
            .warps_per_sm(4)
            .instructions_per_warp(400)
    }

    #[test]
    fn builder_matches_direct_construction() {
        // The builder must replay bit-identically to the internal
        // construction path it wraps (config specialized for the tenant
        // count first, then the preset).
        let cfg = GpuConfig::default()
            .with_n_sms(4)
            .with_warps_per_sm(4)
            .with_instructions_per_warp(400)
            .for_tenants(2)
            .with_preset(PolicyPreset::DwsPlusPlus);
        let profiles = [AppId::Gups.profile(), AppId::Mm.profile()];
        let tenancy = Tenancy::all_resident(2);
        let direct = Simulation::new(cfg, &profiles, tenancy, 7, Observer::off(), None).run();
        let built = small()
            .tenants([AppId::Gups, AppId::Mm])
            .preset(PolicyPreset::DwsPlusPlus)
            .seed(7)
            .stream_pipelining(StreamPipelining::Off)
            .build()
            .run();
        assert_eq!(direct, built);
    }

    #[test]
    fn static_scenario_is_degenerate() {
        // An all-arrive-at-cycle-0 scenario and the plain tenant list run
        // one path: under every preset, with 2 to 4 tenants and timeline
        // sampling on, every result field but the churn report matches.
        // The report is there exactly when a `ScenarioSpec` supplied the
        // tenants. 12 SMs and 12 walkers split among 2, 3 and 4 tenants.
        let apps = [AppId::Gups, AppId::Mm, AppId::Tds, AppId::Hs];
        for preset in PolicyPreset::ALL {
            for n in 2..=4 {
                let base = || {
                    SimulationBuilder::new()
                        .n_sms(12)
                        .warps_per_sm(2)
                        .walkers(12)
                        .instructions_per_warp(200)
                        .sample_interval(500)
                        .preset(preset)
                        .seed(7)
                };
                let list = base().tenants(apps[..n].iter().copied()).build().run();
                let spec = ScenarioSpec::static_run(apps[..n].iter().copied());
                let scenario = base().scenario(spec).build().run();
                let SimResult {
                    tenants,
                    cycles,
                    events,
                    timeline,
                    churn,
                } = scenario;
                assert_eq!(list.tenants, tenants, "{preset} x{n}");
                assert_eq!(list.cycles, cycles, "{preset} x{n}");
                assert_eq!(list.events, events, "{preset} x{n}");
                assert_eq!(list.timeline, timeline, "{preset} x{n}");
                assert!(!timeline.is_empty(), "{preset} x{n}: sampling is on");
                assert!(
                    list.churn.is_none(),
                    "{preset} x{n}: a list reports no churn"
                );
                let churn = churn.expect("a scenario reports churn");
                assert_eq!(churn.evictions, 0);
                assert_eq!(churn.throttles, 0);
                assert_eq!(churn.repartitions, 0);
                assert!(churn.tenants.iter().all(|t| t.arrived == Some(0)));
                assert!(churn.tenants.iter().all(|t| t.departed.is_none()));
            }
        }
    }

    #[test]
    fn scenario_and_tenants_are_mutually_exclusive() {
        let err = small()
            .tenant(AppId::Mm)
            .scenario(ScenarioSpec::static_run([AppId::Gups]))
            .try_build()
            .err()
            .unwrap();
        assert!(
            matches!(err, SimError::InvalidConfig(ConfigError::Scenario(_))),
            "{err}"
        );
    }

    #[test]
    fn tenant_count_is_bounded_by_the_tenant_id() {
        // One SM and one warp per tenant. A tenant list and a scenario
        // both build and run to completion at 256 tenants, the range of a
        // `TenantId`, and both get the same typed error at 257.
        let machine = |n: usize| {
            SimulationBuilder::new()
                .config(GpuConfig::default().with_n_sms(n).with_warps_per_sm(1))
                .instructions_per_warp(100)
        };
        let arrivals =
            |n: usize| (0..n).fold(ScenarioSpec::new(), |spec, _| spec.arrive(0, AppId::Mm));
        for n in [256, 257] {
            let list = machine(n).tenants(vec![AppId::Mm; n]).try_build();
            let scenario = machine(n).scenario(arrivals(n)).try_build();
            for built in [list, scenario] {
                match built {
                    Ok(sim) => {
                        assert_eq!(n, 256);
                        let r = sim.run();
                        assert_eq!(r.tenants.len(), 256);
                        assert!(r.tenants.iter().all(|t| t.completed_executions > 0));
                    }
                    Err(e) => assert_eq!(
                        (n, e),
                        (
                            257,
                            SimError::InvalidConfig(ConfigError::TooManyTenants {
                                count: 257,
                                max: 256
                            })
                        )
                    ),
                }
            }
        }
    }

    #[test]
    fn invalid_scenario_is_rejected_at_build() {
        let err = small()
            .scenario(ScenarioSpec::new().arrive(5, AppId::Mm))
            .try_build()
            .err()
            .unwrap();
        assert!(
            matches!(err, SimError::InvalidConfig(ConfigError::Scenario(_))),
            "{err}"
        );
    }

    #[test]
    fn malformed_profiles_are_rejected_at_build() {
        let mut no_hot = AppId::Mm.profile();
        no_hot.hot_pages = 0;
        let mut past_reach = AppId::Mm.profile();
        past_reach.cold_pages = 1 << 36;
        let mut overflowing = AppId::Mm.profile();
        overflowing.cold_pages = u64::MAX;
        // Inside the reach, but 8 warps of 2^30 pages need 2^33 frames.
        let mut frame_hungry = AppId::Mm.profile();
        frame_hungry.cold_pages = 1 << 30;
        for (profile, want) in [
            (no_hot, "hot_pages"),
            (past_reach, "reach"),
            (overflowing, "reach"),
            (frame_hungry, "32-bit page-table entry"),
        ] {
            // Both entry points: a tenant list, and a scenario's arrival.
            let listed = small()
                .tenant(AppId::Gups)
                .tenant(TenantSpec::synthetic(profile))
                .try_build();
            let arriving = small()
                .scenario(
                    ScenarioSpec::new()
                        .arrive(0, AppId::Gups)
                        .arrive(0, TenantSpec::synthetic(profile)),
                )
                .try_build();
            for err in [listed.err().unwrap(), arriving.err().unwrap()] {
                match &err {
                    SimError::InvalidConfig(ConfigError::Profile { tenant: 1, reason }) => {
                        assert!(reason.contains(want), "{err}");
                    }
                    _ => panic!("want a profile error for tenant 1, got {err}"),
                }
            }
        }
    }

    #[test]
    fn profile_layout_must_end_below_the_table_reach() {
        // One warp per tenant: the layout ends at hot + warm + cold + 1.
        let cfg = GpuConfig::default()
            .with_n_sms(2)
            .with_warps_per_sm(1)
            .for_tenants(2);
        let mut p = AppId::Mm.profile();
        p.hot_pages = 1;
        p.warm_pages = 0;
        p.warm_prob = 0.0;
        for (size, reach) in [
            (PageSize::Small4K, 1u64 << 36),
            (PageSize::Large64K, 1 << 27),
        ] {
            let cfg = cfg.clone().with_page_size(size);
            let reason = |p: AppProfile| match cfg.check_profiles(&[AppId::Mm.profile(), p]) {
                Err(ConfigError::Profile { tenant: 1, reason }) => reason,
                other => panic!("{size}: want a profile error for tenant 1, got {other:?}"),
            };
            p.cold_pages = reach - 3;
            if size == PageSize::Small4K {
                // Inside the reach, but 2^36 pages need more frames than
                // a 32-bit entry holds; the frame check comes second.
                assert!(reason(p).contains("32-bit"), "{size}");
            } else {
                assert_eq!(
                    cfg.check_profiles(&[AppId::Mm.profile(), p]),
                    Ok(()),
                    "{size}"
                );
            }
            p.cold_pages = reach - 2;
            assert!(reason(p).contains("page reach"), "{size}");
        }
    }

    #[test]
    fn tenant_frames_must_fit_a_page_table_entry() {
        // One warp per tenant: a layout ends at cold_pages + 2. Tenant 0
        // ends just inside the 64 KB reach; search tenant 1's cold region
        // for the largest one the frame check accepts.
        let base = GpuConfig::default()
            .with_n_sms(2)
            .with_warps_per_sm(1)
            .for_tenants(2);
        let mut p = AppId::Mm.profile();
        p.hot_pages = 1;
        p.warm_pages = 0;
        p.warm_prob = 0.0;
        let with_cold = |cold_pages| AppProfile { cold_pages, ..p };
        let first = with_cold((1 << 27) - 3);
        for preset in [PolicyPreset::Baseline, PolicyPreset::MosaicPages] {
            for size in [PageSize::Small4K, PageSize::Large64K] {
                let cfg = base.clone().with_preset(preset).with_page_size(size);
                let check = |cold| cfg.check_profiles(&[first, with_cold(cold)]);
                let need = |cold: u64| {
                    [first.cold_pages, cold]
                        .map(|c| PageTable::frames_to_map(size, cfg.reserve_pages(), c + 2))
                        .into_iter()
                        .sum::<Option<u64>>()
                        .unwrap()
                };
                let (mut fits, mut past) = (1, size.table_reach() - 3);
                assert_eq!(check(fits), Ok(()), "{preset:?} {size}");
                assert!(check(past).is_err(), "{preset:?} {size}");
                while past - fits > 1 {
                    let mid = fits + (past - fits) / 2;
                    if check(mid).is_ok() {
                        fits = mid;
                    } else {
                        past = mid;
                    }
                }
                // The boundary is where the two tables' frames pass
                // MAX_FRAMES, and the refusal names tenant 1.
                assert!(need(fits) <= MAX_FRAMES, "{preset:?} {size}");
                assert!(need(past) > MAX_FRAMES, "{preset:?} {size}");
                match check(past) {
                    Err(ConfigError::Profile { tenant: 1, reason }) => {
                        assert!(reason.contains("32-bit page-table entry"), "{reason}");
                    }
                    other => panic!("{preset:?} {size}: want a frame error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn tenant_specs_convert_from_app_ids() {
        let spec: TenantSpec = AppId::Mm.into();
        assert_eq!(spec.app(), AppId::Mm);
        let r = small()
            .tenant(spec)
            .tenant(AppId::Gups)
            .seed(1)
            .build()
            .run();
        assert_eq!(r.tenants.len(), 2);
        assert_eq!(r.tenants[0].app, AppId::Mm);
        assert_eq!(r.tenants[1].app, AppId::Gups);
    }

    #[test]
    fn synthetic_tenant_with_calibrated_profile_matches_app_id() {
        // A synthetic spec carrying an app's own calibrated profile must be
        // indistinguishable from the plain AppId path — same construction,
        // same result, bit for bit.
        let run = |spec: TenantSpec| {
            small()
                .tenant(spec)
                .tenant(AppId::Mm)
                .preset(PolicyPreset::Dws)
                .seed(3)
                .build()
                .run()
        };
        let by_id = run(TenantSpec::new(AppId::Gups));
        let by_profile = run(TenantSpec::synthetic(AppId::Gups.profile()));
        assert_eq!(by_id, by_profile);
    }

    #[test]
    fn synthetic_profile_changes_behavior() {
        // A genuinely different profile must actually drive the simulation
        // differently (the override is not ignored). MM's warm_prob is
        // 0.35, so cold_prob stays within the sane joint bound of 1.
        let mut profile = AppId::Mm.profile();
        profile.cold_pages = 2048;
        profile.cold_prob = 0.6;
        let baseline = small()
            .tenants([AppId::Mm, AppId::Mm])
            .preset(PolicyPreset::Dws)
            .seed(3)
            .build()
            .run();
        let overridden = small()
            .tenant(TenantSpec::synthetic(profile))
            .tenant(AppId::Mm)
            .preset(PolicyPreset::Dws)
            .seed(3)
            .build()
            .run();
        assert_eq!(overridden.tenants[0].app, AppId::Mm, "label preserved");
        assert_ne!(baseline, overridden, "profile override had no effect");
    }

    #[test]
    fn budgeted_run_surfaces_errors() {
        let err = small()
            .tenants([AppId::Gups, AppId::Mm])
            .seed(1)
            .budget(RunBudget::unlimited().with_max_events(100))
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::BudgetExceeded { .. }));
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn building_without_tenants_panics() {
        let _ = SimulationBuilder::new().build();
    }

    #[test]
    fn try_build_reports_invalid_configs() {
        let err = SimulationBuilder::new().try_build().err().unwrap();
        assert_eq!(err, SimError::InvalidConfig(ConfigError::NoTenants));

        let err = SimulationBuilder::new()
            .n_sms(31)
            .tenants([AppId::Gups, AppId::Mm])
            .try_build()
            .err()
            .unwrap();
        assert!(
            matches!(
                err,
                SimError::InvalidConfig(ConfigError::UnevenSplit {
                    resource: "SMs",
                    ..
                })
            ),
            "{err}"
        );

        // 16 walkers cannot partition across 3 tenants; the rejection flows
        // through `run` as well, instead of panicking.
        let err = SimulationBuilder::new()
            .n_sms(30)
            .tenants([AppId::Gups, AppId::Mm, AppId::Tds])
            .preset(PolicyPreset::Dws)
            .run()
            .unwrap_err();
        assert!(
            matches!(
                err,
                SimError::InvalidConfig(ConfigError::UnevenSplit {
                    resource: "walkers",
                    ..
                })
            ),
            "{err}"
        );
    }
}
