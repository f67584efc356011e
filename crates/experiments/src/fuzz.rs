//! Seeded scenario fuzzing with a stacked differential oracle, a
//! delta-debugging shrinker, and self-contained JSON repro files.
//!
//! Every correctness guarantee in the repo — BitmapScheduler vs
//! ReferenceScheduler lockstep, the N-tenant invariant properties,
//! trace-replay self-checks, fault-injection equivalence — historically
//! ran only on the 13 calibrated apps and the curated sweep points. This
//! module turns those oracles loose on the whole configuration space:
//!
//! 1. [`FuzzGen`] draws random [`FuzzScenario`]s from a seed: synthetic
//!    tenants (arbitrary footprints and access patterns, via
//!    [`walksteal_workloads::synth`]), random hardware sweep points
//!    (walkers / queue depth / L2-TLB size / L2 banks / DRAM channels and
//!    occupancy / 2–4 tenants), every
//!    [`PolicyPreset`], mid-run repartition schedules, and fault-injection
//!    schedules reusing the `--inject-faults` machinery.
//! 2. [`run_oracles`] runs one scenario through the stacked oracle:
//!    * **lockstep** — optimized vs reference walk scheduler on identical
//!      traffic, per-step invariant checks through the shared
//!      [`walksteal_vm::invariants`] module, inspection-view agreement, and
//!      repartition events applied to both sides;
//!    * **simulate** — the full end-to-end simulation under an event
//!      budget;
//!    * **trace** — the same simulation traced, the trace replayed from
//!      JSONL alone, and the replayed per-tenant stats compared
//!      bit-for-bit against the simulator (plus traced-vs-untraced result
//!      identity);
//!    * **faults** — the scenario's fault schedule injected through the
//!      parallel engine, and the faulted store compared byte-for-byte to a
//!      clean run.
//! 3. On divergence, [`shrink`] minimizes the scenario with greedy
//!    delta-debugging (drop tenants, halve footprints and schedules,
//!    simplify the config) while the failure persists, and the minimal
//!    scenario is serialized with [`write_repro`] as a self-contained JSON
//!    file that `repro --fuzz-repro FILE` replays deterministically.
//!
//! [`run_campaign`] drives the whole pipeline behind `repro --fuzz N
//! --fuzz-seed S --fuzz-budget-ms T`: regression scenarios in the corpus
//! directory (`results/fuzz/`) replay first, then `N` generated scenarios
//! run until done or out of budget. Exit contract: 0 clean, 1 divergence
//! (repro path printed).

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use walksteal_mem::{MemSystem, MemSystemConfig};
use walksteal_multitenant::{
    GpuConfig, JsonlTracer, PolicyPreset, RunBudget, SimError, SimulationBuilder, TenantSpec,
};
use walksteal_sim_core::{Cycle, Json, Observer, SimRng, TenantId, Vpn};
use walksteal_vm::walk::WalkContext;
use walksteal_vm::{
    invariants, DispatchedWalk, FrameAlloc, PageSize, PageTable, SchedulerImpl, WalkQueueFull,
    WalkRequest, WalkSubsystem,
};
use walksteal_workloads::{synthetic_profile, AppId, AppProfile};

use crate::fault::FaultSpec;
use crate::key::ExpKey;
use crate::parallel::{run_jobs, Job, RunOptions};
use crate::store::Store;

/// Event budget for the end-to-end oracle stages: generous enough that
/// every generated scenario completes, small enough that an adversarial
/// hand-edited repro cannot hang a campaign. A scenario that exceeds it is
/// truncated (the downstream trace check is skipped), not failed.
const EVENT_CAP: u64 = 4_000_000;

/// Where one fuzz tenant's behavior comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TenantSource {
    /// One of the 13 calibrated apps.
    App(AppId),
    /// A fuzzer-drawn synthetic profile (the id is only a label).
    Synthetic(AppProfile),
}

impl TenantSource {
    /// The app id labeling this tenant in results and cache keys.
    #[must_use]
    pub fn app(&self) -> AppId {
        match self {
            TenantSource::App(a) => *a,
            TenantSource::Synthetic(p) => p.id,
        }
    }

    /// The builder spec this tenant simulates as.
    #[must_use]
    pub fn spec(&self) -> TenantSpec {
        match self {
            TenantSource::App(a) => TenantSpec::new(*a),
            TenantSource::Synthetic(p) => TenantSpec::synthetic(*p),
        }
    }

    fn to_json(self) -> Json {
        match self {
            TenantSource::App(a) => Json::Obj(vec![("app".into(), Json::Str(a.name().into()))]),
            TenantSource::Synthetic(p) => Json::Obj(vec![("synthetic".into(), p.to_json())]),
        }
    }

    fn from_json(v: &Json) -> Result<TenantSource, String> {
        if let Some(name) = v.get("app").and_then(Json::as_str) {
            return AppId::from_name(name)
                .map(TenantSource::App)
                .ok_or_else(|| format!("tenant: unknown app `{name}`"));
        }
        if let Some(p) = v.get("synthetic") {
            return AppProfile::from_json(p).map(TenantSource::Synthetic);
        }
        Err("tenant is neither {\"app\":…} nor {\"synthetic\":…}".into())
    }
}

/// One mid-run repartition: at lockstep step `step`, restrict the
/// partitioned walk scheduler to the tenants flagged `true` (a no-op for
/// non-partitioned policies, exactly like the production path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepartitionEvent {
    /// Lockstep step the event fires before.
    pub step: usize,
    /// Per-tenant active flags; always has at least one `true`.
    pub active: Vec<bool>,
}

/// One arrival or departure on a fuzz scenario's tenancy timeline: at
/// lockstep step `step`, the tenant departs (its queued walks are
/// cancelled and the walkers repartition among the residents) or
/// re-arrives (walkers repartition to include it again) — the
/// scheduler-level shape of the scenario engine's `Arrive`/`Depart`
/// events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Lockstep step the event fires before.
    pub step: usize,
    /// The tenant arriving or departing.
    pub tenant: usize,
    /// `true` = departure (cancel + repartition), `false` = arrival.
    pub depart: bool,
}

/// A deliberately wrong scheduler shim, used only by tests to prove the
/// divergence → shrink → repro pipeline works end to end. Never set by the
/// generator; round-trips through repro files so a planted repro replays
/// to the same divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Plant {
    /// No bug planted (every real campaign).
    #[default]
    None,
    /// The reference side silently drops the last enqueue of every fifth
    /// step's burst, breaking attempt accounting — the invariant oracle
    /// must catch it, and it survives every shrinking pass that keeps a
    /// few dozen steps.
    DropReferenceEnqueues,
}

/// One self-contained fuzz scenario: everything needed to replay it is in
/// this struct (and its JSON serialization — no references to external
/// state beyond the simulator itself).
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzScenario {
    /// Human-readable identity, e.g. `s42-17` (generator seed + index).
    pub label: String,
    /// Seed for lockstep traffic and the end-to-end workload.
    pub seed: u64,
    /// The tenants (2–4 from the generator; the shrinker keeps ≥ 2).
    pub tenants: Vec<TenantSource>,
    /// Policy preset under test.
    pub preset: PolicyPreset,
    /// Page-table walkers (a multiple of the tenant count).
    pub walkers: usize,
    /// Aggregate walk-queue entries.
    pub queue_entries: usize,
    /// Shared L2 TLB entries (multiple of 16, power-of-two sets).
    pub l2_tlb_entries: usize,
    /// Shared L2 cache banks (power of two): the bank-contention geometry.
    pub l2_banks: usize,
    /// DRAM channels (power of two): the channel-contention geometry.
    pub dram_channels: usize,
    /// Cycles one line transfer occupies its DRAM channel (> 0; the
    /// bandwidth term that creates queue waits under conflicts).
    pub dram_occupancy: u64,
    /// SMs per tenant for the end-to-end stages.
    pub sms_per_tenant: usize,
    /// Resident warps per SM.
    pub warps_per_sm: usize,
    /// Per-warp instruction budget.
    pub instructions_per_warp: u64,
    /// Lockstep steps to drive.
    pub steps: usize,
    /// Mid-run repartition schedule, sorted by step.
    pub repartition: Vec<RepartitionEvent>,
    /// Arrival/departure timeline, sorted by step. Interleaves with
    /// `repartition` (at a step tie, repartitions apply first); the merged
    /// schedule never leaves every tenant departed.
    pub churn: Vec<ChurnEvent>,
    /// Fault-injection schedule (an `--inject-faults` spec string), if any.
    pub faults: Option<String>,
    /// Test-only planted bug (see [`Plant`]).
    pub plant: Plant,
}

/// What the oracle stack observed on a clean run — used by tests to assert
/// the oracles were not vacuous (steals and rejects happened, the
/// simulation ran, faults actually fired).
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleStats {
    /// Walks serviced by stealing in the lockstep stage.
    pub steals: u64,
    /// Enqueue attempts rejected (queue full) in the lockstep stage.
    pub rejected: u64,
    /// Queued walks cancelled by timeline departures in the lockstep stage.
    pub cancelled: u64,
    /// Events the end-to-end simulation processed.
    pub sim_events: u64,
    /// The end-to-end stage hit the internal event cap and was truncated.
    pub truncated: bool,
    /// Jobs compared in the fault-equivalence stage (0 = no fault schedule).
    pub fault_jobs: usize,
}

/// A detected oracle failure: which stage tripped and the first mismatch.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Oracle stage: `lockstep`, `simulate`, `trace`, or `faults`.
    pub stage: &'static str,
    /// First mismatch, human-readable.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.stage, self.detail)
    }
}

impl FuzzScenario {
    /// The scenario's hardware configuration before tenant-count
    /// specialization and preset application (the builder applies those in
    /// the canonical order).
    #[must_use]
    pub fn base_config(&self) -> GpuConfig {
        let mut cfg = GpuConfig::default()
            .with_n_sms(self.sms_per_tenant * self.tenants.len())
            .with_warps_per_sm(self.warps_per_sm)
            .with_instructions_per_warp(self.instructions_per_warp)
            .with_walkers(self.walkers)
            .with_l2_tlb_entries(self.l2_tlb_entries);
        cfg.walk.queue_entries = self.queue_entries;
        cfg.mem.l2_banks = self.l2_banks;
        cfg.mem.dram.channels = self.dram_channels;
        cfg.mem.dram.occupancy_cycles = self.dram_occupancy;
        cfg
    }

    /// The fully specialized configuration (tenant split + preset applied),
    /// as the end-to-end stages run it and the lockstep stage mirrors it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the scenario's knobs cannot
    /// host its tenant count, or [`GpuConfig::check_profiles`] rejects a
    /// tenant's profile (possible only for hand-edited repro files — the
    /// generator and shrinker keep scenarios valid by construction).
    pub fn config(&self) -> Result<GpuConfig, SimError> {
        let cfg = self
            .base_config()
            .try_for_tenants(self.tenants.len())?
            .try_with_preset(self.preset)?;
        let profiles: Vec<AppProfile> = self.tenants.iter().map(|t| t.spec().profile()).collect();
        cfg.check_profiles(&profiles)?;
        Ok(cfg)
    }

    /// Serializes the scenario as a self-contained JSON object (the repro
    /// file format; see EXPERIMENTS.md).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("fuzz_repro".into(), Json::UInt(1)),
            ("label".into(), Json::Str(self.label.clone())),
            ("seed".into(), Json::UInt(self.seed)),
            ("preset".into(), Json::Str(self.preset.label().into())),
            (
                "tenants".into(),
                Json::Arr(self.tenants.iter().map(|t| t.to_json()).collect()),
            ),
            ("walkers".into(), Json::UInt(self.walkers as u64)),
            (
                "queue_entries".into(),
                Json::UInt(self.queue_entries as u64),
            ),
            (
                "l2_tlb_entries".into(),
                Json::UInt(self.l2_tlb_entries as u64),
            ),
            ("l2_banks".into(), Json::UInt(self.l2_banks as u64)),
            (
                "dram_channels".into(),
                Json::UInt(self.dram_channels as u64),
            ),
            ("dram_occupancy".into(), Json::UInt(self.dram_occupancy)),
            (
                "sms_per_tenant".into(),
                Json::UInt(self.sms_per_tenant as u64),
            ),
            ("warps_per_sm".into(), Json::UInt(self.warps_per_sm as u64)),
            (
                "instructions_per_warp".into(),
                Json::UInt(self.instructions_per_warp),
            ),
            ("steps".into(), Json::UInt(self.steps as u64)),
            (
                "repartition".into(),
                Json::Arr(
                    self.repartition
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("step".into(), Json::UInt(e.step as u64)),
                                (
                                    "active".into(),
                                    Json::Arr(e.active.iter().map(|&b| Json::Bool(b)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if !self.churn.is_empty() {
            obj.push((
                "churn".into(),
                Json::Arr(
                    self.churn
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("step".into(), Json::UInt(e.step as u64)),
                                ("tenant".into(), Json::UInt(e.tenant as u64)),
                                (
                                    "kind".into(),
                                    Json::Str(if e.depart { "depart" } else { "arrive" }.into()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(f) = &self.faults {
            obj.push(("faults".into(), Json::Str(f.clone())));
        }
        if self.plant == Plant::DropReferenceEnqueues {
            obj.push(("plant".into(), Json::Str("drop_reference_enqueues".into())));
        }
        Json::Obj(obj)
    }

    /// Parses and validates a repro-file JSON object.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing/ill-typed field or
    /// structurally invalid value (bad tenant count, uneven walker split,
    /// impossible TLB geometry, malformed repartition mask or fault spec,
    /// or anything [`config`](Self::config) rejects).
    pub fn from_json(v: &Json) -> Result<FuzzScenario, String> {
        let uint = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("scenario: missing integer field `{k}`"))
        };
        // Memory-shape fields postdate the repro format: absent fields
        // (old corpus/repro files) default to the production memory
        // system, so historical repros replay on the hardware they
        // diverged on.
        let uint_or = |k: &str, default: u64| match v.get(k) {
            None => Ok(default),
            Some(j) => j
                .as_u64()
                .ok_or_else(|| format!("scenario: `{k}` is not an integer")),
        };
        let tenants = v
            .get("tenants")
            .and_then(Json::as_array)
            .ok_or("scenario: missing `tenants` array")?
            .iter()
            .map(TenantSource::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if tenants.is_empty() || tenants.len() > 4 {
            return Err(format!("scenario: {} tenants (want 1–4)", tenants.len()));
        }
        let preset_name = v
            .get("preset")
            .and_then(Json::as_str)
            .ok_or("scenario: missing `preset`")?;
        let preset: PolicyPreset = preset_name.parse().map_err(|e| format!("scenario: {e}"))?;
        let repartition = match v.get("repartition").and_then(Json::as_array) {
            None => Vec::new(),
            Some(evs) => evs
                .iter()
                .map(|e| {
                    let step = e
                        .get("step")
                        .and_then(Json::as_u64)
                        .ok_or("repartition event: missing `step`")?
                        as usize;
                    let active: Vec<bool> = e
                        .get("active")
                        .and_then(Json::as_array)
                        .ok_or("repartition event: missing `active`")?
                        .iter()
                        .map(|b| b.as_bool().ok_or("repartition mask: non-boolean entry"))
                        .collect::<Result<_, _>>()?;
                    if active.len() != tenants.len() || !active.iter().any(|&b| b) {
                        return Err(format!(
                            "repartition mask {active:?} invalid for {} tenants",
                            tenants.len()
                        ));
                    }
                    Ok(RepartitionEvent { step, active })
                })
                .collect::<Result<Vec<_>, String>>()?,
        };
        let churn = match v.get("churn").and_then(Json::as_array) {
            None => Vec::new(),
            Some(evs) => evs
                .iter()
                .map(|e| {
                    let step =
                        e.get("step")
                            .and_then(Json::as_u64)
                            .ok_or("churn event: missing `step`")? as usize;
                    let tenant = e
                        .get("tenant")
                        .and_then(Json::as_u64)
                        .ok_or("churn event: missing `tenant`")?
                        as usize;
                    let depart = match e.get("kind").and_then(Json::as_str) {
                        Some("depart") => true,
                        Some("arrive") => false,
                        _ => return Err("churn event: `kind` must be depart|arrive".into()),
                    };
                    if tenant >= tenants.len() {
                        return Err(format!(
                            "churn event: tenant {tenant} out of range for {} tenants",
                            tenants.len()
                        ));
                    }
                    Ok(ChurnEvent {
                        step,
                        tenant,
                        depart,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
        };
        check_timeline(tenants.len(), &repartition, &churn)?;
        let faults = match v.get("faults") {
            None | Some(Json::Null) => None,
            Some(f) => {
                let s = f.as_str().ok_or("scenario: `faults` is not a string")?;
                FaultSpec::parse(s)?; // validate now, fail on load not on run
                Some(s.to_owned())
            }
        };
        let plant = match v.get("plant").and_then(Json::as_str) {
            None => Plant::None,
            Some("drop_reference_enqueues") => Plant::DropReferenceEnqueues,
            Some(other) => return Err(format!("scenario: unknown plant `{other}`")),
        };
        let mem_default = MemSystemConfig::default();
        let sc = FuzzScenario {
            label: v
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or("unlabeled")
                .to_owned(),
            seed: uint("seed")?,
            tenants,
            preset,
            walkers: uint("walkers")? as usize,
            queue_entries: uint("queue_entries")? as usize,
            l2_tlb_entries: uint("l2_tlb_entries")? as usize,
            l2_banks: uint_or("l2_banks", mem_default.l2_banks as u64)? as usize,
            dram_channels: uint_or("dram_channels", mem_default.dram.channels as u64)? as usize,
            dram_occupancy: uint_or("dram_occupancy", mem_default.dram.occupancy_cycles)?,
            sms_per_tenant: uint("sms_per_tenant")? as usize,
            warps_per_sm: uint("warps_per_sm")? as usize,
            instructions_per_warp: uint("instructions_per_warp")?,
            steps: uint("steps")? as usize,
            repartition,
            churn,
            faults,
            plant,
        };
        if sc.walkers == 0 || !sc.walkers.is_multiple_of(sc.tenants.len()) {
            return Err(format!(
                "scenario: {} walkers cannot split across {} tenants",
                sc.walkers,
                sc.tenants.len()
            ));
        }
        if sc.queue_entries < sc.walkers {
            return Err("scenario: fewer queue entries than walkers".into());
        }
        if !sc.l2_tlb_entries.is_multiple_of(16) || !(sc.l2_tlb_entries / 16).is_power_of_two() {
            return Err(format!(
                "scenario: L2 TLB of {} entries is not 16-way with power-of-two sets",
                sc.l2_tlb_entries
            ));
        }
        if sc.instructions_per_warp == 0 {
            return Err("scenario: zero instructions per warp".into());
        }
        if !sc.l2_banks.is_power_of_two() {
            return Err(format!(
                "scenario: {} L2 banks is not a power of two",
                sc.l2_banks
            ));
        }
        if !sc.dram_channels.is_power_of_two() {
            return Err(format!(
                "scenario: {} DRAM channels is not a power of two",
                sc.dram_channels
            ));
        }
        if sc.dram_occupancy == 0 {
            return Err("scenario: zero DRAM occupancy (free bandwidth)".into());
        }
        // A hand-edited synthetic profile fails here, on load, rather than
        // panicking in the stream generator mid-run.
        sc.config().map_err(|e| format!("scenario: {e}"))?;
        Ok(sc)
    }
}

/// Replays the merged repartition + churn schedule (step order;
/// repartitions first at a tie — the order [`lockstep`] applies them) and
/// rejects any point where every tenant is departed: the partitioned
/// scheduler cannot leave its walkers ownerless.
fn check_timeline(
    n_tenants: usize,
    repartition: &[RepartitionEvent],
    churn: &[ChurnEvent],
) -> Result<(), String> {
    let mut active = vec![true; n_tenants];
    let (mut r, mut c) = (0usize, 0usize);
    while r < repartition.len() || c < churn.len() {
        let take_repart =
            c >= churn.len() || (r < repartition.len() && repartition[r].step <= churn[c].step);
        if take_repart {
            active.clone_from(&repartition[r].active);
            r += 1;
        } else {
            let e = &churn[c];
            active[e.tenant] = !e.depart;
            c += 1;
        }
        if !active.iter().any(|&b| b) {
            return Err("timeline departs every tenant (no walker owner left)".into());
        }
    }
    Ok(())
}

/// The seeded scenario generator. Scenario `i` depends only on `(seed, i)`
/// — not on how many scenarios were drawn before it — so campaigns are
/// deterministic and any scenario is reconstructible from its label.
pub struct FuzzGen {
    seed: u64,
}

impl FuzzGen {
    /// A generator for campaign seed `seed` (`repro --fuzz-seed`).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FuzzGen { seed }
    }

    /// Draws scenario `index` of this campaign.
    #[must_use]
    pub fn scenario(&self, index: u64) -> FuzzScenario {
        let mut rng = SimRng::new(self.seed).split(0xF522 ^ index);
        let n_tenants = 2 + rng.next_below(3) as usize;
        let tenants: Vec<TenantSource> = (0..n_tenants)
            .map(|_| {
                if rng.chance(0.5) {
                    TenantSource::App(AppId::ALL[rng.next_below(13) as usize])
                } else {
                    TenantSource::Synthetic(synthetic_profile(&mut rng))
                }
            })
            .collect();
        // The draw bound here is frozen at the paper presets (everything
        // before the arena trio): `next_below` maps the same raw word to
        // different values under different bounds, so widening this draw
        // would silently reshuffle every pre-existing campaign. Arena
        // presets enter via a tail override below instead.
        let paper = PolicyPreset::ALL.len() - PolicyPreset::ARENA.len();
        let preset = PolicyPreset::ALL[rng.next_below(paper as u64) as usize];
        let walkers = n_tenants * (1 + rng.next_below(4) as usize);
        let queue_entries = walkers * [4usize, 8, 12, 24][rng.next_below(4) as usize];
        let l2_tlb_entries = [512usize, 1024, 2048][rng.next_below(3) as usize];
        let steps = 400 + rng.next_below(1601) as usize;
        let repartition = if rng.chance(0.35) {
            let n_events = 1 + rng.next_below(2) as usize;
            let mut evs: Vec<RepartitionEvent> = (0..n_events)
                .map(|_| {
                    let step = rng.next_below(steps as u64) as usize;
                    let mut active: Vec<bool> = (0..n_tenants).map(|_| rng.chance(0.6)).collect();
                    if !active.iter().any(|&b| b) {
                        let t = rng.next_below(n_tenants as u64) as usize;
                        active[t] = true;
                    }
                    RepartitionEvent { step, active }
                })
                .collect();
            evs.sort_by_key(|e| e.step);
            evs
        } else {
            Vec::new()
        };
        // Arrival/departure timelines only on repartition-free scenarios:
        // both kinds mutate the same active mask, and keeping them apart
        // makes a shrunk repro's schedule readable. Events stay coherent
        // by construction — depart a resident (never the last one),
        // re-arrive a departed tenant.
        let churn = if repartition.is_empty() && rng.chance(0.4) {
            let n_events = 1 + rng.next_below(4) as usize;
            let mut resident = vec![true; n_tenants];
            let mut evs: Vec<ChurnEvent> = Vec::new();
            let mut steps_at: Vec<usize> = (0..n_events)
                .map(|_| rng.next_below(steps as u64) as usize)
                .collect();
            steps_at.sort_unstable();
            for step in steps_at {
                let departed: Vec<usize> = (0..n_tenants).filter(|&t| !resident[t]).collect();
                let residents: Vec<usize> = (0..n_tenants).filter(|&t| resident[t]).collect();
                let (tenant, depart) = if !departed.is_empty() && rng.chance(0.5) {
                    (
                        departed[rng.next_below(departed.len() as u64) as usize],
                        false,
                    )
                } else if residents.len() > 1 {
                    (
                        residents[rng.next_below(residents.len() as u64) as usize],
                        true,
                    )
                } else {
                    continue; // sole resident: nothing coherent to do here
                };
                resident[tenant] = !depart;
                evs.push(ChurnEvent {
                    step,
                    tenant,
                    depart,
                });
            }
            evs
        } else {
            Vec::new()
        };
        let faults = rng
            .chance(0.3)
            .then(|| format!("panic=1,budget=1,seed={}", rng.next_below(1000)));
        let seed = rng.next_u64();
        let sms_per_tenant = 1 + rng.next_below(2) as usize;
        let warps_per_sm = 2 + rng.next_below(3) as usize;
        let instructions_per_warp = 150 + rng.next_below(251);
        // Memory-system shape. Drawn after every pre-existing knob so a
        // given campaign seed keeps producing the scenarios it always did,
        // with a randomized memory geometry appended.
        let l2_banks = [4usize, 8, 16][rng.next_below(3) as usize];
        let dram_channels = [2usize, 4, 8, 16][rng.next_below(4) as usize];
        let dram_occupancy = 1 + rng.next_below(12);
        // Policy-arena presets, drawn last for the same stream-stability
        // reason as the memory shape: a quarter of scenarios trade their
        // paper preset for one of the related-work competitors, so a
        // 100-scenario campaign exercises each arena design ~8 times
        // without disturbing the other knobs of any pre-existing seed.
        let preset = if rng.chance(0.25) {
            PolicyPreset::ARENA[rng.next_below(PolicyPreset::ARENA.len() as u64) as usize]
        } else {
            preset
        };
        FuzzScenario {
            label: format!("s{}-{}", self.seed, index),
            seed,
            tenants,
            preset,
            walkers,
            queue_entries,
            l2_tlb_entries,
            l2_banks,
            dram_channels,
            dram_occupancy,
            sms_per_tenant,
            warps_per_sm,
            instructions_per_warp,
            steps,
            repartition,
            churn,
            faults,
            plant: Plant::None,
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle stage 1: scheduler lockstep
// ---------------------------------------------------------------------------

/// One walk subsystem plus the deterministic machinery it dispatches
/// against (the fuzzing twin of the test suite's `SchedSide`).
struct Side {
    ws: WalkSubsystem,
    page_tables: Vec<PageTable>,
    frames: FrameAlloc,
    mem: MemSystem,
    obs: Observer,
    /// Whether the no-consecutive-steal rule is checkable from the outside.
    /// The scheduler conditions it on the *owner's* pending work; after a
    /// repartition a walker's queue can hold the previous owner's draining
    /// walks while the new owner has none pending, making a steal with a
    /// non-empty queue legal — so the external check (which only sees queue
    /// depths) is sound only until the first repartition.
    strict_steals: bool,
}

impl Side {
    fn new(cfg: &GpuConfig, imp: SchedulerImpl) -> Side {
        Side {
            ws: WalkSubsystem::with_scheduler_impl(cfg.walk.clone(), imp),
            page_tables: (0..cfg.walk.n_tenants)
                .map(|t| PageTable::new(TenantId(t as u8), PageSize::Small4K))
                .collect(),
            frames: FrameAlloc::new(),
            mem: MemSystem::new(cfg.mem),
            obs: Observer::off(),
            strict_steals: true,
        }
    }

    fn enqueue(
        &mut self,
        req: WalkRequest,
        now: Cycle,
    ) -> Result<Option<DispatchedWalk>, WalkQueueFull> {
        let mut ctx = WalkContext {
            page_tables: &mut self.page_tables,
            frames: &mut self.frames,
            mem: &mut self.mem,
            mask: None,
            obs: &mut self.obs,
        };
        self.ws.try_enqueue(req, now, &mut ctx)
    }

    /// Completes one walk, checking the no-consecutive-steal rule on the
    /// follow-on dispatch.
    fn complete(&mut self, d: DispatchedWalk) -> Result<Option<DispatchedWalk>, String> {
        let pre_depths = self.ws.walker_queue_depths();
        let pre_stolen = self.ws.walker_stolen_bits();
        let mut ctx = WalkContext {
            page_tables: &mut self.page_tables,
            frames: &mut self.frames,
            mem: &mut self.mem,
            mask: None,
            obs: &mut self.obs,
        };
        let (_, next) = self.ws.on_walker_done(d.walker, d.done_at, &mut ctx);
        if self.strict_steals {
            if let (Some(n), Some(pd), Some(ps)) = (next, pre_depths, pre_stolen) {
                invariants::check_no_consecutive_steal(&self.ws, &pd, &ps, n.walker.index())?;
            }
        }
        Ok(next)
    }
}

/// Drives the optimized and reference schedulers in lockstep through the
/// scenario's traffic, repartition schedule, and invariant checks.
/// Returns the lockstep slice of [`OracleStats`].
fn lockstep(sc: &FuzzScenario, cfg: &GpuConfig) -> Result<OracleStats, Divergence> {
    let div = |detail: String| Divergence {
        stage: "lockstep",
        detail,
    };
    let n_tenants = sc.tenants.len();
    let mut a = Side::new(cfg, SchedulerImpl::Optimized);
    let mut b = Side::new(cfg, SchedulerImpl::Reference);
    let mut rng = SimRng::new(sc.seed).split(0x10C5);
    // Per-scenario pacing: a small stride saturates the queues (exercising
    // rejection and backpressure), a large one drains them (exercising
    // idle-walker stealing). Drawing it per scenario covers both regimes.
    let stride_max = 4 + rng.next_below(80);
    let mut now = Cycle::ZERO;
    let mut attempts_a = 0u64;
    let mut attempts_b = 0u64;
    let mut outstanding: Vec<DispatchedWalk> = Vec::new();
    let mut burst: Vec<WalkRequest> = Vec::new();
    let mut next_repart = 0usize;
    let mut next_churn = 0usize;
    let mut cancelled = 0u64;
    let mut repartitioned = false;
    // A departed (inactive) tenant owns no walkers and sends no more
    // requests — traffic only targets active tenants, like production.
    let mut active_mask = vec![true; n_tenants];

    for step in 0..sc.steps {
        now += 1 + rng.next_below(stride_max);

        while next_repart < sc.repartition.len() && sc.repartition[next_repart].step <= step {
            let active = &sc.repartition[next_repart].active;
            // Repartitioning while walks are in flight is the production
            // contract (tenants arrive and depart mid-run); both sides see
            // the same schedule. No-op for non-partitioned policies.
            a.ws.set_active_tenants(active);
            b.ws.set_active_tenants(active);
            active_mask.clone_from(active);
            next_repart += 1;
            repartitioned = true;
            a.strict_steals = false;
            b.strict_steals = false;
        }

        while next_churn < sc.churn.len() && sc.churn[next_churn].step <= step {
            let e = sc.churn[next_churn];
            if e.depart {
                // The production departure sequence: cancel the tenant's
                // queued walks (the shootdown), then repartition. Both
                // sides must shed the same number of walks.
                let ca = a.ws.cancel_tenant(TenantId(e.tenant as u8));
                let cb = b.ws.cancel_tenant(TenantId(e.tenant as u8));
                if ca != cb {
                    return Err(div(format!(
                        "step {step}: departure of tenant {} cancelled {ca} vs {cb} walks",
                        e.tenant
                    )));
                }
                cancelled += ca;
            }
            active_mask[e.tenant] = !e.depart;
            a.ws.set_active_tenants(&active_mask);
            b.ws.set_active_tenants(&active_mask);
            next_churn += 1;
            repartitioned = true;
            a.strict_steals = false;
            b.strict_steals = false;
        }

        while let Some(&d) = outstanding.first() {
            if d.done_at > now {
                break;
            }
            outstanding.remove(0);
            let na = a.complete(d).map_err(&div)?;
            let nb = b.complete(d).map_err(&div)?;
            if na != nb {
                return Err(div(format!(
                    "step {step}: follow-on dispatch diverged: {na:?} vs {nb:?}"
                )));
            }
            if let Some(n) = na {
                let pos = outstanding.partition_point(|o| o.done_at <= n.done_at);
                outstanding.insert(pos, n);
            }
        }

        // Solo phases starve every tenant but one, so the others'
        // PEND_WALKS reach zero — the only state DWS steals from.
        let solo_phase = (step / 400) % 2 == 1;
        let active: Vec<u8> = (0..n_tenants as u8)
            .filter(|&t| active_mask[t as usize])
            .collect();
        burst.clear();
        for _ in 0..rng.next_below(5) {
            let t = if solo_phase {
                TenantId(active[0])
            } else {
                TenantId(active[rng.next_below(active.len() as u64) as usize])
            };
            let vpn = Vpn((u64::from(t.0) << 32) | rng.next_below(4_000));
            burst.push(WalkRequest { tenant: t, vpn });
        }
        attempts_a += burst.len() as u64;

        // The planted bug: the reference shim drops the last request of
        // every fifth step's burst. Attempt accounting on the reference
        // side breaks, which the invariant check below must catch.
        let b_take =
            if sc.plant == Plant::DropReferenceEnqueues && step % 5 == 0 && !burst.is_empty() {
                burst.len() - 1
            } else {
                burst.len()
            };
        attempts_b += burst.len() as u64;
        for (i, &req) in burst.iter().enumerate() {
            let ra = a.enqueue(req, now);
            if i >= b_take {
                continue;
            }
            let rb = b.enqueue(req, now);
            if ra != rb {
                return Err(div(format!(
                    "step {step}: enqueue decision {i} diverged: {ra:?} vs {rb:?}"
                )));
            }
            if let Ok(Some(d)) = ra {
                let pos = outstanding.partition_point(|o| o.done_at <= d.done_at);
                outstanding.insert(pos, d);
            }
        }

        // The full ownership decomposition is only valid while walker
        // ownership has been stable since the walks queued; once a
        // repartition fires, a departing tenant's queued walks drain from
        // walkers now owned by someone else, so only the accounting subset
        // holds (the cross-implementation agreement below is unaffected).
        let check: fn(&WalkSubsystem, u64, &str) -> Result<(), String> = if repartitioned {
            invariants::check_accounting
        } else {
            invariants::check_scheduler
        };
        check(&a.ws, attempts_a, &format!("optimized step {step}")).map_err(&div)?;
        check(&b.ws, attempts_b, &format!("reference step {step}")).map_err(&div)?;
        invariants::check_views_agree(&a.ws, &b.ws, &format!("step {step}")).map_err(&div)?;
    }

    // Drain and check the terminal state conserves everything.
    while let Some(d) = outstanding.first().copied() {
        outstanding.remove(0);
        let na = a.complete(d).map_err(&div)?;
        let nb = b.complete(d).map_err(&div)?;
        if na != nb {
            return Err(div(format!("drain dispatch diverged: {na:?} vs {nb:?}")));
        }
        if let Some(n) = na {
            let pos = outstanding.partition_point(|o| o.done_at <= n.done_at);
            outstanding.insert(pos, n);
        }
    }
    invariants::check_drained(&a.ws, attempts_a, "optimized terminal").map_err(&div)?;
    invariants::check_drained(&b.ws, attempts_b, "reference terminal").map_err(&div)?;
    invariants::check_views_agree(&a.ws, &b.ws, "terminal").map_err(&div)?;

    let stats = a.ws.stats();
    Ok(OracleStats {
        steals: stats.stolen.iter().sum(),
        rejected: stats.rejected.iter().sum(),
        cancelled,
        ..OracleStats::default()
    })
}

// ---------------------------------------------------------------------------
// Oracle stages 2+3: end-to-end simulation and trace replay
// ---------------------------------------------------------------------------

/// An `io::Write` sink shared with a [`JsonlTracer`], so the trace stage
/// needs no filesystem.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn builder_for(sc: &FuzzScenario) -> SimulationBuilder {
    SimulationBuilder::new()
        .config(sc.base_config())
        .tenants(sc.tenants.iter().map(TenantSource::spec))
        .preset(sc.preset)
        .seed(sc.seed)
        .budget(RunBudget::unlimited().with_max_events(EVENT_CAP))
}

/// Runs the end-to-end simulation (stage 2) and, when it completes within
/// budget, the trace-replay self-check (stage 3): the same simulation with
/// a JSONL tracer attached must produce a bit-identical result, and the
/// per-tenant stats replayed *from the trace alone* must match the
/// simulator's own counters bit for bit.
fn simulate_and_replay(sc: &FuzzScenario) -> Result<(u64, bool), Divergence> {
    let untraced = match builder_for(sc).run() {
        Ok(r) => r,
        Err(SimError::BudgetExceeded { .. }) => return Ok((EVENT_CAP, true)),
        Err(e) => {
            return Err(Divergence {
                stage: "simulate",
                detail: format!("end-to-end run rejected: {e}"),
            })
        }
    };
    for (t, tr) in untraced.tenants.iter().enumerate() {
        if tr.completed_executions == 0 || tr.instructions == 0 {
            return Err(Divergence {
                stage: "simulate",
                detail: format!("tenant {t} retired nothing (completed_executions == 0)"),
            });
        }
    }

    let buf = SharedBuf::default();
    let traced = builder_for(sc).tracer(JsonlTracer::new(buf.clone())).run();
    let traced = match traced {
        Ok(r) => r,
        Err(e) => {
            return Err(Divergence {
                stage: "trace",
                detail: format!("traced rerun failed where untraced succeeded: {e}"),
            })
        }
    };
    if traced != untraced {
        return Err(Divergence {
            stage: "trace",
            detail: "traced result differs from untraced result".into(),
        });
    }

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).map_err(|e| Divergence {
        stage: "trace",
        detail: format!("trace is not UTF-8: {e}"),
    })?;
    let replayed = crate::timeline::parse_trace(&text)
        .and_then(|evs| crate::timeline::replay(&evs))
        .map_err(|e| Divergence {
            stage: "trace",
            detail: format!("trace replay failed: {e}"),
        })?;
    if let Some(detail) = crate::timeline::first_mismatch(&replayed, &untraced) {
        return Err(Divergence {
            stage: "trace",
            detail,
        });
    }
    Ok((untraced.events, false))
}

// ---------------------------------------------------------------------------
// Oracle stage 4: fault-injection equivalence
// ---------------------------------------------------------------------------

/// Runs the scenario's config through the parallel engine twice — once
/// clean, once under the scenario's fault schedule — and requires the two
/// result stores to be byte-identical (injected faults fire only on a
/// job's first attempt; the bounded retry must fully recover). Jobs run the
/// tenants' *labeling* apps (the `Job` plumbing is `AppId`-based), so this
/// stage exercises fault isolation on the scenario's hardware config.
fn fault_equivalence(sc: &FuzzScenario, cfg: &GpuConfig) -> Result<usize, Divergence> {
    let Some(spec_text) = &sc.faults else {
        return Ok(0);
    };
    let apps: Vec<AppId> = sc.tenants.iter().map(TenantSource::app).collect();
    let jobs: Vec<Job> = (0..3)
        .map(|k| Job {
            key: ExpKey::custom_mix(&format!("fuzz-{k}"), &apps, "fuzz", sc.seed ^ k),
            cfg: cfg.clone(),
            apps: apps.clone(),
            seed: sc.seed ^ k,
            scenario: None,
        })
        .collect();
    let opts_clean = RunOptions {
        verbose: false,
        budget: RunBudget::unlimited().with_max_events(EVENT_CAP),
        faults: Vec::new(),
    };
    let mut spec = FaultSpec::parse(spec_text).map_err(|e| Divergence {
        stage: "faults",
        detail: e,
    })?;
    let opts_faulted = RunOptions {
        faults: spec.take_plan(jobs.len()),
        ..opts_clean.clone()
    };

    let mut clean = Store::in_memory();
    run_jobs(&mut clean, &jobs, 1, &opts_clean);
    let mut faulted = Store::in_memory();
    run_jobs(&mut faulted, &jobs, 1, &opts_faulted);

    for job in &jobs {
        let c = clean.lookup(&job.key).map(|r| r.to_json().dump());
        let f = faulted.lookup(&job.key).map(|r| r.to_json().dump());
        if c != f {
            return Err(Divergence {
                stage: "faults",
                detail: format!(
                    "{}: faulted result differs from clean (present: clean={} faulted={})",
                    job.key,
                    c.is_some(),
                    f.is_some()
                ),
            });
        }
    }
    Ok(jobs.len())
}

/// Runs one scenario through the full oracle stack. `Ok` carries the
/// non-vacuousness stats; `Err` carries the first divergence.
///
/// # Errors
///
/// Returns the first [`Divergence`] any oracle stage detects.
pub fn run_oracles(sc: &FuzzScenario) -> Result<OracleStats, Divergence> {
    let cfg = sc.config().map_err(|e| Divergence {
        stage: "config",
        detail: format!("scenario configuration rejected: {e}"),
    })?;
    let mut stats = lockstep(sc, &cfg)?;
    let (events, truncated) = simulate_and_replay(sc)?;
    stats.sim_events = events;
    stats.truncated = truncated;
    stats.fault_jobs = fault_equivalence(sc, &cfg)?;
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// One round of shrink candidates, most aggressive first. Every candidate
/// is structurally valid by construction (tenant/walker divisibility,
/// repartition masks re-fitted).
fn candidates(sc: &FuzzScenario) -> Vec<FuzzScenario> {
    let mut out = Vec::new();

    // Drop whole tenants (keep at least two — this is a multi-tenancy
    // simulator; the interesting bugs need a neighbor).
    if sc.tenants.len() > 2 {
        for drop in 0..sc.tenants.len() {
            let mut c = sc.clone();
            c.tenants.remove(drop);
            let n = c.tenants.len();
            c.walkers = (c.walkers - c.walkers % n).max(n);
            c.repartition.retain_mut(|e| {
                e.active.remove(drop);
                e.active.iter().any(|&b| b)
            });
            // The dropped tenant's arrivals/departures go with it; the
            // survivors' events shift down one index.
            c.churn.retain(|e| e.tenant != drop);
            for e in &mut c.churn {
                if e.tenant > drop {
                    e.tenant -= 1;
                }
            }
            // Removing a tenant can leave a timeline that departs every
            // survivor — such a candidate cannot run.
            if check_timeline(n, &c.repartition, &c.churn).is_ok() {
                out.push(c);
            }
        }
    }

    // Shorten the run. (Truncating the schedules keeps a prefix of each
    // tenant's arrive/depart alternation, so the timeline stays coherent.)
    if sc.steps > 25 {
        let mut c = sc.clone();
        c.steps /= 2;
        c.repartition.retain(|e| e.step < c.steps);
        c.churn.retain(|e| e.step < c.steps);
        out.push(c);
    }

    // Drop schedule entries and the fault schedule.
    for drop in 0..sc.repartition.len() {
        let mut c = sc.clone();
        c.repartition.remove(drop);
        out.push(c);
    }
    for drop in 0..sc.churn.len() {
        let mut c = sc.clone();
        c.churn.remove(drop);
        // Dropping one event can break the alternation in a way that
        // departs everyone (e.g. losing the re-arrival between two
        // departures); skip candidates that cannot run.
        if check_timeline(c.tenants.len(), &c.repartition, &c.churn).is_ok() {
            out.push(c);
        }
    }
    if sc.faults.is_some() {
        let mut c = sc.clone();
        c.faults = None;
        out.push(c);
    }

    // Simplify tenants: calibrated instead of synthetic, then halved
    // footprints and disabled storms.
    for (i, t) in sc.tenants.iter().enumerate() {
        if let TenantSource::Synthetic(p) = t {
            let mut c = sc.clone();
            c.tenants[i] = TenantSource::App(p.id);
            out.push(c);

            let mut shrunk = *p;
            shrunk.cold_pages = (shrunk.cold_pages / 2).max(1);
            shrunk.warm_pages /= 2;
            shrunk.hot_pages = (shrunk.hot_pages / 2).max(1);
            if shrunk != *p {
                let mut c = sc.clone();
                c.tenants[i] = TenantSource::Synthetic(shrunk);
                out.push(c);
            }
            if p.storm_every_ops > 0 {
                let mut calm = *p;
                calm.storm_every_ops = 0;
                calm.storm_ops = 0;
                calm.storm_cold_prob = 0.0;
                let mut c = sc.clone();
                c.tenants[i] = TenantSource::Synthetic(calm);
                out.push(c);
            }
        }
    }

    // Simplify the hardware, one knob at a time.
    let n = sc.tenants.len();
    let (want_walkers, want_queue, want_tlb, want_sms, want_warps, want_instr) =
        (n, n * 4, 512, 1, 2, 150);
    if sc.walkers > want_walkers {
        let mut c = sc.clone();
        c.walkers = want_walkers;
        c.queue_entries = c.queue_entries.min(want_walkers * 24).max(want_walkers * 4);
        out.push(c);
    }
    if sc.queue_entries > want_queue && want_queue >= sc.walkers {
        let mut c = sc.clone();
        c.queue_entries = want_queue;
        out.push(c);
    }
    if sc.l2_tlb_entries > want_tlb {
        let mut c = sc.clone();
        c.l2_tlb_entries = want_tlb;
        out.push(c);
    }
    if sc.sms_per_tenant > want_sms {
        let mut c = sc.clone();
        c.sms_per_tenant = want_sms;
        out.push(c);
    }
    if sc.warps_per_sm > want_warps {
        let mut c = sc.clone();
        c.warps_per_sm = want_warps;
        out.push(c);
    }
    if sc.instructions_per_warp > want_instr {
        let mut c = sc.clone();
        c.instructions_per_warp = want_instr;
        out.push(c);
    }

    out
}

/// Delta-debugging shrink: starting from a scenario known to fail, greedily
/// applies the first simplification that still fails, restarting the pass
/// after every success, until a fixpoint or `max_evals` oracle runs.
/// Returns the minimal failing scenario, its divergence, and the number of
/// oracle evaluations spent.
///
/// # Panics
///
/// Panics if `sc` does not fail the oracle (shrinking a passing scenario is
/// a caller bug).
#[must_use]
pub fn shrink(sc: &FuzzScenario, max_evals: usize) -> (FuzzScenario, Divergence, usize) {
    let mut best = sc.clone();
    let mut divergence = match run_oracles(&best) {
        Err(d) => d,
        Ok(_) => panic!("shrink called on a scenario that passes the oracle"),
    };
    let mut evals = 1usize;
    'passes: loop {
        for mut cand in candidates(&best) {
            if evals >= max_evals {
                break 'passes;
            }
            cand.label = best.label.clone();
            evals += 1;
            if let Err(d) = run_oracles(&cand) {
                best = cand;
                divergence = d;
                continue 'passes; // restart candidate generation from the smaller scenario
            }
        }
        break;
    }
    best.label = format!("{}-min", sc.label);
    (best, divergence, evals)
}

// ---------------------------------------------------------------------------
// Repro files and the campaign driver
// ---------------------------------------------------------------------------

/// Writes `sc` as a self-contained repro file under `dir` (created if
/// missing). Returns the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_repro(dir: &Path, sc: &FuzzScenario) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("repro-{}.json", sc.label));
    fs::write(&path, format!("{}\n", sc.to_json().pretty()))?;
    Ok(path)
}

/// Loads a scenario from a repro (or corpus) file.
///
/// # Errors
///
/// Returns a description of the I/O, JSON, or validation failure.
pub fn load_repro(path: &Path) -> Result<FuzzScenario, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    FuzzScenario::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Which preset × regime cells a campaign actually exercised (ROADMAP
/// item 5's coverage signal). A cell is one [`PolicyPreset`] crossed with
/// the scenario's dynamic regime — `"{n}T/static"`, `"{n}T/churn"`, or
/// `"{n}T/repart"` — so a clean campaign can still be flagged as vacuous
/// when whole designs or regimes were never drawn.
#[derive(Debug, Default)]
pub struct Coverage {
    cells: BTreeMap<(String, String), u64>,
}

impl Coverage {
    /// Records one scenario (clean or diverged — it ran either way).
    pub fn record(&mut self, sc: &FuzzScenario) {
        let regime = format!(
            "{}T/{}",
            sc.tenants.len(),
            if !sc.churn.is_empty() {
                "churn"
            } else if !sc.repartition.is_empty() {
                "repart"
            } else {
                "static"
            }
        );
        *self
            .cells
            .entry((sc.preset.label().to_string(), regime))
            .or_insert(0) += 1;
    }

    /// Every `(preset label, regime, scenario count)` cell hit, sorted.
    #[must_use]
    pub fn cells(&self) -> Vec<(&str, &str, u64)> {
        self.cells
            .iter()
            .map(|((p, r), &n)| (p.as_str(), r.as_str(), n))
            .collect()
    }

    /// Distinct presets exercised at least once.
    #[must_use]
    pub fn presets_hit(&self) -> usize {
        let mut seen: Vec<&str> = self.cells.keys().map(|(p, _)| p.as_str()).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Presets (by label) never drawn by this campaign.
    #[must_use]
    pub fn missing_presets(&self) -> Vec<&'static str> {
        PolicyPreset::ALL
            .iter()
            .map(|p| p.label())
            .filter(|l| !self.cells.keys().any(|(p, _)| p == l))
            .collect()
    }

    /// One-line summary for the campaign report, e.g.
    /// `coverage: 9/14 presets, 21 preset×regime cells (missing: MOSAIC, …)`.
    #[must_use]
    pub fn summary(&self) -> String {
        let missing = self.missing_presets();
        let suffix = if missing.is_empty() {
            String::new()
        } else {
            format!(" (missing: {})", missing.join(", "))
        };
        format!(
            "coverage: {}/{} presets, {} preset\u{d7}regime cells{suffix}",
            self.presets_hit(),
            PolicyPreset::ALL.len(),
            self.cells.len(),
        )
    }
}

/// Campaign configuration (`repro --fuzz …`).
pub struct CampaignOptions {
    /// Generated scenarios to run (after the corpus replays).
    pub count: usize,
    /// Campaign seed (`--fuzz-seed`; the default is 42).
    pub seed: u64,
    /// Wall-clock budget (`--fuzz-budget-ms`); `None` = run everything.
    pub budget: Option<Duration>,
    /// Regression corpus directory, replayed before generation
    /// (`results/fuzz/`; missing directory = empty corpus).
    pub corpus_dir: PathBuf,
    /// Where divergence repros are written (`results/fuzz/repros/`).
    pub repro_dir: PathBuf,
    /// Progress lines on stderr.
    pub verbose: bool,
    /// Oracle-evaluation cap for the shrinker.
    pub shrink_evals: usize,
}

impl CampaignOptions {
    /// The `repro --fuzz N` defaults: seed 42, no wall-clock budget,
    /// corpus in `results/fuzz/`, repros in `results/fuzz/repros/`.
    #[must_use]
    pub fn new(count: usize) -> Self {
        CampaignOptions {
            count,
            seed: 42,
            budget: None,
            corpus_dir: PathBuf::from("results/fuzz"),
            repro_dir: PathBuf::from("results/fuzz/repros"),
            verbose: false,
            shrink_evals: 120,
        }
    }
}

/// What a campaign did.
#[derive(Debug, Default)]
pub struct CampaignOutcome {
    /// Corpus scenarios replayed clean.
    pub corpus_replayed: usize,
    /// Generated scenarios run clean.
    pub generated: usize,
    /// The campaign stopped early on wall-clock budget.
    pub out_of_budget: bool,
    /// Lockstep steals observed across all clean scenarios (non-vacuity).
    pub total_steals: u64,
    /// The divergence, if one was found: the *shrunk* scenario, what
    /// diverged, and the repro file written for it.
    pub divergence: Option<(FuzzScenario, Divergence, PathBuf)>,
    /// Preset × regime cells exercised (corpus and generated scenarios).
    pub coverage: Coverage,
}

/// Runs a fuzz campaign: replay the corpus, then generate-and-check up to
/// `opts.count` scenarios, shrinking and serializing the first divergence.
///
/// # Errors
///
/// Returns an error string for environment failures (unreadable corpus
/// file, unwritable repro directory) — *not* for divergences, which are
/// reported in the outcome.
pub fn run_campaign(opts: &CampaignOptions) -> Result<CampaignOutcome, String> {
    let started = Instant::now();
    let out_of_budget = |started: &Instant| opts.budget.is_some_and(|b| started.elapsed() >= b);
    let mut outcome = CampaignOutcome::default();

    let diverged = |sc: &FuzzScenario, d: Divergence, outcome: &mut CampaignOutcome| {
        eprintln!("fuzz: {} DIVERGED: {d}", sc.label);
        let (min, min_div, evals) = shrink(sc, opts.shrink_evals);
        eprintln!(
            "fuzz: shrunk to {} tenants / {} steps in {evals} oracle runs: {min_div}",
            min.tenants.len(),
            min.steps
        );
        let path = write_repro(&opts.repro_dir, &min).map_err(|e| format!("writing repro: {e}"))?;
        outcome.divergence = Some((min, min_div, path));
        Ok::<(), String>(())
    };

    // Corpus regression scenarios first, in sorted-name order.
    let mut corpus: Vec<PathBuf> = fs::read_dir(&opts.corpus_dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "json"))
        .collect();
    corpus.sort();
    for path in corpus {
        let sc = load_repro(&path)?;
        if opts.verbose {
            eprintln!("fuzz: corpus {}", path.display());
        }
        outcome.coverage.record(&sc);
        match run_oracles(&sc) {
            Ok(stats) => {
                outcome.corpus_replayed += 1;
                outcome.total_steals += stats.steals;
            }
            Err(d) => {
                diverged(&sc, d, &mut outcome)?;
                return Ok(outcome);
            }
        }
        if out_of_budget(&started) {
            outcome.out_of_budget = true;
            return Ok(outcome);
        }
    }

    let gen = FuzzGen::new(opts.seed);
    for i in 0..opts.count as u64 {
        if out_of_budget(&started) {
            outcome.out_of_budget = true;
            break;
        }
        let sc = gen.scenario(i);
        if opts.verbose {
            eprintln!(
                "fuzz: {} — {} tenants, {}, {} walkers, {} steps{}{}",
                sc.label,
                sc.tenants.len(),
                sc.preset.label(),
                sc.walkers,
                sc.steps,
                if sc.repartition.is_empty() {
                    ""
                } else {
                    ", repartition"
                },
                if sc.faults.is_some() { ", faults" } else { "" },
            );
        }
        outcome.coverage.record(&sc);
        match run_oracles(&sc) {
            Ok(stats) => {
                outcome.generated += 1;
                outcome.total_steals += stats.steals;
            }
            Err(d) => {
                diverged(&sc, d, &mut outcome)?;
                return Ok(outcome);
            }
        }
    }
    Ok(outcome)
}
