//! One function per paper table/figure. See the crate docs for the index.

use std::collections::HashSet;

use walksteal_multitenant::{
    fairness, weighted_ipc, ChurnReport, GpuConfig, PolicyPreset, RunBudget, ScenarioSpec,
    SimResult, TenantChurn, TenantResult,
};
use walksteal_sim_core::gmean;
use walksteal_vm::PageSize;
use walksteal_workloads::{
    mixes_for, named_pairs, paper_mixes3, paper_mixes4, paper_pairs, AppId, MpmiClass, WorkloadMix,
    WorkloadPair,
};

use crate::fault::FaultSpec;
use crate::key::ExpKey;
use crate::parallel::{self, Job, JobFailure, RunOptions};
use crate::report::Table;
use crate::scale::Scale;
use crate::store::Store;

/// Workload classes in presentation order.
pub const CLASSES: [&str; 6] = ["LL", "ML", "MM", "HL", "HM", "HH"];

/// The virtual-memory-sensitive classes (the paper's "32 of 45").
pub const VM_SENSITIVE: [&str; 3] = ["HL", "HM", "HH"];

/// Shared state for running experiments: the scale, the result cache, the
/// base random seed, and the degree of parallelism.
pub struct ExpContext {
    /// Simulation scale.
    pub scale: Scale,
    /// Result cache.
    pub store: Store,
    /// Base seed for workload randomness.
    pub seed: u64,
    /// When true, prints a progress line per fresh simulation.
    pub verbose: bool,
    /// Worker threads in the pool that runs the jobs of an
    /// [`ExpContext::run`] plan (1 = a pool of one thread). A request made
    /// outside `run` is a single job and uses one.
    pub jobs: usize,
    /// Watchdog budget applied to every simulation attempt (unlimited by
    /// default).
    pub budget: RunBudget,
    /// Deterministic fault injection (`repro --inject-faults`); counters
    /// are consumed as faults fire.
    pub faults: Option<FaultSpec>,
    /// When set (`repro --policy`), policy sweeps are restricted to this
    /// preset plus each sweep's first preset (kept as the normalization
    /// base). Fixed-policy tables (e.g. Table III) are unaffected.
    pub policy: Option<PolicyPreset>,
    /// Every job failure recorded so far (recovered and dead).
    failures: Vec<JobFailure>,
    /// Keys whose job died (failed both attempts): answered with a
    /// placeholder instead of being re-simulated, so one dead cell cannot
    /// take down the suite or later experiments that share the key.
    dead: HashSet<ExpKey>,
    /// `Some` while a plan pass is collecting jobs (see [`ExpContext::run`]).
    plan: Option<Plan>,
}

/// Jobs collected during a plan pass.
#[derive(Default)]
struct Plan {
    seen: HashSet<ExpKey>,
    jobs: Vec<Job>,
}

/// What [`ExpContext`] answers during a plan pass, and for a dead job:
/// structurally valid (one tenant per app, strictly positive rates so every
/// downstream metric is well-defined, and a churn report with every tenant
/// resident for the whole 1-cycle run, which churn tables read and static
/// tables ignore) but never observed in a clean run — the replay pass
/// recomputes every table from real results.
fn placeholder(apps: &[AppId]) -> SimResult {
    SimResult {
        tenants: apps
            .iter()
            .map(|&app| TenantResult {
                app,
                ipc: 1.0,
                instructions: 1,
                completed_executions: 1,
                mpmi: 1.0,
                l2_tlb_misses: 0,
                mean_walk_latency: 1.0,
                mean_interleave: 0.0,
                stolen_fraction: 0.0,
                pw_share: 0.5,
                tlb_share: 0.5,
            })
            .collect(),
        cycles: 1,
        events: 0,
        timeline: Vec::new(),
        churn: Some(ChurnReport {
            tenants: apps
                .iter()
                .map(|_| TenantChurn {
                    arrived: Some(0),
                    departed: None,
                    evicted: false,
                    slo_target: None,
                    slo_checks: 0,
                    slo_met: 0,
                    throttled_checks: 0,
                    cancelled_walks: 0,
                    lifetime_instructions: 1,
                    lifetime_cycles: 1,
                })
                .collect(),
            evictions: 0,
            repartitions: 0,
            throttles: 0,
        }),
    }
}

impl ExpContext {
    /// Creates a context with one worker.
    #[must_use]
    pub fn new(scale: Scale, store: Store) -> Self {
        ExpContext {
            scale,
            store,
            seed: 42,
            verbose: false,
            jobs: 1,
            budget: RunBudget::unlimited(),
            faults: None,
            policy: None,
            failures: Vec::new(),
            dead: HashSet::new(),
            plan: None,
        }
    }

    /// Every job failure recorded so far (recovered and dead), in the order
    /// the engine observed them.
    #[must_use]
    pub fn failures(&self) -> &[JobFailure] {
        &self.failures
    }

    /// Whether any job died (failed both attempts) with a blown budget.
    #[must_use]
    pub fn any_budget_death(&self) -> bool {
        self.failures
            .iter()
            .any(|f| !f.recovered && matches!(f.error, parallel::JobError::Budget(_)))
    }

    /// Runs `f` on the pool of [`jobs`](Self::jobs) workers.
    ///
    /// `f` is first replayed in *plan* mode — every cache-missing
    /// simulation is recorded as a [`Job`] and answered with a placeholder
    /// — the collected jobs run on the pool (see [`parallel::run_jobs`]),
    /// and `f` runs once more against the now-warm cache. Everything `f`
    /// returns comes from that second pass, so the output is bit-identical
    /// whatever the worker count. `f` must request the same simulations on
    /// both passes; it can read the placeholder results, just not branch
    /// the *job set* on them (no experiment does — the evaluation matrix is
    /// fixed up front).
    ///
    /// Job failures survive the pass: a failing job is retried once, a job
    /// dead after the retry is recorded in [`failures`](Self::failures) and
    /// its key answered with a placeholder on the replay, so the suite
    /// completes with the failures itemized instead of dying. An experiment
    /// function called outside `run` gets the same budget, fault plan and
    /// failure handling, one job at a time.
    pub fn run<T>(&mut self, f: impl Fn(&mut ExpContext) -> T) -> T {
        self.plan = Some(Plan::default());
        let _ = f(self);
        let plan = self.plan.take().expect("plan mode set above");
        self.execute(&plan.jobs);
        f(self)
    }

    /// Runs `jobs` on the pool under the context's budget and fault plan,
    /// and records their failures.
    fn execute(&mut self, jobs: &[Job]) {
        // A fully cached plan has nothing to execute: answer it from the
        // store without touching the pool or the fault plan.
        if jobs.is_empty() {
            return;
        }
        let opts = RunOptions {
            verbose: self.verbose,
            budget: self.budget,
            faults: self
                .faults
                .as_mut()
                .map(|s| s.take_plan(jobs.len()))
                .unwrap_or_default(),
        };
        let report = parallel::run_jobs(&mut self.store, jobs, self.jobs, &opts);
        for failure in report.failures {
            if !failure.recovered {
                self.dead.insert(failure.key.clone());
            }
            self.failures.push(failure);
        }
    }

    /// Answers one simulation request: with the placeholder for a dead
    /// job, from the store, by recording the job during a plan pass, or
    /// else by running it on the pool as a one-job slice.
    fn request(&mut self, job: Job) -> SimResult {
        if self.dead.contains(&job.key) {
            // The job failed both attempts; a placeholder keeps the table
            // well-formed (the failure summary marks the affected rows).
            return placeholder(&job.apps);
        }
        if let Some(r) = self.store.lookup(&job.key) {
            return r;
        }
        if let Some(plan) = &mut self.plan {
            let r = placeholder(&job.apps);
            if plan.seen.insert(job.key.clone()) {
                plan.jobs.push(job);
            }
            return r;
        }
        self.execute(std::slice::from_ref(&job));
        self.store
            .lookup(&job.key)
            .unwrap_or_else(|| placeholder(&job.apps))
    }

    /// A static-tenant-list job for `apps` under `cfg`, at the base seed.
    fn job(&self, key: ExpKey, cfg: GpuConfig, apps: &[AppId]) -> Job {
        Job {
            key,
            cfg,
            apps: apps.to_vec(),
            seed: self.seed,
            scenario: None,
        }
    }

    /// Runs (or recalls) a churn scenario under `cfg`. The key's apps must
    /// list the scenario's arrivals in arrival order. `seed` is explicit
    /// (rather than `self.seed`) because churn rows sweep the plan seed,
    /// and the simulation seed must match the plan that generated the
    /// timeline.
    pub fn scenario_run(
        &mut self,
        key: ExpKey,
        cfg: GpuConfig,
        spec: &ScenarioSpec,
        seed: u64,
    ) -> SimResult {
        self.request(Job {
            apps: key.apps(),
            key,
            cfg,
            seed,
            scenario: Some(spec.clone()),
        })
    }

    /// Runs (or recalls) `pair` under `preset` at this scale.
    pub fn pair(&mut self, preset: PolicyPreset, pair: WorkloadPair) -> SimResult {
        let cfg = self.scale.base_config().for_tenants(2).with_preset(preset);
        let key = ExpKey::pair(preset, pair, self.scale.label(), self.seed);
        self.request(self.job(key, cfg, &pair.apps()))
    }

    /// Runs `pair` under a custom configuration (`label` must uniquely
    /// describe the tweaks relative to [`ExpContext::pair`]).
    pub fn pair_with(&mut self, label: &str, cfg: GpuConfig, pair: WorkloadPair) -> SimResult {
        let key = ExpKey::custom(label, pair, self.scale.label(), self.seed);
        self.request(self.job(key, cfg, &pair.apps()))
    }

    /// Stand-alone run of `app` on the baseline, with the SM share it would
    /// get among `share_of` tenants and the whole memory system to itself
    /// (§IV's IPC^SA).
    ///
    /// The stand-alone execution budget is tripled: a co-running tenant's
    /// IPC is averaged over many (warm) relaunched executions, so the solo
    /// reference must amortize its one-time compulsory misses the same way
    /// or slowdowns come out below 1.
    pub fn standalone(&mut self, app: AppId, share_of: usize) -> SimResult {
        let sms = self.scale.sms_per_tenant(share_of);
        let base = self.scale.base_config();
        let budget = base.instructions_per_warp * 3;
        let cfg = base
            .with_n_sms(sms)
            .with_instructions_per_warp(budget)
            .for_tenants(1)
            .with_preset(PolicyPreset::Baseline);
        let key = ExpKey::solo(app, sms, self.scale.label(), self.seed);
        self.request(self.job(key, cfg, &[app]))
    }

    /// The presets a policy sweep should run: `defaults` as-is, or — when
    /// a [`policy`](Self::policy) filter is set — the sweep's first preset
    /// (the normalization base) plus the filtered policy, in sweep order.
    /// A filter naming a preset the sweep does not compare leaves just the
    /// base, so the table stays well-formed.
    #[must_use]
    pub fn presets(&self, defaults: &[PolicyPreset]) -> Vec<PolicyPreset> {
        let Some(filter) = self.policy else {
            return defaults.to_vec();
        };
        defaults
            .iter()
            .enumerate()
            .filter(|&(i, &p)| i == 0 || p == filter)
            .map(|(_, &p)| p)
            .collect()
    }

    /// Stand-alone IPCs for both constituents of `pair`.
    pub fn standalone_ipcs(&mut self, pair: WorkloadPair) -> [f64; 2] {
        [
            self.standalone(pair.a, 2).tenants[0].ipc,
            self.standalone(pair.b, 2).tenants[0].ipc,
        ]
    }

    /// Stand-alone IPC of every constituent of `apps`, each on the SM share
    /// it would get among `apps.len()` tenants — the N-tenant
    /// generalization of [`standalone_ipcs`](Self::standalone_ipcs).
    pub fn standalone_ipcs_for(&mut self, apps: &[AppId]) -> Vec<f64> {
        let n = apps.len();
        apps.iter()
            .map(|&app| self.standalone(app, n).tenants[0].ipc)
            .collect()
    }

    /// The canonical `n`-tenant scenario configuration under `preset` (the
    /// machine Fig. 13 runs): every tenant gets its even SM share, and the
    /// walker count is Table I's 16 rounded up to split evenly.
    #[must_use]
    pub fn tenant_config(&self, n: usize, preset: PolicyPreset) -> GpuConfig {
        self.scale
            .base_config()
            .with_n_sms(self.scale.sms_per_tenant(n) * n)
            .with_walkers(walkers_for_tenants(n))
            .for_tenants(n)
            .with_preset(preset)
    }

    /// Runs (or recalls) `mix` under `preset` at the canonical
    /// [`tenant_config`](Self::tenant_config). Two-tenant mixes route
    /// through [`pair`](Self::pair) (same config, same cache keys); larger
    /// mixes share their cache entries with Fig. 13.
    pub fn mix(&mut self, preset: PolicyPreset, mix: &WorkloadMix) -> SimResult {
        if let Some(pair) = mix.as_pair() {
            return self.pair(preset, pair);
        }
        let cfg = self.tenant_config(mix.n_tenants(), preset);
        let key = ExpKey::multi(preset, mix.apps(), self.scale.label(), self.seed);
        self.request(self.job(key, cfg, mix.apps()))
    }

    /// Runs `mix` under a custom configuration (`label` must uniquely
    /// describe the tweaks) — the N-tenant generalization of
    /// [`pair_with`](Self::pair_with).
    pub fn mix_with(&mut self, label: &str, cfg: GpuConfig, mix: &WorkloadMix) -> SimResult {
        let key = ExpKey::custom_mix(label, mix.apps(), self.scale.label(), self.seed);
        self.request(self.job(key, cfg, mix.apps()))
    }
}

/// Walker count for an `n`-tenant run: Table I's 16 walkers, rounded up to
/// the nearest multiple of `n` so a partitioned policy splits them evenly
/// (18 for three tenants — paper §VII.F).
#[must_use]
pub fn walkers_for_tenants(n: usize) -> usize {
    16usize.div_ceil(n) * n
}

/// Validates a CLI-requested tenant count against the scenario engine:
/// curated mixes exist for it, and the canonical configuration splits
/// cleanly under every compared preset. Errors are diagnostics for the
/// `repro --tenants` flag.
pub fn validate_tenants(scale: Scale, n: usize) -> Result<(), String> {
    if mixes_for(n).is_empty() {
        return Err(format!(
            "no curated workload mixes for {n} tenants (supported: 2, 3, 4)"
        ));
    }
    for preset in SCENARIO_PRESETS {
        scale
            .base_config()
            .with_n_sms(scale.sms_per_tenant(n) * n)
            .with_walkers(walkers_for_tenants(n))
            .try_for_tenants(n)
            .map_err(|e| e.to_string())?
            .try_with_preset(preset)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The presets every scenario-engine table compares (the paper's headline
/// trio).
pub const SCENARIO_PRESETS: [PolicyPreset; 3] = [
    PolicyPreset::Baseline,
    PolicyPreset::Dws,
    PolicyPreset::DwsPlusPlus,
];

/// Appends per-class and overall gmean summary rows to a per-pair metric
/// table. `values[pair][column]`.
fn summarize(table: &mut Table, pairs: &[WorkloadPair], values: &[Vec<f64>]) {
    let n_cols = values.first().map_or(0, Vec::len);
    for class in CLASSES {
        let rows: Vec<&Vec<f64>> = pairs
            .iter()
            .zip(values)
            .filter(|(p, _)| p.class() == class)
            .map(|(_, v)| v)
            .collect();
        if rows.is_empty() {
            continue;
        }
        let means: Vec<f64> = (0..n_cols)
            .map(|c| gmean(&rows.iter().map(|v| v[c]).collect::<Vec<_>>()))
            .collect();
        table.row(&format!("gmean {class}"), &means);
    }
    let all: Vec<f64> = (0..n_cols)
        .map(|c| gmean(&values.iter().map(|v| v[c]).collect::<Vec<_>>()))
        .collect();
    table.row("gmean ALL", &all);
    let vm: Vec<&Vec<f64>> = pairs
        .iter()
        .zip(values)
        .filter(|(p, _)| p.is_vm_sensitive())
        .map(|(_, v)| v)
        .collect();
    let vm_means: Vec<f64> = (0..n_cols)
        .map(|c| gmean(&vm.iter().map(|v| v[c]).collect::<Vec<_>>()))
        .collect();
    table.row("gmean HL+HM+HH", &vm_means);
}

/// Generic per-pair sweep: runs every paper pair under `presets` and
/// tabulates `metric(run, standalone_ipcs)` normalized (or not) per pair.
fn sweep(
    ctx: &mut ExpContext,
    title: &str,
    presets: &[PolicyPreset],
    normalize_to_first: bool,
    metric: impl Fn(&SimResult, &[f64; 2]) -> f64,
) -> Table {
    let presets = &ctx.presets(presets)[..];
    let pairs = paper_pairs();
    let columns: Vec<&str> = presets.iter().map(|p| p.label()).collect();
    let mut table = Table::new(title, &columns);
    let mut all_values = Vec::with_capacity(pairs.len());
    for &pair in &pairs {
        let sa = ctx.standalone_ipcs(pair);
        let mut vals: Vec<f64> = presets
            .iter()
            .map(|&preset| metric(&ctx.pair(preset, pair), &sa))
            .collect();
        if normalize_to_first {
            let base = vals[0];
            for v in &mut vals {
                *v /= base;
            }
        }
        table.row(&format!("{pair} [{}]", pair.class()), &vals);
        all_values.push(vals);
    }
    summarize(&mut table, &pairs, &all_values);
    table
}

/// Fig. 2: total IPC of Baseline, S-TLB, and S-(TLB+PTW), normalized to the
/// baseline.
pub fn fig2(ctx: &mut ExpContext) -> Table {
    sweep(
        ctx,
        "Fig. 2: Total IPC (normalized to Baseline)",
        &[
            PolicyPreset::Baseline,
            PolicyPreset::STlb,
            PolicyPreset::STlbPtw,
        ],
        true,
        |run, _| run.total_ipc(),
    )
}

/// Fig. 3: weighted IPC of Baseline, S-TLB, and S-(TLB+PTW) (absolute;
/// range 0..2).
pub fn fig3(ctx: &mut ExpContext) -> Table {
    sweep(
        ctx,
        "Fig. 3: Weighted IPC",
        &[
            PolicyPreset::Baseline,
            PolicyPreset::STlb,
            PolicyPreset::STlbPtw,
        ],
        false,
        |run, sa| weighted_ipc(run, sa),
    )
}

/// Table III: baseline interleaving — walks of the other tenant that one
/// tenant's walk waits for, for the named representative pairs and per-class
/// means.
pub fn tab3(ctx: &mut ExpContext) -> Table {
    let mut table = Table::new(
        "Table III: Interleaving of page walks (Baseline)",
        &["Tenant 1", "Tenant 2", "Average"],
    );
    for (class, pair) in named_pairs() {
        let r = ctx.pair(PolicyPreset::Baseline, pair);
        let t1 = r.tenants[0].mean_interleave;
        let t2 = r.tenants[1].mean_interleave;
        table.row(&format!("{class} {pair}"), &[t1, t2, (t1 + t2) / 2.0]);
    }
    // Class means over the full 45-pair set.
    for class in CLASSES {
        let mut t1s = Vec::new();
        let mut t2s = Vec::new();
        for pair in paper_pairs().into_iter().filter(|p| p.class() == class) {
            let r = ctx.pair(PolicyPreset::Baseline, pair);
            t1s.push(r.tenants[0].mean_interleave);
            t2s.push(r.tenants[1].mean_interleave);
        }
        let (m1, m2) = (
            t1s.iter().sum::<f64>() / t1s.len() as f64,
            t2s.iter().sum::<f64>() / t2s.len() as f64,
        );
        table.row(&format!("mean {class}"), &[m1, m2, (m1 + m2) / 2.0]);
    }
    table
}

/// §IV: doubled baseline resources (2048-entry TLB + 32 walkers) vs
/// S-(TLB+PTW) — interference, not capacity, is the limiter.
pub fn doubling(ctx: &mut ExpContext) -> Table {
    let mut table = Table::new(
        "SecIV: 2x resources vs S-(TLB+PTW) (total IPC normalized to Baseline)",
        &["Baseline", "Baseline-2x", "S-(TLB+PTW)"],
    );
    let pairs = paper_pairs();
    let mut all = Vec::new();
    for &pair in &pairs {
        let base = ctx.pair(PolicyPreset::Baseline, pair).total_ipc();
        let twox = ctx.pair(PolicyPreset::DoubledBaseline, pair).total_ipc();
        let ideal = ctx.pair(PolicyPreset::STlbPtw, pair).total_ipc();
        all.push(vec![1.0, twox / base, ideal / base]);
    }
    summarize(&mut table, &pairs, &all);
    table
}

/// Fig. 5: throughput (total IPC) of Baseline, DWS, and DWS++, normalized.
pub fn fig5(ctx: &mut ExpContext) -> Table {
    sweep(
        ctx,
        "Fig. 5: Throughput (total IPC, normalized to Baseline)",
        &[
            PolicyPreset::Baseline,
            PolicyPreset::Dws,
            PolicyPreset::DwsPlusPlus,
        ],
        true,
        |run, _| run.total_ipc(),
    )
}

/// Fig. 6: fairness (min slowdown / max slowdown) of Baseline, DWS, DWS++.
pub fn fig6(ctx: &mut ExpContext) -> Table {
    sweep(
        ctx,
        "Fig. 6: Fairness (higher is better)",
        &[
            PolicyPreset::Baseline,
            PolicyPreset::Dws,
            PolicyPreset::DwsPlusPlus,
        ],
        false,
        |run, sa| fairness(run, sa),
    )
}

/// Fig. 7: weighted IPC of Baseline, DWS, and DWS++.
pub fn fig7(ctx: &mut ExpContext) -> Table {
    sweep(
        ctx,
        "Fig. 7: Weighted IPC",
        &[
            PolicyPreset::Baseline,
            PolicyPreset::Dws,
            PolicyPreset::DwsPlusPlus,
        ],
        false,
        |run, sa| weighted_ipc(run, sa),
    )
}

/// Table V: interleaving under Baseline, DWS, and DWS++ for the named pairs.
pub fn tab5(ctx: &mut ExpContext) -> Table {
    let mut table = Table::new(
        "Table V: Interleaving in Baseline, DWS, and DWS++",
        &[
            "Base T1", "Base T2", "DWS T1", "DWS T2", "DWS++ T1", "DWS++ T2",
        ],
    );
    for (class, pair) in named_pairs() {
        let b = ctx.pair(PolicyPreset::Baseline, pair);
        let d = ctx.pair(PolicyPreset::Dws, pair);
        let p = ctx.pair(PolicyPreset::DwsPlusPlus, pair);
        table.row(
            &format!("{class} {pair}"),
            &[
                b.tenants[0].mean_interleave,
                b.tenants[1].mean_interleave,
                d.tenants[0].mean_interleave,
                d.tenants[1].mean_interleave,
                p.tenants[0].mean_interleave,
                p.tenants[1].mean_interleave,
            ],
        );
    }
    table
}

/// Table VI: percentage of each tenant's walks serviced by stealing.
pub fn tab6(ctx: &mut ExpContext) -> Table {
    let mut table = Table::new(
        "Table VI: % of walks serviced by stealing",
        &["DWS T1", "DWS T2", "DWS++ T1", "DWS++ T2"],
    );
    for (class, pair) in named_pairs() {
        let d = ctx.pair(PolicyPreset::Dws, pair);
        let p = ctx.pair(PolicyPreset::DwsPlusPlus, pair);
        table.row(
            &format!("{class} {pair}"),
            &[
                d.tenants[0].stolen_fraction * 100.0,
                d.tenants[1].stolen_fraction * 100.0,
                p.tenants[0].stolen_fraction * 100.0,
                p.tenants[1].stolen_fraction * 100.0,
            ],
        );
    }
    table
}

/// Fig. 8: per-class gmean of each tenant's walk latency normalized to its
/// stand-alone walk latency, under Baseline / DWS / DWS++.
pub fn fig8(ctx: &mut ExpContext) -> Table {
    let mut table = Table::new(
        "Fig. 8: Walk latency (normalized to standalone)",
        &[
            "Base T1", "Base T2", "DWS T1", "DWS T2", "DWS++ T1", "DWS++ T2",
        ],
    );
    let presets = [
        PolicyPreset::Baseline,
        PolicyPreset::Dws,
        PolicyPreset::DwsPlusPlus,
    ];
    for class in CLASSES {
        let pairs: Vec<WorkloadPair> = paper_pairs()
            .into_iter()
            .filter(|p| p.class() == class)
            .collect();
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 6];
        for &pair in &pairs {
            let sa = [
                ctx.standalone(pair.a, 2).tenants[0].mean_walk_latency,
                ctx.standalone(pair.b, 2).tenants[0].mean_walk_latency,
            ];
            for (pi, &preset) in presets.iter().enumerate() {
                let r = ctx.pair(preset, pair);
                for t in 0..2 {
                    if sa[t] > 0.0 && r.tenants[t].mean_walk_latency > 0.0 {
                        cols[pi * 2 + t].push(r.tenants[t].mean_walk_latency / sa[t]);
                    }
                }
            }
        }
        let row: Vec<f64> = cols.iter().map(|c| gmean(c)).collect();
        table.row(class, &row);
    }
    table
}

/// Fig. 9: page-walker share and TLB share per tenant, Baseline vs DWS, for
/// the paper's two representative pairs (3DS & BLK; SAD & MM).
pub fn fig9(ctx: &mut ExpContext) -> Table {
    let mut table = Table::new(
        "Fig. 9: PW share vs TLB share (Baseline -> DWS)",
        &["PW base", "PW DWS", "TLB base", "TLB DWS"],
    );
    for pair in [
        WorkloadPair::new(AppId::Blk, AppId::Tds),
        WorkloadPair::new(AppId::Sad, AppId::Mm),
    ] {
        let b = ctx.pair(PolicyPreset::Baseline, pair);
        let d = ctx.pair(PolicyPreset::Dws, pair);
        for t in 0..2 {
            let app = pair.apps()[t];
            table.row(
                &format!("{pair}:{app}"),
                &[
                    b.tenants[t].pw_share,
                    d.tenants[t].pw_share,
                    b.tenants[t].tlb_share,
                    d.tenants[t].tlb_share,
                ],
            );
        }
    }
    table
}

/// Fig. 10: the DWS++ aggressiveness knob — per-class gmean fairness (a)
/// and throughput (b) for conservative / default / aggressive parameters.
pub fn fig10(ctx: &mut ExpContext) -> Vec<Table> {
    let presets = ctx.presets(&[
        PolicyPreset::Baseline,
        PolicyPreset::Dws,
        PolicyPreset::DwsPlusPlusConservative,
        PolicyPreset::DwsPlusPlus,
        PolicyPreset::DwsPlusPlusAggressive,
    ]);
    let columns: Vec<&str> = presets.iter().map(|p| p.label()).collect();
    let mut fair_t = Table::new("Fig. 10a: Fairness by class", &columns);
    let mut thr_t = Table::new(
        "Fig. 10b: Throughput by class (normalized to Baseline)",
        &columns,
    );
    let mut all_fair: Vec<Vec<f64>> = Vec::new();
    let mut all_thr: Vec<Vec<f64>> = Vec::new();
    let pairs = paper_pairs();
    for &pair in &pairs {
        let sa = ctx.standalone_ipcs(pair);
        let runs: Vec<SimResult> = presets.iter().map(|&p| ctx.pair(p, pair)).collect();
        all_fair.push(runs.iter().map(|r| fairness(r, &sa)).collect());
        let base = runs[0].total_ipc();
        all_thr.push(runs.iter().map(|r| r.total_ipc() / base).collect());
    }
    for class in CLASSES.iter().chain(["All"].iter()) {
        let idx: Vec<usize> = pairs
            .iter()
            .enumerate()
            .filter(|(_, p)| *class == "All" || p.class() == *class)
            .map(|(i, _)| i)
            .collect();
        let fair_row: Vec<f64> = (0..presets.len())
            .map(|c| gmean(&idx.iter().map(|&i| all_fair[i][c]).collect::<Vec<_>>()))
            .collect();
        let thr_row: Vec<f64> = (0..presets.len())
            .map(|c| gmean(&idx.iter().map(|&i| all_thr[i][c]).collect::<Vec<_>>()))
            .collect();
        fair_t.row(class, &fair_row);
        thr_t.row(class, &thr_row);
    }
    vec![fair_t, thr_t]
}

/// Fig. 11: per-class throughput of Baseline, Static partitioning, MASK,
/// DWS, and MASK+DWS.
pub fn fig11(ctx: &mut ExpContext) -> Table {
    let presets = ctx.presets(&[
        PolicyPreset::Baseline,
        PolicyPreset::StaticPartition,
        PolicyPreset::Mask,
        PolicyPreset::Dws,
        PolicyPreset::MaskDws,
    ]);
    let columns: Vec<&str> = presets.iter().map(|p| p.label()).collect();
    let mut table = Table::new(
        "Fig. 11: Comparison with alternatives (total IPC, normalized)",
        &columns,
    );
    let pairs = paper_pairs();
    let mut per_pair: Vec<Vec<f64>> = Vec::new();
    for &pair in &pairs {
        let runs: Vec<f64> = presets
            .iter()
            .map(|&p| ctx.pair(p, pair).total_ipc())
            .collect();
        per_pair.push(runs.iter().map(|&v| v / runs[0]).collect());
    }
    for class in CLASSES.iter().chain(["All"].iter()) {
        let idx: Vec<usize> = pairs
            .iter()
            .enumerate()
            .filter(|(_, p)| *class == "All" || p.class() == *class)
            .map(|(i, _)| i)
            .collect();
        let row: Vec<f64> = (0..presets.len())
            .map(|c| gmean(&idx.iter().map(|&i| per_pair[i][c]).collect::<Vec<_>>()))
            .collect();
        table.row(class, &row);
    }
    table
}

/// Fig. 12: DWS's improvement over a baseline with the *same* resources,
/// sweeping the L2 TLB size and the number of walkers (named pairs).
pub fn fig12(ctx: &mut ExpContext) -> Table {
    // (label, l2 entries, walkers)
    let configs: [(&str, usize, usize); 6] = [
        ("512e", 512, 16),
        ("1024e/16w", 1024, 16),
        ("2048e", 2048, 16),
        ("12w", 1024, 12),
        ("24w", 1024, 24),
        ("2048e+24w", 2048, 24),
    ];
    let columns: Vec<&str> = configs.iter().map(|(l, _, _)| *l).collect();
    let mut table = Table::new("Fig. 12: DWS speedup vs same-resource baseline", &columns);
    let pairs: Vec<(&str, WorkloadPair)> = named_pairs();
    let mut per_pair: Vec<Vec<f64>> = Vec::new();
    for &(_, pair) in &pairs {
        let mut row = Vec::new();
        for &(label, entries, walkers) in &configs {
            let make = |preset: PolicyPreset, ctx: &mut ExpContext| {
                let cfg = ctx
                    .scale
                    .base_config()
                    .with_l2_tlb_entries(entries)
                    .with_walkers(walkers)
                    .for_tenants(2)
                    .with_preset(preset);
                ctx.pair_with(&format!("f12|{label}|{}", preset.label()), cfg, pair)
            };
            let base = make(PolicyPreset::Baseline, ctx).total_ipc();
            let dws = make(PolicyPreset::Dws, ctx).total_ipc();
            row.push(dws / base);
        }
        per_pair.push(row);
    }
    for class in CLASSES.iter().chain(["All"].iter()) {
        let idx: Vec<usize> = pairs
            .iter()
            .enumerate()
            .filter(|(_, (c, _))| *class == "All" || c == class)
            .map(|(i, _)| i)
            .collect();
        if idx.is_empty() {
            continue;
        }
        let row: Vec<f64> = (0..configs.len())
            .map(|c| gmean(&idx.iter().map(|&i| per_pair[i][c]).collect::<Vec<_>>()))
            .collect();
        table.row(class, &row);
    }
    table
}

/// The 14 three- and four-tenant combinations of Fig. 13 (the curated
/// [`paper_mixes3`] set followed by [`paper_mixes4`]).
#[must_use]
pub fn fig13_combos() -> Vec<Vec<AppId>> {
    paper_mixes3()
        .iter()
        .chain(paper_mixes4().iter())
        .map(|m| m.apps().to_vec())
        .collect()
}

/// Fig. 13: throughput with three and four tenants, normalized to baseline.
/// Walkers are adjusted to divide evenly (18 for three tenants, paper §VII.F).
pub fn fig13(ctx: &mut ExpContext) -> Table {
    let presets = ctx.presets(&SCENARIO_PRESETS);
    let columns: Vec<&str> = presets.iter().map(|p| p.label()).collect();
    let mut table = Table::new(
        "Fig. 13: Three and four tenants (total IPC, normalized)",
        &columns,
    );
    let mut all: Vec<Vec<f64>> = Vec::new();
    for mix in paper_mixes3().iter().chain(paper_mixes4().iter()) {
        let vals: Vec<f64> = presets
            .iter()
            .map(|&preset| ctx.mix(preset, mix).total_ipc())
            .collect();
        let base = vals[0];
        let row: Vec<f64> = vals.iter().map(|v| v / base).collect();
        table.row(&mix.to_string(), &row);
        all.push(row);
    }
    let g: Vec<f64> = (0..presets.len())
        .map(|c| gmean(&all.iter().map(|r| r[c]).collect::<Vec<_>>()))
        .collect();
    table.row("gmean", &g);
    table
}

/// Scenario table (`tenants3` / `tenants4`): every curated `n`-tenant mix
/// under the headline presets — total IPC normalized to Baseline plus
/// fairness against the mix's stand-alone references — with gmean rows over
/// all mixes and the VM-sensitive subset.
pub fn tenants_n(ctx: &mut ExpContext, n: usize) -> Table {
    let presets = ctx.presets(&SCENARIO_PRESETS);
    let columns: Vec<String> = presets
        .iter()
        .map(|p| format!("IPC {}", p.label()))
        .chain(presets.iter().map(|p| format!("Fair {}", p.label())))
        .collect();
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new(
        &format!("Scenario: {n} tenants (total IPC normalized to Baseline; fairness)"),
        &column_refs,
    );
    let mixes = mixes_for(n);
    let mut all: Vec<Vec<f64>> = Vec::new();
    for mix in &mixes {
        let sa = ctx.standalone_ipcs_for(mix.apps());
        let runs: Vec<SimResult> = presets.iter().map(|&p| ctx.mix(p, mix)).collect();
        let base = runs[0].total_ipc();
        let vals: Vec<f64> = runs
            .iter()
            .map(|r| r.total_ipc() / base)
            .chain(runs.iter().map(|r| fairness(r, &sa)))
            .collect();
        table.row(&format!("{mix} [{}]", mix.class()), &vals);
        all.push(vals);
    }
    let gmean_over = |rows: &[&Vec<f64>]| -> Vec<f64> {
        (0..columns.len())
            .map(|c| gmean(&rows.iter().map(|v| v[c]).collect::<Vec<_>>()))
            .collect()
    };
    table.row("gmean ALL", &gmean_over(&all.iter().collect::<Vec<_>>()));
    let vm: Vec<&Vec<f64>> = mixes
        .iter()
        .zip(&all)
        .filter(|(m, _)| m.is_vm_sensitive())
        .map(|(_, v)| v)
        .collect();
    if !vm.is_empty() {
        table.row("gmean VM-sensitive", &gmean_over(&vm));
    }
    table
}

/// The three-tenant scenario table.
pub fn tenants3(ctx: &mut ExpContext) -> Table {
    tenants_n(ctx, 3)
}

/// The four-tenant scenario table.
pub fn tenants4(ctx: &mut ExpContext) -> Table {
    tenants_n(ctx, 4)
}

/// Fig. 14: 64 KB large pages — DWS still helps.
pub fn fig14(ctx: &mut ExpContext) -> Table {
    let presets = ctx.presets(&[
        PolicyPreset::Baseline,
        PolicyPreset::Dws,
        PolicyPreset::DwsPlusPlus,
    ]);
    let columns: Vec<&str> = presets.iter().map(|p| p.label()).collect();
    let mut table = Table::new("Fig. 14: Throughput with 64KB pages (normalized)", &columns);
    let pairs: Vec<WorkloadPair> = named_pairs()
        .into_iter()
        .filter(|(c, _)| VM_SENSITIVE.contains(c))
        .map(|(_, p)| p)
        .collect();
    let mut all: Vec<Vec<f64>> = Vec::new();
    for pair in pairs {
        let mut vals = Vec::new();
        for &preset in &presets {
            let cfg = ctx
                .scale
                .base_config()
                .with_page_size(PageSize::Large64K)
                .for_tenants(2)
                .with_preset(preset);
            let r = ctx.pair_with(&format!("f14|{}", preset.label()), cfg, pair);
            vals.push(r.total_ipc());
        }
        let base = vals[0];
        let row: Vec<f64> = vals.iter().map(|v| v / base).collect();
        table.row(&pair.to_string(), &row);
        all.push(row);
    }
    let g: Vec<f64> = (0..3)
        .map(|c| gmean(&all.iter().map(|r| r[c]).collect::<Vec<_>>()))
        .collect();
    table.row("gmean", &g);
    table
}

/// Ablation (DESIGN.md SS3.5b): the DWS steal-eligibility test. The paper's
/// literal `PEND_WALKS == 0` (counts in-service walks; our default) vs the
/// relaxed queued-walks-only reading. The relaxed test steals far more,
/// recovering utilization but erasing the walker/TLB share shift of Fig. 9.
pub fn ablation_pend_check(ctx: &mut ExpContext) -> Table {
    let mut table = Table::new(
        "Ablation: strict vs relaxed DWS steal test",
        &[
            "thr strict",
            "thr relaxed",
            "steal% strict",
            "steal% relaxed",
            "T1 pw strict",
            "T1 pw relaxed",
        ],
    );
    for (class, pair) in named_pairs() {
        if !VM_SENSITIVE.contains(&class) {
            continue;
        }
        let base = ctx.pair(PolicyPreset::Baseline, pair).total_ipc();
        let strict = ctx.pair(PolicyPreset::Dws, pair);
        let mut cfg = ctx
            .scale
            .base_config()
            .for_tenants(2)
            .with_preset(PolicyPreset::Dws);
        cfg.walk.strict_pend_check = false;
        let relaxed = ctx.pair_with("ablate-relaxed", cfg, pair);
        let steal_pct = |r: &SimResult| {
            100.0 * r.tenants.iter().map(|t| t.stolen_fraction).sum::<f64>()
                / r.tenants.len() as f64
        };
        table.row(
            &format!("{class} {pair}"),
            &[
                strict.total_ipc() / base,
                relaxed.total_ipc() / base,
                steal_pct(&strict),
                steal_pct(&relaxed),
                strict.tenants[0].pw_share,
                relaxed.tenants[0].pw_share,
            ],
        );
    }
    table
}

/// Table II calibration: stand-alone MPMI of every modeled application,
/// with its class bounds.
pub fn calibration(ctx: &mut ExpContext) -> Table {
    let mut table = Table::new(
        "Table II calibration: standalone L2-TLB MPMI",
        &["MPMI", "band lo", "band hi"],
    );
    for app in AppId::ALL {
        let r = ctx.standalone(app, 2);
        let (lo, hi) = match app.class() {
            MpmiClass::Light => (0.0, 25.0),
            MpmiClass::Medium => (25.0, 80.0),
            MpmiClass::Heavy => (80.0, f64::INFINITY),
        };
        table.row(
            &format!("{} ({})", app, app.class()),
            &[r.tenants[0].mpmi, lo, hi],
        );
    }
    table
}

/// Every experiment, in paper order.
pub fn all(ctx: &mut ExpContext) -> Vec<Table> {
    let mut out = vec![
        calibration(ctx),
        fig2(ctx),
        fig3(ctx),
        tab3(ctx),
        doubling(ctx),
    ];
    out.push(fig5(ctx));
    out.push(fig6(ctx));
    out.push(fig7(ctx));
    out.push(tab5(ctx));
    out.push(tab6(ctx));
    out.push(fig8(ctx));
    out.push(fig9(ctx));
    out.extend(fig10(ctx));
    out.push(fig11(ctx));
    out.push(fig12(ctx));
    out.push(fig13(ctx));
    out.push(fig14(ctx));
    out.push(ablation_pend_check(ctx));
    out
}

/// Every simulation the full suite would run at `scale` with `seed`, as
/// [`Job`]s, without running any of them: a plan pass of [`all`] against an
/// empty in-memory store records each cache miss — which, with an empty
/// store, is every simulation. This is the suite's ground-truth job list
/// for cache auditing (`repro --verify-cache`).
#[must_use]
pub fn planned_jobs(scale: Scale, seed: u64) -> Vec<Job> {
    let mut ctx = ExpContext::new(scale, Store::in_memory());
    ctx.seed = seed;
    ctx.plan = Some(Plan::default());
    let _ = all(&mut ctx);
    ctx.plan.take().expect("plan mode set above").jobs
}

/// What [`verify_cache`] found.
#[derive(Debug, Default)]
pub struct CacheAudit {
    /// Simulations the full suite plans at this scale.
    pub planned: usize,
    /// Planned keys present in the cache.
    pub cached: usize,
    /// Cached entries re-simulated and compared.
    pub checked: usize,
    /// Planned keys absent from the cache (not an error: the cache may be
    /// partial).
    pub absent: usize,
    /// Cached entries whose re-simulation no longer matches byte-for-byte —
    /// stale results from an older simulator or a corrupted store.
    pub stale: Vec<ExpKey>,
}

/// Audits an on-disk result cache against the current simulator:
/// re-simulates a seeded random sample of up to `sample` cached suite
/// results at `scale` and compares each against its cached value
/// byte-for-byte (via the JSON serialization, the cache's own format).
/// `sample_seed` picks which entries are sampled — the same seed always
/// audits the same entries.
#[must_use]
pub fn verify_cache(
    scale: Scale,
    cache_dir: &std::path::Path,
    sample: usize,
    sample_seed: u64,
    verbose: bool,
) -> CacheAudit {
    let jobs = planned_jobs(scale, 42);
    let mut audit = CacheAudit {
        planned: jobs.len(),
        ..CacheAudit::default()
    };
    let mut store = Store::on_disk(cache_dir);
    audit.cached = jobs
        .iter()
        .filter(|j| store.lookup(&j.key).is_some())
        .count();

    // Fisher–Yates shuffle of the job indices, so the sample is uniform
    // and deterministic in `sample_seed`.
    let mut rng = walksteal_sim_core::SimRng::new(sample_seed).split(0xCAC4E);
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    for i in (1..order.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }

    for idx in order {
        if audit.checked >= sample {
            break;
        }
        let job = &jobs[idx];
        let Some(cached) = store.lookup(&job.key) else {
            audit.absent += 1;
            continue;
        };
        if verbose {
            eprintln!("  verify: {}", job.key);
        }
        let fresh = job.simulate();
        audit.checked += 1;
        if fresh.to_json().dump() != cached.to_json().dump() {
            audit.stale.push(job.key.clone());
        }
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ctx() -> ExpContext {
        ExpContext::new(Scale::Quick, Store::in_memory())
    }

    #[test]
    fn fig9_has_four_tenant_rows() {
        let mut ctx = quick_ctx();
        let t = fig9(&mut ctx);
        assert_eq!(t.rows.len(), 4);
        // Shares are fractions.
        for (_, vals) in &t.rows {
            for &v in vals {
                assert!((0.0..=1.0).contains(&v), "{vals:?}");
            }
        }
    }

    #[test]
    fn calibration_covers_all_apps() {
        let mut ctx = quick_ctx();
        let t = calibration(&mut ctx);
        assert_eq!(t.rows.len(), 13);
    }

    #[test]
    fn fig13_combos_are_three_or_four_tenants() {
        for combo in fig13_combos() {
            assert!(combo.len() == 3 || combo.len() == 4);
        }
        assert_eq!(fig13_combos().len(), 14);
    }

    #[test]
    fn walkers_round_up_to_tenant_multiples() {
        assert_eq!(walkers_for_tenants(2), 16);
        assert_eq!(walkers_for_tenants(3), 18);
        assert_eq!(walkers_for_tenants(4), 16);
        assert_eq!(walkers_for_tenants(5), 20);
    }

    #[test]
    fn two_tenant_mix_aliases_the_pair_path() {
        // The canonical 2-tenant scenario config is exactly the pair config,
        // so mixes route through the pair cache keys.
        let mut ctx = quick_ctx();
        assert_eq!(
            ctx.tenant_config(2, PolicyPreset::Dws),
            ctx.scale
                .base_config()
                .for_tenants(2)
                .with_preset(PolicyPreset::Dws)
        );
        let pair = WorkloadPair::new(AppId::Gups, AppId::Mm);
        let via_pair = ctx.pair(PolicyPreset::Dws, pair);
        let misses = ctx.store.misses();
        let via_mix = ctx.mix(PolicyPreset::Dws, &WorkloadMix::from(pair));
        assert_eq!(via_pair, via_mix);
        assert_eq!(ctx.store.misses(), misses, "mix must reuse the pair entry");
    }

    #[test]
    fn mix_shares_cache_entries_with_fig13() {
        let mut ctx = quick_ctx();
        let mix = paper_mixes3().remove(0);
        let first = ctx.mix(PolicyPreset::Dws, &mix);
        let misses = ctx.store.misses();
        let again = ctx.mix(PolicyPreset::Dws, &mix);
        assert_eq!(first, again);
        assert_eq!(ctx.store.misses(), misses);
        assert_eq!(first.tenants.len(), 3);
    }

    #[test]
    fn tenants3_table_normalizes_to_baseline() {
        let mut ctx = quick_ctx();
        let t = tenants_n(&mut ctx, 3);
        // 7 mixes + gmean ALL + gmean VM-sensitive.
        assert_eq!(t.rows.len(), 9);
        let (label, vals) = &t.rows[7];
        assert_eq!(label, "gmean ALL");
        assert!((vals[0] - 1.0).abs() < 1e-12, "Baseline IPC column is 1.0");
        assert!(vals.iter().all(|v| v.is_finite() && *v > 0.0), "{vals:?}");
    }

    #[test]
    fn validate_tenants_accepts_supported_counts() {
        for n in [2, 3, 4] {
            assert_eq!(validate_tenants(Scale::Quick, n), Ok(()), "n={n}");
            assert_eq!(validate_tenants(Scale::Paper, n), Ok(()), "n={n}");
        }
        assert!(validate_tenants(Scale::Quick, 1).is_err());
        assert!(validate_tenants(Scale::Quick, 5).is_err());
    }

    #[test]
    fn parallel_run_matches_serial_exactly() {
        let mut serial = quick_ctx();
        let expected = fig9(&mut serial);
        let mut parallel = quick_ctx();
        parallel.jobs = 4;
        let got = parallel.run(fig9);
        assert_eq!(expected.to_string(), got.to_string());
        assert_eq!(serial.store.misses(), parallel.store.misses());
    }

    #[test]
    fn budget_applies_outside_run() {
        // A request made outside `run` still runs on the pool under the
        // context's budget: a blown budget kills the job, and the caller
        // gets the placeholder and an itemized failure, not a result.
        let mut ctx = quick_ctx();
        ctx.budget = RunBudget::unlimited().with_max_events(1_000);
        let pair = WorkloadPair::new(AppId::Gups, AppId::Mm);
        assert_eq!(ctx.pair(PolicyPreset::Dws, pair), placeholder(&pair.apps()));
        assert_eq!(ctx.failures().len(), 1);
        assert!(!ctx.failures()[0].recovered);
        assert!(matches!(
            ctx.failures()[0].error,
            parallel::JobError::Budget(_)
        ));
        assert!(ctx.any_budget_death());
        assert_eq!(ctx.store.misses(), 0);
    }

    #[test]
    fn fault_plan_applies_outside_run() {
        // ...and under its fault plan: the injected panic is caught, the
        // retry recovers it, and the caller gets the clean result.
        let pair = WorkloadPair::new(AppId::Gups, AppId::Mm);
        let clean = quick_ctx().pair(PolicyPreset::Dws, pair);
        let mut ctx = quick_ctx();
        ctx.faults = Some(FaultSpec::parse("panic=1").unwrap());
        assert_eq!(ctx.pair(PolicyPreset::Dws, pair), clean);
        assert_eq!(ctx.failures().len(), 1);
        assert!(ctx.failures()[0].recovered);
        assert!(matches!(
            ctx.failures()[0].error,
            parallel::JobError::Panicked { .. }
        ));
        assert!(ctx.faults.as_ref().is_some_and(FaultSpec::exhausted));
    }

    #[test]
    fn store_shares_runs_between_experiments() {
        let mut ctx = quick_ctx();
        let _ = tab5(&mut ctx);
        let misses_after_tab5 = ctx.store.misses();
        // tab6 consumes the same DWS/DWS++ runs.
        let _ = tab6(&mut ctx);
        assert_eq!(ctx.store.misses(), misses_after_tab5);
    }
}
