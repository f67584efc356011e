//! Deterministic parallel execution of independent simulation jobs, with
//! per-job failure isolation.
//!
//! The experiment suite is embarrassingly parallel — every cell of the
//! evaluation matrix is an independent simulation — but its *output* must
//! not depend on scheduling. The engine therefore splits execution from
//! aggregation:
//!
//! 1. the suite is replayed in *plan* mode to materialize the full job list
//!    up front (see [`ExpContext::run`](crate::ExpContext::run)); cells that
//!    describe the same simulation have the same [`Job::key`], so the plan
//!    holds it once,
//! 2. [`run_jobs`] simulates the jobs on a pool of scoped threads, and
//! 3. each result goes into the [`Store`] — and its disk cache — the moment
//!    it arrives, so an interrupted batch keeps every finished simulation.
//!    Every result is filed under its job's key and tables are read back by
//!    key, so the store — and every table derived from it — is
//!    bit-identical to a serial run no matter how the pool interleaved the
//!    work.
//!
//! Every simulation the engine runs takes this path: a request made outside
//! a plan pass runs as a one-job slice, and `--jobs 1` is a pool of one
//! thread. The pool is built purely on `std`: one `AtomicUsize` cursor over
//! the job slice, from which an idle worker claims the next unclaimed job,
//! and an `mpsc` channel carrying results home. Each simulation seeds its
//! own RNG from the job, so thread count and claim order cannot perturb any
//! result.
//!
//! # Failure isolation
//!
//! A failing simulation must not take the suite down with it. Every attempt
//! runs under `catch_unwind`, so a panicking job is *recorded* — the job,
//! panic message, and backtrace — while its peers keep claiming jobs.
//! After the pool finishes, each failed job gets **one bounded retry**,
//! serial and on the caller's thread; only if that also fails is the job
//! declared dead. [`RunBudget`] watchdogs bound each attempt, turning a
//! runaway simulation into a [`JobError::Budget`] with a partial-result
//! diagnostic instead of a hung suite. The deterministic fault-injection
//! harness ([`InjectedFault`]) drives exactly these paths in tests and CI.

use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Once};

use walksteal_multitenant::{
    GpuConfig, RunBudget, ScenarioSpec, SimError, SimResult, SimulationBuilder, TenantSpec,
};
use walksteal_workloads::{AppId, AppProfile};

use crate::fault::InjectedFault;
use crate::key::ExpKey;
use crate::store::Store;

/// One simulation to run: everything that decides its result, and the
/// cache key hashed from exactly that (see [`ExpKey`]). The fields are
/// private and fixed at construction, so the key cannot disagree with the
/// job.
#[derive(Debug, Clone)]
pub struct Job {
    cfg: GpuConfig,
    /// The tenants in tenant order: for a scenario job, its arrivals in
    /// arrival order.
    tenants: Vec<TenantSpec>,
    /// When set, the job is a churn run: the builder takes this scenario
    /// instead of the static tenant list.
    scenario: Option<ScenarioSpec>,
    seed: u64,
    key: ExpKey,
}

impl Job {
    /// A static co-run of `apps` (in tenant order, each with its calibrated
    /// profile) under `cfg` from `seed`.
    #[must_use]
    pub fn new(cfg: GpuConfig, apps: &[AppId], seed: u64) -> Self {
        let tenants = apps.iter().map(|&app| TenantSpec::new(app)).collect();
        Self::keyed(cfg, tenants, None, seed)
    }

    /// A churn run of `spec` under `cfg` from `seed`; the scenario's
    /// arrivals are the tenants.
    #[must_use]
    pub fn scenario(cfg: GpuConfig, spec: ScenarioSpec, seed: u64) -> Self {
        Self::keyed(cfg, spec.tenant_specs(), Some(spec), seed)
    }

    fn keyed(
        cfg: GpuConfig,
        tenants: Vec<TenantSpec>,
        scenario: Option<ScenarioSpec>,
        seed: u64,
    ) -> Self {
        let profiles: Vec<AppProfile> = tenants.iter().map(TenantSpec::profile).collect();
        let key = ExpKey::of(&cfg, &profiles, scenario.as_ref(), seed);
        Job {
            cfg,
            tenants,
            scenario,
            seed,
            key,
        }
    }

    /// The job's cache identity.
    #[must_use]
    pub fn key(&self) -> ExpKey {
        self.key
    }

    /// The tenants' applications, in tenant order.
    #[must_use]
    pub fn apps(&self) -> Vec<AppId> {
        self.tenants.iter().map(TenantSpec::app).collect()
    }

    /// Runs the simulation this job describes.
    #[must_use]
    pub fn simulate(&self) -> SimResult {
        self.builder().build().run()
    }

    /// Runs the simulation under a watchdog budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExceeded`] with a partial-result diagnostic
    /// if the run blows through `budget`.
    pub fn simulate_budgeted(&self, budget: &RunBudget) -> Result<SimResult, SimError> {
        self.builder().budget(*budget).run()
    }

    /// The builder describing this job's simulation, before observability
    /// or budgets are attached.
    #[must_use]
    pub fn builder(&self) -> SimulationBuilder {
        let builder = SimulationBuilder::new()
            .config(self.cfg.clone())
            .seed(self.seed);
        match &self.scenario {
            Some(spec) => builder.scenario(spec.clone()),
            None => builder.tenants(self.tenants.iter().copied()),
        }
    }
}

/// The key beside what a reader recognizes: the tenants' apps and the
/// seed (`4f0c19e2a7d3b865 GUPS.MM seed 42`).
impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let apps: Vec<String> = self.apps().iter().map(ToString::to_string).collect();
        write!(f, "{} {} seed {}", self.key, apps.join("."), self.seed)
    }
}

/// Why one attempt at a job failed.
#[derive(Debug, Clone)]
pub enum JobError {
    /// The simulation panicked.
    Panicked {
        /// The panic payload, rendered.
        message: String,
        /// Backtrace captured at the panic site (when available).
        backtrace: Option<String>,
    },
    /// The simulation blew through its [`RunBudget`].
    Budget(SimError),
}

impl JobError {
    /// A short label for summary tables.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Panicked { .. } => "panic",
            JobError::Budget(_) => "budget",
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked { message, .. } => write!(f, "panicked: {message}"),
            JobError::Budget(e) => write!(f, "{e}"),
        }
    }
}

/// The record of a job that failed at least once.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// The failing run.
    pub job: Job,
    /// The last attempt's error.
    pub error: JobError,
    /// Attempts made (2 = initial + the bounded retry).
    pub attempts: u32,
    /// Whether the retry produced a result (the failure was transient).
    pub recovered: bool,
}

/// What [`run_jobs`] reports back besides the merged store.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Every job that failed at least once, in canonical job order.
    pub failures: Vec<JobFailure>,
}

impl RunReport {
    /// Jobs that failed both attempts and produced no result.
    pub fn dead(&self) -> impl Iterator<Item = &JobFailure> {
        self.failures.iter().filter(|f| !f.recovered)
    }

    /// Whether any job died with a blown budget (as opposed to a panic).
    #[must_use]
    pub fn any_budget_death(&self) -> bool {
        self.dead().any(|f| matches!(f.error, JobError::Budget(_)))
    }
}

/// Execution options for [`run_jobs`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Print a progress line per simulation.
    pub verbose: bool,
    /// Watchdog budget applied to every attempt.
    pub budget: RunBudget,
    /// Injected faults, aligned with the job list (empty = none). A fault
    /// fires on the job's first attempt only, so the bounded retry recovers
    /// and the final output matches a clean run.
    pub faults: Vec<Option<InjectedFault>>,
}

/// The machine's available parallelism (the `--jobs` default).
///
/// `std::thread::available_parallelism` honours cgroup quotas and CPU
/// affinity masks; when it errors (unsupported platform, restricted
/// sandbox) we fall back to counting processors in `/proc/cpuinfo` before
/// giving up and reporting 1, so multi-core hosts are not silently
/// recorded as single-core.
#[must_use]
pub fn default_jobs() -> usize {
    match std::thread::available_parallelism() {
        Ok(n) => n.into(),
        Err(_) => cpuinfo_processors().unwrap_or(1),
    }
}

/// Counts `processor` entries in `/proc/cpuinfo` (Linux fallback).
fn cpuinfo_processors() -> Option<usize> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let n = info.lines().filter(|l| l.starts_with("processor")).count();
    (n > 0).then_some(n)
}

thread_local! {
    /// Set while this thread runs a job under `catch_unwind`, so the panic
    /// hook records instead of printing.
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    /// Backtrace captured by the hook at the most recent panic site.
    static LAST_BACKTRACE: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Installs (once, process-wide) a panic hook that captures a backtrace at
/// the panic site for threads attempting a job, and defers to the previous
/// hook everywhere else.
fn install_capture_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if CAPTURING.with(Cell::get) {
                LAST_BACKTRACE.with(|b| {
                    *b.borrow_mut() = Some(Backtrace::force_capture().to_string());
                });
            } else {
                prev(info);
            }
        }));
    });
}

/// Renders a `catch_unwind` payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One isolated attempt at `job`. `fault` (first attempts only) forces the
/// failure the harness asked for; panics are caught and returned as
/// [`JobError::Panicked`] with the site backtrace.
fn attempt(
    job: &Job,
    fault: Option<InjectedFault>,
    budget: &RunBudget,
) -> Result<SimResult, JobError> {
    install_capture_hook();
    let budget = match fault {
        // An injected budget blowout: far too few events to finish.
        Some(InjectedFault::Budget) => RunBudget::unlimited().with_max_events(1_000),
        _ => *budget,
    };
    CAPTURING.with(|c| c.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        if fault == Some(InjectedFault::Panic) {
            panic!("injected fault: forced panic for {job}");
        }
        job.simulate_budgeted(&budget)
    }));
    CAPTURING.with(|c| c.set(false));
    match outcome {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(JobError::Budget(e)),
        Err(payload) => Err(JobError::Panicked {
            message: panic_message(payload.as_ref()),
            backtrace: LAST_BACKTRACE.with(|b| b.borrow_mut().take()),
        }),
    }
}

/// Simulates `jobs` on up to `workers` threads, inserting each result into
/// `store` as it arrives and each recovered retry as it finishes.
///
/// After this returns, the store is indistinguishable from one that ran each
/// job serially in the given order: identical contents, and identical
/// miss accounting (each successful job counts one miss). A job whose both
/// attempts failed inserts nothing; it is reported in the returned
/// [`RunReport`] instead of aborting the merge.
///
/// Jobs are borrowed, not consumed: callers comparing serial and parallel
/// runs (or replaying a batch) pass the same slice twice without cloning
/// every [`GpuConfig`] in it.
pub fn run_jobs(store: &mut Store, jobs: &[Job], workers: usize, opts: &RunOptions) -> RunReport {
    debug_assert!(
        opts.faults.is_empty() || opts.faults.len() == jobs.len(),
        "fault plan must align with the job list"
    );
    let fault_of = |i: usize| opts.faults.get(i).copied().flatten();
    let mut report = RunReport::default();

    // Workers claim jobs from one shared cursor, so an idle worker always
    // takes the next unclaimed job. The cursor only hands out indices into
    // the borrowed, immutable job slice and publishes no other data, so
    // `Relaxed` suffices: `fetch_add` alone makes every claim unique.
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<SimResult, JobError>)>();
    let first_errors = std::thread::scope(|s| {
        for _ in 0..workers.max(1).min(jobs.len()) {
            let (tx, next) = (tx.clone(), &next);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else {
                    return;
                };
                let r = attempt(job, fault_of(i), &opts.budget);
                if tx.send((i, r)).is_err() {
                    return;
                }
            });
        }
        drop(tx);
        collect(store, jobs, rx, opts.verbose)
    });

    // One bounded retry per failed job: serial, on the caller's thread, and
    // never with an injected fault, so transient failures recover.
    for (i, first_error) in first_errors.into_iter().enumerate() {
        let Some(first_error) = first_error else {
            continue;
        };
        let job = &jobs[i];
        eprintln!(
            "  job failed ({}), retrying once: {job}",
            first_error.kind()
        );
        match attempt(job, None, &opts.budget) {
            Ok(r) => {
                store.insert(job, r);
                report.failures.push(JobFailure {
                    job: job.clone(),
                    error: first_error,
                    attempts: 2,
                    recovered: true,
                });
            }
            Err(second_error) => {
                eprintln!("  job dead after retry: {job} ({second_error})");
                report.failures.push(JobFailure {
                    job: job.clone(),
                    error: second_error,
                    attempts: 2,
                    recovered: false,
                });
            }
        }
    }

    report
}

/// Inserts each `(job index, outcome)` result into `store` as `rx` delivers
/// it, so the disk cache holds every finished job even if the batch is cut
/// short; returns each job's first error, for the retry pass.
fn collect(
    store: &mut Store,
    jobs: &[Job],
    rx: mpsc::Receiver<(usize, Result<SimResult, JobError>)>,
    verbose: bool,
) -> Vec<Option<JobError>> {
    let mut first_errors: Vec<Option<JobError>> = vec![None; jobs.len()];
    for (done, (i, r)) in rx.into_iter().enumerate() {
        if verbose {
            eprintln!("  sim [{}/{}]: {}", done + 1, jobs.len(), jobs[i]);
        }
        match r {
            Ok(r) => store.insert(&jobs[i], r),
            Err(e) => first_errors[i] = Some(e),
        }
    }
    first_errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use walksteal_multitenant::PolicyPreset;
    use walksteal_workloads::{AppId, WorkloadPair};

    fn tiny_jobs(n: usize) -> Vec<Job> {
        let pairs = [
            WorkloadPair::new(AppId::Gups, AppId::Mm),
            WorkloadPair::new(AppId::Jpeg, AppId::Hs),
            WorkloadPair::new(AppId::Fft, AppId::Blk),
        ];
        (0..n)
            .map(|i| {
                let pair = pairs[i % pairs.len()];
                let seed = 42 + (i / pairs.len()) as u64;
                let cfg = GpuConfig::default()
                    .with_n_sms(4)
                    .with_warps_per_sm(4)
                    .with_instructions_per_warp(300)
                    .with_preset(PolicyPreset::Dws);
                Job::new(cfg, &pair.apps(), seed)
            })
            .collect()
    }

    fn run_plain(store: &mut Store, jobs: &[Job], workers: usize) -> RunReport {
        run_jobs(store, jobs, workers, &RunOptions::default())
    }

    #[test]
    fn parallel_matches_serial_store() {
        let jobs = tiny_jobs(6);
        let mut serial = Store::in_memory();
        run_plain(&mut serial, &jobs, 1);
        let mut parallel = Store::in_memory();
        run_plain(&mut parallel, &jobs, 4);
        assert_eq!(serial.misses(), parallel.misses());
        for job in &jobs {
            let a = serial.lookup(job).expect("serial ran the job");
            let b = parallel.lookup(job).expect("parallel ran the job");
            assert_eq!(a, b, "results diverge for {job}");
        }
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let jobs = tiny_jobs(2);
        let mut store = Store::in_memory();
        let report = run_plain(&mut store, &jobs, 16);
        assert_eq!(store.misses(), 2);
        assert!(store.lookup(&jobs[0]).is_some());
        assert!(report.failures.is_empty());
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        let mut store = Store::in_memory();
        let report = run_plain(&mut store, &[], 8);
        assert_eq!(store.misses(), 0);
        assert!(report.failures.is_empty());
    }

    #[test]
    fn injected_panic_is_isolated_and_recovered() {
        let jobs = tiny_jobs(6);
        let mut faults = vec![None; 6];
        faults[2] = Some(InjectedFault::Panic);
        let opts = RunOptions {
            faults,
            ..RunOptions::default()
        };
        let mut store = Store::in_memory();
        let report = run_jobs(&mut store, &jobs, 4, &opts);
        // Every job produced a result (the faulted one via retry)...
        assert_eq!(store.misses(), 6);
        // ...and the failure is on the record, with its context.
        assert_eq!(report.failures.len(), 1);
        let f = &report.failures[0];
        assert!(f.recovered);
        assert_eq!(f.job.key(), jobs[2].key());
        assert_eq!(f.attempts, 2);
        match &f.error {
            JobError::Panicked { message, backtrace } => {
                assert!(message.contains("injected fault"), "{message}");
                assert!(backtrace.is_some(), "backtrace missing");
            }
            other => panic!("expected a panic record, got {other:?}"),
        }
        // The store matches a clean run exactly.
        let mut clean = Store::in_memory();
        run_plain(&mut clean, &jobs, 1);
        for job in &jobs {
            assert_eq!(clean.lookup(job), store.lookup(job));
        }
    }

    #[test]
    fn injected_budget_blowout_recovers_on_retry() {
        let jobs = tiny_jobs(3);
        let mut faults = vec![None; 3];
        faults[0] = Some(InjectedFault::Budget);
        let opts = RunOptions {
            faults,
            ..RunOptions::default()
        };
        let mut store = Store::in_memory();
        let report = run_jobs(&mut store, &jobs, 2, &opts);
        assert_eq!(store.misses(), 3);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].recovered);
        assert!(matches!(report.failures[0].error, JobError::Budget(_)));
        assert!(!report.any_budget_death());
    }

    /// A result reaches the disk cache when it arrives, not after the
    /// batch: with job 0 still outstanding, job 1's file is already there.
    #[test]
    fn each_result_is_cached_as_it_arrives() {
        let dir = std::env::temp_dir().join(format!("walksteal-collect-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let jobs = tiny_jobs(2);
        let result = |cycles| SimResult {
            tenants: vec![],
            cycles,
            events: 0,
            timeline: vec![],
            churn: None,
        };
        let cached = |job: &Job| Store::on_disk(&dir).lookup(job);
        let mut store = Store::on_disk(&dir);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            let collector = s.spawn(|| collect(&mut store, &jobs, rx, false));
            tx.send((1, Ok(result(11)))).unwrap();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while cached(&jobs[1]).is_none() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "job 1 never reached the disk cache"
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert!(cached(&jobs[0]).is_none(), "job 0 has not been sent");
            tx.send((0, Ok(result(10)))).unwrap();
            drop(tx);
            let errors = collector.join().unwrap();
            assert!(errors.iter().all(Option::is_none));
        });
        assert_eq!(store.misses(), 2);
        assert_eq!(cached(&jobs[0]), Some(result(10)));
        assert_eq!(cached(&jobs[1]), Some(result(11)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn real_budget_kills_the_job_but_not_the_suite() {
        let jobs = tiny_jobs(3);
        let opts = RunOptions {
            // Too few events for any of these sims: every job dies, both
            // attempts, and the suite still returns.
            budget: RunBudget::unlimited().with_max_events(100),
            ..RunOptions::default()
        };
        let mut store = Store::in_memory();
        let report = run_jobs(&mut store, &jobs, 2, &opts);
        assert_eq!(store.misses(), 0);
        assert_eq!(report.failures.len(), 3);
        assert_eq!(report.dead().count(), 3);
        assert!(report.any_budget_death());
    }
}
