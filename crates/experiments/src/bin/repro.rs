//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--verbose] [--jobs N] [--cache DIR] [--markdown FILE]
//!       [--max-events N] [--max-cycles N] [--max-wall-ms N]
//!       [--inject-faults SPEC] [--policy NAME]
//!       [--tenants N] [--sweep AXIS] [--suite NAME] [--scenario FILE]
//!       [--trace FILE [--trace-filter KINDS] [--pair A,B]]
//!       [--fuzz N [--fuzz-seed S] [--fuzz-budget-ms T]]
//!       [--fuzz-repro FILE] [--verify-cache [N]] [EXPERIMENT ...]
//!
//! EXPERIMENT: calib fig2 fig3 tab3 doubling fig5 fig6 fig7 tab5 tab6
//!             fig8 fig9 fig10 fig11 fig12 fig13 fig14 ablation
//!             tenants tenants3 tenants4 churn_light churn_heavy
//!             arena_quick arena_full
//!             sens_walkers sens_queue sens_l2tlb sens_tenants sens_churn
//!             all (default: all)
//! ```
//!
//! `--jobs N` spreads cache-missing simulations over N worker threads
//! (default: the machine's available parallelism); the printed tables are
//! bit-identical to `--jobs 1`. The simulator's own speed is measured by
//! the separate `walkbench` package (see `walkbench/README.md`).
//!
//! # Scenario engine
//!
//! `tenants3` / `tenants4` tabulate the curated three- and four-tenant
//! workload mixes (normalized total IPC and fairness under Baseline / DWS /
//! DWS++); the generic `tenants` experiment uses the `--tenants N` count
//! (default 3). `--sweep AXIS` (repeatable) appends the matching `sens_*`
//! sensitivity table — AXIS is one of `walkers`, `queue`, `l2tlb`,
//! `tenants` — sweeping that knob at the `--tenants N` mix set (default 2;
//! ignored by `sens_tenants`, which sweeps the count itself). An invalid
//! `--tenants` count is rejected up front with a diagnostic and exit
//! code 2.
//!
//! # Churn and scenarios
//!
//! `churn_light` / `churn_heavy` tabulate fairness under dynamic tenancy:
//! seeded arrival/departure timelines (generated by
//! `walksteal_workloads::ArrivalProcess`) run under every policy preset
//! with SLO-driven admission control, reporting SLO-compliance %, weighted
//! speedup over tenant lifetimes, and eviction counts. `sens_churn` (also
//! `--sweep churn`) sweeps churn intensity — the mean arrival gap — and
//! normalizes each point to the Baseline preset. `--suite NAME` is an
//! alias for naming the experiment positionally; the suite names are
//! `churn_light`, `churn_heavy`, `sens_churn`, `arena_quick`, and
//! `arena_full` (`--suite arena_quick`).
//!
//! # Policy arena
//!
//! `arena_quick` / `arena_full` race the related-work translation designs
//! (`SE-TLB` sub-entry sharing, `MOSAIC` transparent large pages,
//! `DE-GUARD` dead-entry prediction) against Baseline / DWS / DWS++ over
//! the curated two-, three-, and four-tenant mixes, printing a gmean
//! leaderboard (see EXPERIMENTS.md "Policy arena"). `arena_quick` uses a
//! three-mix-per-count smoke field; `arena_full` races every curated mix.
//!
//! `--scenario FILE` skips the suite and runs ONE scenario described as
//! JSON (the `ScenarioSpec` wire format — see README "Scenario DSL"):
//! arrivals, departures, explicit repartitions, and per-tenant p99 SLO
//! targets. The run uses the canonical machine for the spec's tenant
//! count, `--policy` (default `dws++`), and seed 42, then prints each
//! tenant's lifetime and the run's eviction/repartition/throttle totals.
//!
//! # Observability
//!
//! `--policy NAME` restricts every policy sweep to that preset plus the
//! sweep's normalization base (names as printed in table headers, or CLI
//! aliases like `dws`, `dws++`, `stlb+ptw`; see `PolicyPreset::from_str`).
//!
//! `--trace FILE` switches to trace mode: instead of the experiment suite,
//! one two-tenant simulation runs with a JSONL tracer attached, the trace
//! is written to FILE, and a timeline reconstructed *from the trace alone*
//! is rendered (per-tenant walker-occupancy curves — the shape of Fig. 9 —
//! plus a Table-III-style interleave/steal breakdown). The replayed
//! `pw_share`, `stolen_fraction`, mean interleave and mean walk latency are
//! self-checked bit-for-bit against the simulator's own counters. `--pair
//! A,B` picks the workloads (default `GUPS,MM`), `--policy` the preset
//! (default `dws`), and `--trace-filter walk,steal,epoch` limits which
//! event kinds are recorded (kinds: `walk steal pwc pte epoch queue meta`;
//! default: all).
//!
//! # Fuzzing
//!
//! `--fuzz N` skips the experiment suite and runs a fuzz campaign instead
//! (see EXPERIMENTS.md and `walksteal_experiments::fuzz`): regression
//! scenarios under `results/fuzz/` replay first, then N seeded random
//! scenarios — synthetic tenants, random hardware sweep points, every
//! policy preset, mid-run repartitions, fault schedules — each checked by
//! the stacked differential oracle (scheduler lockstep, end-to-end run,
//! trace replay, fault equivalence). `--fuzz-seed S` picks the campaign
//! seed (default 42; scenario `i` depends only on `(S, i)`), and
//! `--fuzz-budget-ms T` bounds the campaign's wall clock. On divergence
//! the scenario is shrunk to a minimal repro, written under
//! `results/fuzz/repros/`, and the campaign exits 1; `--fuzz-repro FILE`
//! deterministically replays such a file through the same oracle stack.
//!
//! `--verify-cache [N]` (default 10) audits the on-disk result cache: a
//! seeded random sample of N cached suite results is re-simulated and
//! compared byte-for-byte; stale entries are listed and exit code 1 is
//! returned. `--fuzz-seed` doubles as the sampling seed.
//!
//! # Fault tolerance
//!
//! The engine survives failing jobs and corrupt cache files instead of
//! dying: a panicking or budget-blowing simulation is retried once and
//! otherwise recorded, corrupt cache files are quarantined and their keys
//! resimulated, and everything that went wrong is itemized in a final
//! failure summary on stderr. `--max-events` / `--max-cycles` /
//! `--max-wall-ms` bound every simulation attempt.
//! `--inject-faults panic=1,corrupt=2,budget=1,seed=7` deterministically
//! forces those failures to prove the suite survives them (tables stay
//! byte-identical to a clean run because injected faults fire only on a
//! job's first attempt).
//!
//! # Exit codes
//!
//! | code | meaning |
//! | --- | --- |
//! | 0 | clean run (quarantine-and-resimulate self-healing still counts as clean) |
//! | 1 | usage error, or an output file could not be written |
//! | 2 | >= 1 job panicked or failed (even if the retry recovered it) |
//! | 3 | >= 1 job died with a blown watchdog budget |

use std::process::ExitCode;
use std::time::Duration;

use walksteal_experiments::{
    arena, churn, fuzz, parallel, suite, sweep, ExpContext, FaultSpec, JobError, Scale, Store,
    SweepAxis, Table,
};
use walksteal_multitenant::{
    JsonlTracer, PolicyPreset, RunBudget, ScenarioSpec, SimulationBuilder, TraceFilter, TraceKind,
};
use walksteal_sim_core::Json;
use walksteal_workloads::AppId;

fn usage() -> &'static str {
    "usage: repro [--quick] [--verbose] [--jobs N] [--cache DIR] [--markdown FILE] \
     [--max-events N] [--max-cycles N] [--max-wall-ms N] [--inject-faults SPEC] \
     [--policy NAME] [--tenants N] [--sweep AXIS] [--suite NAME] \
     [--scenario FILE] [--trace FILE [--trace-filter KINDS] [--pair A,B]] \
     [--fuzz N [--fuzz-seed S] [--fuzz-budget-ms T]] [--fuzz-repro FILE] \
     [--verify-cache [N]] [EXPERIMENT ...]\n\
     experiments: calib fig2 fig3 tab3 doubling fig5 fig6 fig7 tab5 tab6 \
     fig8 fig9 fig10 fig11 fig12 fig13 fig14 ablation \
     tenants tenants3 tenants4 churn_light churn_heavy arena_quick arena_full \
     sens_walkers sens_queue sens_l2tlb sens_tenants sens_churn all\n\
     sweep axes: walkers queue l2tlb tenants churn (repeatable; appends sens_* tables)\n\
     suites: --suite NAME is an alias for naming the experiment positionally; \
     suite names: churn_light churn_heavy sens_churn arena_quick arena_full \
     (e.g. --suite arena_quick)\n\
     scenario: --scenario FILE runs one JSON scenario spec (see README) and \
     prints its fairness-under-churn report\n\
     fault spec: panic=N,budget=N,corrupt=N,seed=S (see EXPERIMENTS.md)\n\
     trace kinds: walk steal pwc pte epoch queue meta (comma-separated; default all)"
}

/// Scenario-file mode (`--scenario FILE`): parse a JSON scenario spec, run
/// it once on the canonical machine for its tenant count, and print the
/// fairness-under-churn report. Exit contract: 0 clean, 1 unreadable or
/// invalid file / unbuildable simulation.
fn run_scenario_file(scale: Scale, path: &str, policy: PolicyPreset, seed: u64) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("--scenario: failed to read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match Json::parse(&text)
        .map_err(|e| e.to_string())
        .and_then(|j| ScenarioSpec::try_from_json(&j).map_err(|e| e.to_string()))
    {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("--scenario: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let n = spec.n_tenants();
    if let Err(e) = suite::validate_tenants(scale, n) {
        eprintln!("--scenario: {path}: {n} tenant(s): {e}");
        return ExitCode::FAILURE;
    }
    let cfg = scale
        .base_config()
        .with_n_sms(scale.sms_per_tenant(n) * n)
        .with_walkers(suite::walkers_for_tenants(n))
        .for_tenants(n)
        .with_preset(policy);
    eprintln!(
        "scenario {path}: {n} tenant(s) under {} (seed {seed}, scale {})",
        policy.label(),
        scale.label(),
    );
    let sim = match SimulationBuilder::new()
        .config(cfg)
        .scenario(spec)
        .seed(seed)
        .try_build()
    {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("--scenario: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = sim.run();
    let report = result
        .churn
        .as_ref()
        .expect("scenario runs always carry a churn report");
    for (t, ch) in report.tenants.iter().enumerate() {
        let app = result.tenants[t].app.name();
        let arrived = match ch.arrived {
            Some(c) => format!("arrived @{c}"),
            None => "never arrived".to_owned(),
        };
        let departed = match (ch.departed, ch.evicted) {
            (Some(c), true) => format!(", EVICTED @{c}"),
            (Some(c), false) => format!(", departed @{c}"),
            (None, _) => ", resident at end".to_owned(),
        };
        let slo = match ch.slo_target {
            Some(p99) => format!(
                ", slo p99<={p99}: {:.1}% ({}/{} checks, {} throttled)",
                100.0 * ch.slo_compliance(),
                ch.slo_met,
                ch.slo_checks,
                ch.throttled_checks,
            ),
            None => String::new(),
        };
        println!(
            "tenant {t} ({app}): {arrived}{departed}, lifetime IPC {:.4}{slo}",
            ch.lifetime_ipc(),
        );
    }
    println!(
        "evictions {}, repartitions {}, throttles {}; run ended @ cycle {} ({} events)",
        report.evictions, report.repartitions, report.throttles, result.cycles, result.events,
    );
    ExitCode::SUCCESS
}

/// Trace mode (`--trace FILE`): run one traced pair, write the JSONL trace,
/// render the timeline reconstructed from the trace alone, and self-check
/// the replayed stats bit-for-bit against the simulator's own counters.
fn run_trace(
    scale: Scale,
    path: &str,
    filter: TraceFilter,
    pair: [AppId; 2],
    policy: PolicyPreset,
    seed: u64,
) -> ExitCode {
    let file = match std::fs::File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("failed to create {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "tracing {}.{} under {} (seed {seed}, scale {}) -> {path}",
        pair[0].name(),
        pair[1].name(),
        policy.label(),
        scale.label(),
    );
    let result = SimulationBuilder::new()
        .config(scale.base_config())
        .preset(policy)
        .tenants(pair)
        .seed(seed)
        .tracer(JsonlTracer::new(std::io::BufWriter::new(file)).with_filter(filter))
        .build()
        .run();

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to read back {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let replayed = match walksteal_experiments::parse_trace(&text)
        .and_then(|evs| walksteal_experiments::replay(&evs))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<String> = pair.iter().map(|a| a.name().to_owned()).collect();
    println!("{}", walksteal_experiments::render(&replayed, &names));
    eprintln!("wrote {path} ({} lines)", text.lines().count());

    // The walk lifecycle is what the replay reconstructs; without it the
    // timeline is empty and there is nothing to cross-check.
    if !filter.contains(TraceKind::Walk) {
        eprintln!("trace filter omits `walk`; skipping the replay self-check");
        return ExitCode::SUCCESS;
    }
    match walksteal_experiments::first_mismatch(&replayed, &result) {
        None => {
            eprintln!(
                "self-check ok: replayed pw_share/stolen_fraction/interleave/latency match bit-for-bit"
            );
            ExitCode::SUCCESS
        }
        Some(mismatch) => {
            eprintln!("self-check FAILED: {mismatch}");
            ExitCode::FAILURE
        }
    }
}

/// Fuzz-campaign mode (`--fuzz N`): replay the corpus, run N generated
/// scenarios, shrink and serialize the first divergence. Exit contract:
/// 0 clean, 1 divergence (repro path printed on stderr).
fn run_fuzz(count: usize, seed: u64, budget_ms: Option<u64>, verbose: bool) -> ExitCode {
    let mut opts = fuzz::CampaignOptions::new(count);
    opts.seed = seed;
    opts.budget = budget_ms.map(Duration::from_millis);
    opts.verbose = verbose;
    let outcome = match fuzz::run_campaign(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fuzz: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "fuzz: {} corpus + {} generated scenario(s) clean ({} lockstep steals observed){}",
        outcome.corpus_replayed,
        outcome.generated,
        outcome.total_steals,
        if outcome.out_of_budget {
            "; stopped on wall-clock budget"
        } else {
            ""
        },
    );
    eprintln!("fuzz: {}", outcome.coverage.summary());
    match outcome.divergence {
        None => ExitCode::SUCCESS,
        Some((sc, d, path)) => {
            eprintln!("fuzz: DIVERGENCE in {}: {d}", sc.label);
            eprintln!("fuzz: minimal repro written to {}", path.display());
            eprintln!("fuzz: replay with `repro --fuzz-repro {}`", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Repro-replay mode (`--fuzz-repro FILE`): run one serialized scenario
/// through the full oracle stack. Exit contract: 0 clean, 1 divergence
/// (or unreadable file).
fn run_fuzz_repro(path: &str) -> ExitCode {
    let sc = match fuzz::load_repro(std::path::Path::new(path)) {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("fuzz-repro: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "fuzz-repro: {} — {} tenants, {}, {} walkers, {} steps",
        sc.label,
        sc.tenants.len(),
        sc.preset.label(),
        sc.walkers,
        sc.steps,
    );
    match fuzz::run_oracles(&sc) {
        Ok(stats) => {
            eprintln!(
                "fuzz-repro: clean ({} steals, {} rejects, {} cancelled, {} sim events)",
                stats.steals, stats.rejected, stats.cancelled, stats.sim_events
            );
            ExitCode::SUCCESS
        }
        Err(d) => {
            eprintln!("fuzz-repro: DIVERGENCE: {d}");
            ExitCode::FAILURE
        }
    }
}

/// Cache-audit mode (`--verify-cache [N]`): re-simulate a seeded sample of
/// cached suite results and compare byte-for-byte. Exit contract: 0 all
/// sampled entries match (or cache empty), 1 stale entries found.
fn run_verify_cache(
    scale: Scale,
    scale_dir: &str,
    sample: usize,
    seed: u64,
    verbose: bool,
) -> ExitCode {
    let audit = suite::verify_cache(
        scale,
        std::path::Path::new(scale_dir),
        sample,
        seed,
        verbose,
    );
    eprintln!(
        "verify-cache [{}]: {} planned, {} cached, {} absent; checked {} -> {} stale",
        scale.label(),
        audit.planned,
        audit.cached,
        audit.absent,
        audit.checked,
        audit.stale.len(),
    );
    if audit.stale.is_empty() {
        ExitCode::SUCCESS
    } else {
        for job in &audit.stale {
            eprintln!("  STALE: {job}");
        }
        eprintln!(
            "stale entries no longer match the current simulator; delete them and re-run the suite"
        );
        ExitCode::FAILURE
    }
}

/// Prints the end-of-run failure summary (stderr, so tables on stdout stay
/// byte-identical to a clean run) and picks the process exit code.
fn summarize_failures(ctx: &ExpContext) -> ExitCode {
    let quarantined = ctx.store.quarantined();
    let failures = ctx.failures();
    if quarantined.is_empty() && failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("\n== failure summary ==");
    if !quarantined.is_empty() {
        eprintln!("quarantined cache files (resimulated):");
        for q in quarantined {
            eprintln!(
                "  {}  [{}] -> {}",
                q.job,
                q.error.kind(),
                q.moved_to
                    .as_deref()
                    .map_or_else(|| "deleted".to_string(), |p| p.display().to_string()),
            );
        }
    }
    if !failures.is_empty() {
        eprintln!("failed jobs:");
        for f in failures {
            let outcome = if f.recovered { "recovered" } else { "DEAD" };
            eprintln!(
                "  {}  attempts={} [{}] {outcome}: {}",
                f.job,
                f.attempts,
                f.error.kind(),
                f.error
            );
            if !f.recovered {
                if let JobError::Panicked {
                    backtrace: Some(bt),
                    ..
                } = &f.error
                {
                    eprintln!("    backtrace:\n{bt}");
                }
            }
        }
        eprintln!(
            "{} job failure(s): {} recovered by retry, {} dead",
            failures.len(),
            failures.iter().filter(|f| f.recovered).count(),
            failures.iter().filter(|f| !f.recovered).count(),
        );
    }
    if ctx.any_budget_death() {
        ExitCode::from(3)
    } else if failures.is_empty() {
        // Quarantine alone fully self-heals: the keys were resimulated.
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let mut scale = Scale::Paper;
    let mut cache_dir = String::from("results/cache");
    let mut verbose = false;
    let mut markdown: Option<String> = None;
    let mut jobs = parallel::default_jobs();
    let mut budget = RunBudget::unlimited();
    let mut faults: Option<FaultSpec> = None;
    let mut policy: Option<PolicyPreset> = None;
    let mut trace: Option<String> = None;
    let mut trace_filter = TraceFilter::ALL;
    let mut pair = [AppId::Gups, AppId::Mm];
    let mut tenants: Option<usize> = None;
    let mut sweeps: Vec<SweepAxis> = Vec::new();
    let mut fuzz_count: Option<usize> = None;
    let mut fuzz_seed = 42u64;
    let mut fuzz_budget_ms: Option<u64> = None;
    let mut fuzz_repro: Option<String> = None;
    let mut verify_cache: Option<usize> = None;
    let mut scenario: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--verbose" | "-v" => verbose = true,
            "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => {
                    eprintln!("--jobs needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--cache" => match args.next() {
                Some(dir) => cache_dir = dir,
                None => {
                    eprintln!("--cache needs a directory\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--markdown" => match args.next() {
                Some(f) => markdown = Some(f),
                None => {
                    eprintln!("--markdown needs a file\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--max-events" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => budget = budget.with_max_events(n),
                _ => {
                    eprintln!("--max-events needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--max-cycles" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => budget = budget.with_max_cycles(n),
                _ => {
                    eprintln!("--max-cycles needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--max-wall-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => budget = budget.with_max_wall(Duration::from_millis(n)),
                _ => {
                    eprintln!("--max-wall-ms needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--policy" => match args.next().map(|s| s.parse::<PolicyPreset>()) {
                Some(Ok(p)) => policy = Some(p),
                Some(Err(e)) => {
                    eprintln!("--policy: {e}\n{}", usage());
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--policy needs a preset name\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match args.next() {
                Some(f) => trace = Some(f),
                None => {
                    eprintln!("--trace needs a file\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--trace-filter" => match args.next().map(|s| s.parse::<TraceFilter>()) {
                Some(Ok(f)) => trace_filter = f,
                Some(Err(e)) => {
                    eprintln!("--trace-filter: {e}\n{}", usage());
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--trace-filter needs a kind list\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--pair" => {
                let apps = args.next().map(|s| {
                    s.split(',')
                        .map(|n| AppId::from_name(n.trim()))
                        .collect::<Option<Vec<_>>>()
                });
                match apps {
                    Some(Some(v)) if v.len() == 2 => pair = [v[0], v[1]],
                    _ => {
                        eprintln!("--pair needs two app names, e.g. GUPS,MM\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--tenants" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => tenants = Some(n),
                _ => {
                    eprintln!("--tenants needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--scenario" => match args.next() {
                Some(f) => scenario = Some(f),
                None => {
                    eprintln!("--scenario needs a file\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--suite" => match args.next() {
                Some(name) => wanted.push(name),
                None => {
                    eprintln!("--suite needs an experiment name\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--sweep" => match args.next().map(|s| s.parse::<SweepAxis>()) {
                Some(Ok(axis)) => sweeps.push(axis),
                Some(Err(e)) => {
                    eprintln!("--sweep: {e}\n{}", usage());
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--sweep needs an axis name\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--fuzz" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => fuzz_count = Some(n),
                None => {
                    eprintln!("--fuzz needs a scenario count\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--fuzz-seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(s) => fuzz_seed = s,
                None => {
                    eprintln!("--fuzz-seed needs an integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--fuzz-budget-ms" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => fuzz_budget_ms = Some(n),
                _ => {
                    eprintln!("--fuzz-budget-ms needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--fuzz-repro" => match args.next() {
                Some(f) => fuzz_repro = Some(f),
                None => {
                    eprintln!("--fuzz-repro needs a file\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--verify-cache" => {
                // The sample size is optional: `--verify-cache 25` or bare
                // `--verify-cache` (defaults to 10).
                verify_cache = match args.peek().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => {
                        args.next();
                        Some(n)
                    }
                    None => Some(10),
                };
            }
            "--inject-faults" => match args.next().map(|s| FaultSpec::parse(&s)) {
                Some(Ok(spec)) => faults = Some(spec),
                Some(Err(e)) => {
                    eprintln!("--inject-faults: {e}\n{}", usage());
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--inject-faults needs a spec\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
            exp => wanted.push(exp.to_owned()),
        }
    }

    if let Some(path) = trace {
        return run_trace(
            scale,
            &path,
            trace_filter,
            pair,
            policy.unwrap_or(PolicyPreset::Dws),
            42,
        );
    }

    if let Some(path) = scenario {
        return run_scenario_file(
            scale,
            &path,
            policy.unwrap_or(PolicyPreset::DwsPlusPlus),
            42,
        );
    }

    if let Some(path) = fuzz_repro {
        return run_fuzz_repro(&path);
    }
    if let Some(count) = fuzz_count {
        return run_fuzz(count, fuzz_seed, fuzz_budget_ms, verbose);
    }
    if let Some(sample) = verify_cache {
        let scale_dir = format!("{cache_dir}/{}", scale.label());
        return run_verify_cache(scale, &scale_dir, sample, fuzz_seed, verbose);
    }

    // Reject an unusable tenant count up front, before any simulation
    // starts: no curated mixes, or a count the hardware split can't honor.
    if let Some(n) = tenants {
        if let Err(e) = suite::validate_tenants(scale, n) {
            eprintln!("--tenants {n}: {e}");
            return ExitCode::from(2);
        }
    }

    for axis in &sweeps {
        wanted.push(format!("sens_{axis}"));
    }
    if wanted.is_empty() && tenants.is_some() {
        // `--tenants N` alone means "run the N-tenant scenario table".
        wanted.push("tenants".to_owned());
    }
    if wanted.is_empty() {
        wanted.push("all".to_owned());
    }

    let scale_dir = format!("{cache_dir}/{}", scale.label());
    if let Some(spec) = &mut faults {
        // Corruption faults are applied up front, against the cache the run
        // is about to read — the store must quarantine and resimulate.
        let touched = spec.corrupt_cache(std::path::Path::new(&scale_dir));
        if spec.corrupt > 0 {
            eprintln!(
                "fault: only {} cache file(s) available to corrupt ({} requested)",
                touched.len(),
                touched.len() + spec.corrupt
            );
        }
    }

    let store = Store::on_disk(&scale_dir);
    let mut ctx = ExpContext::new(scale, store);
    ctx.verbose = verbose;
    ctx.jobs = jobs;
    ctx.budget = budget;
    ctx.faults = faults;
    ctx.policy = policy;

    let mut tables: Vec<Table> = Vec::new();
    for exp in &wanted {
        let start = std::time::Instant::now();
        match exp.as_str() {
            "all" => tables.extend(ctx.run(suite::all)),
            "calib" => tables.push(ctx.run(suite::calibration)),
            "fig2" => tables.push(ctx.run(suite::fig2)),
            "fig3" => tables.push(ctx.run(suite::fig3)),
            "tab3" => tables.push(ctx.run(suite::tab3)),
            "doubling" => tables.push(ctx.run(suite::doubling)),
            "fig5" => tables.push(ctx.run(suite::fig5)),
            "fig6" => tables.push(ctx.run(suite::fig6)),
            "fig7" => tables.push(ctx.run(suite::fig7)),
            "tab5" => tables.push(ctx.run(suite::tab5)),
            "tab6" => tables.push(ctx.run(suite::tab6)),
            "fig8" => tables.push(ctx.run(suite::fig8)),
            "fig9" => tables.push(ctx.run(suite::fig9)),
            "fig10" => tables.extend(ctx.run(suite::fig10)),
            "fig11" => tables.push(ctx.run(suite::fig11)),
            "fig12" => tables.push(ctx.run(suite::fig12)),
            "fig13" => tables.push(ctx.run(suite::fig13)),
            "fig14" => tables.push(ctx.run(suite::fig14)),
            "ablation" => tables.push(ctx.run(suite::ablation_pend_check)),
            "tenants" => {
                let n = tenants.unwrap_or(3);
                if let Err(e) = suite::validate_tenants(scale, n) {
                    eprintln!("tenants: {e}");
                    return ExitCode::from(2);
                }
                tables.push(ctx.run(|c| suite::tenants_n(c, n)));
            }
            "tenants3" => tables.push(ctx.run(suite::tenants3)),
            "tenants4" => tables.push(ctx.run(suite::tenants4)),
            "churn_light" => tables.push(ctx.run(churn::churn_light)),
            "churn_heavy" => tables.push(ctx.run(churn::churn_heavy)),
            "arena_quick" => tables.push(ctx.run(arena::arena_quick)),
            "arena_full" => tables.push(ctx.run(arena::arena_full)),
            other => match other.strip_prefix("sens_").map(str::parse::<SweepAxis>) {
                Some(Ok(axis)) => {
                    let n = tenants.unwrap_or(2);
                    tables.push(ctx.run(|c| sweep::sens(c, axis, n)));
                }
                _ => {
                    eprintln!("unknown experiment {other}\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
        }
        if verbose {
            eprintln!(
                "[{exp}] done in {:.1?} (sims run: {})",
                start.elapsed(),
                ctx.store.misses()
            );
        }
    }

    for t in &tables {
        println!("{t}");
    }
    if let Some(path) = markdown {
        let md: String = tables
            .iter()
            .map(Table::to_markdown)
            .collect::<Vec<_>>()
            .join("\n");
        if let Err(e) = std::fs::write(&path, md) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    summarize_failures(&ctx)
}
