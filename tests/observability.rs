//! End-to-end guarantees of the observability layer:
//!
//! * attaching tracers/metrics never perturbs simulation results — the
//!   `SimResult` JSON is byte-identical with observability on and off, and
//!   a metrics handle filled by an earlier run changes nothing either;
//! * a JSONL trace is a faithful record — replaying it reconstructs the
//!   simulator's own per-tenant statistics bit-for-bit;
//! * a static tenant list and its degenerate scenario run identically; and
//! * the CLI surface (`PolicyPreset`, `TraceFilter`) round-trips.

use walksteal::experiments::{
    first_mismatch, parse_trace, replay, scenario_from_plan, ChurnKind, ExpContext, Scale, Store,
};
use walksteal::prelude::*;

/// A small-but-nontrivial two-tenant run: page-walk-heavy GUPS against a
/// light MM, enough cycles for steals and epoch rollovers to happen.
fn builder() -> SimulationBuilder {
    SimulationBuilder::new()
        .tenants([AppId::Gups, AppId::Mm])
        .preset(PolicyPreset::Dws)
        .n_sms(4)
        .warps_per_sm(4)
        .instructions_per_warp(400)
        .seed(7)
}

/// Observability must be invisible to the simulation: the frozen
/// `SimResult` JSON with a tracer and a metrics registry attached is
/// byte-identical to a bare run, and the registry holds the run's counters.
#[test]
fn tracing_does_not_perturb_results() {
    let bare = builder().build().run().to_json().dump();
    let trace = RingTracer::unbounded();
    let metrics = SharedMetrics::new();
    let observed = builder()
        .tracer(trace.clone())
        .metrics(metrics.clone())
        .build()
        .run()
        .to_json()
        .dump();
    assert_eq!(bare, observed, "observability perturbed the simulation");
    assert!(!trace.events().is_empty(), "tracer saw nothing");
    assert!(
        metrics.counter("walks_completed", Some(0)) > 0,
        "metrics saw nothing"
    );
}

/// A JSONL trace written to disk replays to the simulator's own stats
/// bit-for-bit, and the metrics registry agrees with both.
#[test]
fn jsonl_trace_replays_to_simulator_stats() {
    let path = std::env::temp_dir().join(format!(
        "walksteal-observability-{}.jsonl",
        std::process::id()
    ));
    let metrics = SharedMetrics::new();
    let file = std::fs::File::create(&path).expect("create trace file");
    let result = builder()
        .tracer(JsonlTracer::new(std::io::BufWriter::new(file)))
        .metrics(metrics.clone())
        .build()
        .run();

    let text = std::fs::read_to_string(&path).expect("read trace back");
    std::fs::remove_file(&path).ok();
    let events = parse_trace(&text).expect("trace parses");
    let rep = replay(&events).expect("trace replays");

    assert_eq!(rep.n_tenants, 2);
    assert_eq!(first_mismatch(&rep, &result), None);
    for (t, tenant) in rep.tenants.iter().enumerate() {
        assert_eq!(
            tenant.stolen,
            metrics.counter("walks_stolen", Some(t as u8)),
            "tenant {t}: trace and metrics disagree on steals"
        );
        assert_eq!(
            tenant.completed,
            metrics.counter("walks_completed", Some(t as u8)),
            "tenant {t}: trace and metrics disagree on completions"
        );
    }
    let stolen_total: u64 = rep.tenants.iter().map(|t| t.stolen).sum();
    assert!(stolen_total > 0, "expected steals under DWS for this pair");
    assert_eq!(
        metrics.counter("steal_success", None),
        stolen_total,
        "steal_success counter diverges from the trace"
    );
}

/// The SLO controller acts on walk latencies, and the metrics registry
/// exports them, but the run never reads the registry: an SLO scenario
/// gives byte-identical results with no handle, a fresh handle, and a
/// handle already filled by an earlier run. The reused handle then holds
/// the last run's counters, not a sum over both runs.
///
/// The timeline starves one tenant, so uncapped it runs to the 200M-cycle
/// limit; the first million cycles hold 200 SLO check rounds.
#[test]
fn reused_metrics_handle_never_changes_an_slo_run() {
    let ctx = ExpContext::new(Scale::Quick, Store::in_memory());
    let plan = ChurnKind::Heavy.process().generate(1);
    let spec = scenario_from_plan(&plan, Some(ChurnKind::Heavy.slo()));
    let mut cfg = ctx.tenant_config(plan.n_tenants(), PolicyPreset::DwsPlusPlus);
    cfg.max_cycles = 1_000_000;
    let run = |metrics: Option<&SharedMetrics>| {
        let mut b = SimulationBuilder::new()
            .config(cfg.clone())
            .seed(1)
            .scenario(spec.clone());
        if let Some(m) = metrics {
            b = b.metrics(m.clone());
        }
        b.build().run()
    };

    let bare = run(None);
    let churn = bare.churn.as_ref().expect("scenario runs report churn");
    assert!(
        churn.tenants.iter().any(|t| t.slo_checks > 0),
        "the SLO controller never judged a tenant"
    );
    let bare = bare.to_json().dump();
    let fresh = SharedMetrics::new();
    assert_eq!(bare, run(Some(&fresh)).to_json().dump(), "a fresh handle");
    let reused = SharedMetrics::new();
    run(Some(&reused));
    assert_eq!(bare, run(Some(&reused)).to_json().dump(), "a reused handle");

    let mut walks = 0;
    for t in 0..plan.n_tenants() as u8 {
        let last = fresh.counter("walks_completed", Some(t));
        let reused_walks = reused.counter("walks_completed", Some(t));
        assert_eq!(reused_walks, last, "tenant {t}");
        walks += last;
    }
    assert!(walks > 0, "no walk completed");
}

/// A static tenant list is the degenerate scenario: routing the same
/// tenants through `ScenarioSpec::static_run` must reproduce the plain
/// builder run cycle-for-cycle, for every policy preset (the scenario
/// machinery adds only the churn report).
#[test]
fn static_scenario_matches_plain_builder() {
    for preset in [
        PolicyPreset::Baseline,
        PolicyPreset::StaticPartition,
        PolicyPreset::Dws,
        PolicyPreset::DwsPlusPlus,
    ] {
        let base = || {
            SimulationBuilder::new()
                .n_sms(2)
                .warps_per_sm(2)
                .instructions_per_warp(200)
                .preset(preset)
                .seed(3)
        };
        let plain = base().tenants([AppId::Gups, AppId::Sad]).build().run();
        let scenario = base()
            .scenario(ScenarioSpec::static_run([AppId::Gups, AppId::Sad]))
            .build()
            .run();
        assert!(plain.churn.is_none());
        assert!(scenario.churn.is_some());
        assert_eq!(
            plain.tenants, scenario.tenants,
            "{preset:?}: scenario path diverges from the static run"
        );
        assert_eq!(plain.cycles, scenario.cycles, "{preset:?}");
        assert_eq!(plain.events, scenario.events, "{preset:?}");
    }
}

/// Every preset's table label parses back to itself (`repro --policy` uses
/// exactly this round-trip).
#[test]
fn policy_preset_labels_round_trip() {
    for preset in PolicyPreset::ALL {
        let shown = preset.to_string();
        assert_eq!(shown.parse::<PolicyPreset>(), Ok(preset), "{shown}");
    }
    assert_eq!(
        "dws++".parse::<PolicyPreset>(),
        Ok(PolicyPreset::DwsPlusPlus)
    );
    assert!("no-such-policy".parse::<PolicyPreset>().is_err());
}

/// `--trace-filter` syntax: listed kinds are kept, others dropped, and the
/// run bracket (meta) always survives so a filtered trace still replays.
#[test]
fn trace_filter_round_trips() {
    let f: TraceFilter = "walk, steal".parse().expect("filter parses");
    assert!(f.contains(TraceKind::Walk));
    assert!(f.contains(TraceKind::Steal));
    assert!(f.contains(TraceKind::Meta), "meta must always survive");
    assert!(!f.contains(TraceKind::Pwc));
    assert!("walk,bogus".parse::<TraceFilter>().is_err());
}
