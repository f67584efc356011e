//! End-to-end exercises of the scenario fuzzer: generation must be
//! deterministic in the seed, scenarios must round-trip through the repro
//! JSON format, the checked-in corpus must replay clean against the full
//! oracle stack, a planted bug must be detected / shrunk / replayable from
//! its repro file, and the cache auditor must tell fresh results from
//! stale ones.

use std::fs;
use std::path::{Path, PathBuf};

use walksteal::experiments::fuzz::{
    load_repro, run_campaign, run_oracles, shrink, write_repro, CampaignOptions, Coverage, FuzzGen,
    FuzzScenario, Plant, TenantSource,
};
use walksteal::experiments::suite::{planned_jobs, verify_cache};
use walksteal::experiments::{Scale, Store};
use walksteal::multitenant::PolicyPreset;
use walksteal::workloads::AppProfile;

/// A fresh scratch directory unique to this test process.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("walksteal-fuzz-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The checked-in regression corpus under `results/fuzz/`.
fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results/fuzz")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("results/fuzz exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn same_seed_generates_the_same_scenarios() {
    let a = FuzzGen::new(42);
    let b = FuzzGen::new(42);
    let c = FuzzGen::new(43);
    let mut any_differs = false;
    for i in 0..25 {
        let sa = a.scenario(i).to_json().dump();
        let sb = b.scenario(i).to_json().dump();
        assert_eq!(sa, sb, "scenario {i} must be deterministic in the seed");
        if sa != c.scenario(i).to_json().dump() {
            any_differs = true;
        }
    }
    assert!(
        any_differs,
        "different seeds must explore different scenarios"
    );

    // Scenario index i is independent of whether 0..i were generated first.
    let fresh = FuzzGen::new(42).scenario(17).to_json().dump();
    assert_eq!(fresh, a.scenario(17).to_json().dump());
}

#[test]
fn generated_scenarios_round_trip_through_repro_json() {
    let gen = FuzzGen::new(7);
    for i in 0..25 {
        let sc = gen.scenario(i);
        let parsed = FuzzScenario::from_json(&sc.to_json())
            .unwrap_or_else(|e| panic!("scenario {i} failed to re-parse: {e}"));
        assert_eq!(
            sc.to_json().dump(),
            parsed.to_json().dump(),
            "scenario {i} must survive a JSON round trip"
        );
        // Every generated scenario must also map to a valid configuration.
        sc.config()
            .unwrap_or_else(|e| panic!("scenario {i} has an invalid config: {e}"));
    }
}

/// The generator produces arrival/departure timelines (not just static
/// scenarios), every one of them is coherent and replays clean through the
/// oracle stack, and at least one departure actually cancels queued walks
/// — the timeline machinery is not vacuous.
#[test]
fn generated_churn_timelines_replay_clean_and_cancel() {
    let gen = FuzzGen::new(42);
    let mut with_churn = Vec::new();
    for i in 0..40 {
        let sc = gen.scenario(i);
        if !sc.churn.is_empty() {
            with_churn.push(sc);
        }
    }
    assert!(
        with_churn.len() >= 3,
        "40 draws yielded only {} churn timelines",
        with_churn.len()
    );
    let mut cancelled = 0u64;
    for sc in &with_churn {
        assert!(
            sc.churn.iter().any(|e| e.depart),
            "{}: a churn timeline without departures exercises nothing",
            sc.label
        );
        let stats =
            run_oracles(sc).unwrap_or_else(|d| panic!("churn scenario {} diverged: {d}", sc.label));
        cancelled += stats.cancelled;
    }
    assert!(
        cancelled > 0,
        "no departure across {} churn scenarios cancelled a queued walk",
        with_churn.len()
    );
}

#[test]
fn corpus_scenarios_replay_clean() {
    let files = corpus_files();
    assert!(
        files.len() >= 3,
        "the checked-in corpus should have at least 3 scenarios, found {}",
        files.len()
    );
    let mut steals = 0u64;
    for path in files {
        let sc = load_repro(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let stats = run_oracles(&sc)
            .unwrap_or_else(|d| panic!("corpus scenario {} diverged: {d}", path.display()));
        assert!(stats.sim_events > 0, "{}: simulation ran", path.display());
        assert!(
            stats.rejected > 0,
            "{}: the lockstep traffic never filled a walk queue",
            path.display()
        );
        steals += stats.steals;
    }
    assert!(steals > 0, "no corpus scenario exercised walk stealing");
}

/// Memory-shape fields postdate the repro format: old files load with the
/// production defaults, the generator actually varies the shape, invalid
/// shapes are rejected at load time (not by a panic mid-campaign), and the
/// fields survive the JSON round trip.
#[test]
fn memory_shape_fields_default_vary_and_validate() {
    let sc = load_repro(&corpus_dir().join("dwspp-repartition.json")).expect("corpus loads");
    assert_eq!(
        (sc.l2_banks, sc.dram_channels, sc.dram_occupancy),
        (16, 16, 7),
        "a repro without memory fields must get the production memory system"
    );

    let gen = FuzzGen::new(42);
    let mut shapes = std::collections::BTreeSet::new();
    for i in 0..25 {
        let sc = gen.scenario(i);
        shapes.insert((sc.l2_banks, sc.dram_channels, sc.dram_occupancy));
        let parsed = FuzzScenario::from_json(&sc.to_json())
            .unwrap_or_else(|e| panic!("scenario {i} failed to re-parse: {e}"));
        assert_eq!(
            (parsed.l2_banks, parsed.dram_channels, parsed.dram_occupancy),
            (sc.l2_banks, sc.dram_channels, sc.dram_occupancy),
            "scenario {i}: memory shape must be serialized, not defaulted"
        );
    }
    assert!(
        shapes.len() > 3,
        "25 draws explored only {} memory shapes",
        shapes.len()
    );

    let mut bad = FuzzGen::new(42).scenario(0);
    bad.l2_banks = 3;
    assert!(
        FuzzScenario::from_json(&bad.to_json()).is_err(),
        "non-power-of-two bank count must be rejected"
    );
    let mut bad = FuzzGen::new(42).scenario(0);
    bad.dram_channels = 6;
    assert!(
        FuzzScenario::from_json(&bad.to_json()).is_err(),
        "non-power-of-two channel count must be rejected"
    );
    let mut bad = FuzzGen::new(42).scenario(0);
    bad.dram_occupancy = 0;
    assert!(
        FuzzScenario::from_json(&bad.to_json()).is_err(),
        "zero DRAM occupancy must be rejected"
    );
}

/// A repro file whose machine the simulator cannot build — more warps per
/// SM than an event can index, or no SM at all — is rejected when it
/// loads, with the configuration error naming the resource.
#[test]
fn unbuildable_machines_are_rejected_on_load() {
    let sc = load_repro(&corpus_dir().join("dwspp-repartition.json")).expect("corpus loads");
    let mut wide = sc.clone();
    wide.warps_per_sm = 70_000;
    let err = FuzzScenario::from_json(&wide.to_json()).expect_err("70000 warps must not load");
    assert!(err.contains("warps per SM"), "{err}");
    let mut empty = sc;
    empty.sms_per_tenant = 0;
    let err = FuzzScenario::from_json(&empty.to_json()).expect_err("no SM must not load");
    assert!(err.contains("0 SMs"), "{err}");
}

/// A repro file whose synthetic profile the stream generator cannot run —
/// an empty hot region, or cold regions laid out past the page table's
/// reach — is rejected when it loads, not by a panic mid-replay.
#[test]
fn malformed_synthetic_profiles_are_rejected_on_load() {
    let sc = load_repro(&corpus_dir().join("static-synthetic-storms.json")).expect("corpus loads");
    let load_edited = |edit: &dyn Fn(&mut AppProfile)| {
        let mut bad = sc.clone();
        let profile = bad
            .tenants
            .iter_mut()
            .find_map(|t| match t {
                TenantSource::Synthetic(p) => Some(p),
                TenantSource::App(_) => None,
            })
            .expect("the corpus scenario has a synthetic tenant");
        edit(profile);
        FuzzScenario::from_json(&bad.to_json()).expect_err("a malformed profile must not load")
    };
    let err = load_edited(&|p| p.hot_pages = 0);
    assert!(err.contains("hot_pages"), "{err}");
    let err = load_edited(&|p| p.cold_pages = 1 << 36);
    assert!(err.contains("reach"), "{err}");
}

#[test]
fn planted_bug_is_detected_shrunk_and_replayable() {
    // A scenario that is clean as generated...
    let mut sc = FuzzGen::new(42).scenario(0);
    assert!(run_oracles(&sc).is_ok(), "scenario must be clean unplanted");

    // ...diverges once the reference side silently drops enqueues.
    sc.plant = Plant::DropReferenceEnqueues;
    let div = run_oracles(&sc).expect_err("planted bug must be detected");
    assert_eq!(
        div.stage, "lockstep",
        "the lockstep oracle catches it: {div}"
    );

    // The shrinker must converge to a no-larger scenario that still fails.
    let (min, min_div, evals) = shrink(&sc, 120);
    assert!(evals > 0, "shrinking evaluates candidates");
    assert!(min.steps <= sc.steps);
    assert!(min.tenants.len() <= sc.tenants.len());
    assert_eq!(min_div.stage, "lockstep");
    let replayed = run_oracles(&min).expect_err("shrunk scenario must still diverge");
    assert_eq!(replayed.stage, min_div.stage);

    // The written repro round-trips and replays to the same divergence.
    let dir = scratch_dir("planted");
    let path = write_repro(&dir, &min).expect("write repro file");
    let loaded = load_repro(&path).expect("repro file parses");
    assert_eq!(loaded.to_json().dump(), min.to_json().dump());
    assert!(run_oracles(&loaded).is_err(), "repro replays the failure");
    let _ = fs::remove_dir_all(&dir);
}

/// The policy-arena presets are reachable (coverage-signal non-vacuity): a
/// 100-scenario seeded draw stream hits every arena preset, the
/// [`Coverage`] accounting sees no preset as missing, and one scenario per
/// arena preset replays clean through the full oracle stack.
#[test]
fn fuzzer_reaches_every_arena_preset() {
    let gen = FuzzGen::new(42);
    let mut coverage = Coverage::default();
    let mut first_of: std::collections::BTreeMap<&str, FuzzScenario> =
        std::collections::BTreeMap::new();
    for i in 0..100 {
        let sc = gen.scenario(i);
        coverage.record(&sc);
        if PolicyPreset::ARENA.contains(&sc.preset) {
            first_of.entry(sc.preset.label()).or_insert(sc);
        }
    }
    for p in PolicyPreset::ARENA {
        assert!(
            first_of.contains_key(p.label()),
            "100 draws never produced {p}"
        );
    }
    assert!(
        coverage.missing_presets().is_empty(),
        "coverage reports unexplored presets: {:?}",
        coverage.missing_presets()
    );
    assert_eq!(coverage.presets_hit(), PolicyPreset::ALL.len());
    assert!(
        coverage.summary().contains("14/14 presets"),
        "summary: {}",
        coverage.summary()
    );
    for (label, sc) in &first_of {
        let stats = run_oracles(sc)
            .unwrap_or_else(|d| panic!("{label} scenario {} diverged: {d}", sc.label));
        assert!(stats.sim_events > 0, "{label}: end-to-end stage must run");
    }
}

#[test]
fn small_campaign_is_clean_and_deterministic() {
    let repros = scratch_dir("campaign");
    let mut opts = CampaignOptions::new(4);
    opts.seed = 42;
    opts.corpus_dir = corpus_dir();
    opts.repro_dir = repros.clone();

    let first = run_campaign(&opts).expect("campaign runs");
    assert!(first.divergence.is_none(), "campaign must come back clean");
    assert_eq!(first.generated, 4);
    assert!(first.corpus_replayed >= 3, "corpus replays as regressions");
    assert!(!first.out_of_budget);
    assert!(
        first.total_steals > 0,
        "the campaign must exercise stealing"
    );

    // Same seed, same campaign.
    let second = run_campaign(&opts).expect("campaign runs again");
    assert_eq!(second.generated, first.generated);
    assert_eq!(second.total_steals, first.total_steals);
    let _ = fs::remove_dir_all(&repros);
}

#[test]
fn verify_cache_tells_fresh_results_from_stale_ones() {
    let jobs = planned_jobs(Scale::Quick, 42);
    assert!(
        jobs.len() > 100,
        "the quick suite plans hundreds of simulations, got {}",
        jobs.len()
    );

    // Seed a cache with one genuine result; the audit must pass it.
    let dir = scratch_dir("verify-cache");
    let fresh = jobs[0].simulate();
    let mut store = Store::on_disk(&dir);
    store.insert(&jobs[0], fresh.clone());
    drop(store);

    let audit = verify_cache(Scale::Quick, &dir, usize::MAX, 1, false);
    assert_eq!(audit.planned, jobs.len());
    assert_eq!(audit.cached, 1);
    assert_eq!(audit.checked, 1);
    assert!(audit.stale.is_empty(), "a genuine result is not stale");

    // Overwrite it with a different job's result; the audit must flag it.
    let wrong = jobs[1].simulate();
    assert_ne!(
        fresh.to_json().dump(),
        wrong.to_json().dump(),
        "distinct jobs produce distinct results"
    );
    let mut store = Store::on_disk(&dir);
    store.insert(&jobs[0], wrong);
    drop(store);

    let audit = verify_cache(Scale::Quick, &dir, usize::MAX, 1, false);
    assert_eq!(audit.checked, 1);
    assert_eq!(audit.stale.len(), 1);
    assert_eq!(audit.stale[0].key(), jobs[0].key());
    let _ = fs::remove_dir_all(&dir);
}
