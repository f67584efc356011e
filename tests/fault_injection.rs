//! End-to-end exercises of the fault-tolerance layer: corrupt cache files
//! must be quarantined and resimulated, panicking and budget-blown jobs must
//! be isolated and retried without taking the suite down, and — the crucial
//! property — a faulted-then-recovered run must produce byte-identical
//! tables to a clean serial run, because injected faults only ever fire on a
//! job's first attempt.

use std::fs;
use std::path::{Path, PathBuf};

use walksteal::experiments::fuzz::{load_repro, run_oracles};
use walksteal::experiments::store::QUARANTINE_DIR;
use walksteal::experiments::suite::{self, ExpContext};
use walksteal::experiments::{FaultSpec, Scale, Store};
use walksteal::multitenant::RunBudget;

/// A fresh scratch cache directory unique to this test process.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("walksteal-faultinj-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch cache dir");
    dir
}

fn ctx_on_disk(dir: &Path) -> ExpContext {
    ExpContext::new(Scale::Quick, Store::on_disk(dir))
}

fn cache_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read cache dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn truncated_cache_file_is_quarantined_and_resimulated() {
    let dir = scratch_dir("truncate");

    // Populate the cache with a clean run and remember its output.
    let mut clean = ctx_on_disk(&dir);
    let reference = suite::fig9(&mut clean).to_string();
    let files = cache_files(&dir);
    assert!(!files.is_empty(), "clean run should have cached results");

    // Truncate one file mid-JSON.
    let victim = &files[0];
    let text = fs::read_to_string(victim).unwrap();
    fs::write(victim, &text[..text.len() / 2]).unwrap();

    // A fresh run must heal: quarantine the file, resimulate the key, and
    // still produce the exact same table.
    let mut healed = ctx_on_disk(&dir);
    let table = suite::fig9(&mut healed).to_string();
    assert_eq!(table, reference, "self-healed run must match the clean run");
    assert_eq!(healed.store.quarantined().len(), 1);
    assert!(
        healed.store.misses() >= 1,
        "the quarantined key must have been resimulated"
    );
    let moved = healed.store.quarantined()[0]
        .moved_to
        .as_ref()
        .expect("file should move to quarantine, not be deleted");
    assert!(moved.starts_with(dir.join(QUARANTINE_DIR)));
    assert!(
        moved.exists(),
        "quarantined file is preserved for forensics"
    );

    // The heal is durable: a third run sees a fully valid cache.
    let mut third = ctx_on_disk(&dir);
    assert_eq!(suite::fig9(&mut third).to_string(), reference);
    assert!(third.store.quarantined().is_empty());
    assert_eq!(third.store.misses(), 0);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_payload_fails_the_checksum_and_heals() {
    let dir = scratch_dir("bitflip");

    let mut clean = ctx_on_disk(&dir);
    let reference = suite::fig9(&mut clean).to_string();
    let files = cache_files(&dir);

    // Flip one digit inside the result payload, leaving the JSON
    // well-formed — only the checksum can catch this.
    let victim = &files[0];
    let text = fs::read_to_string(victim).unwrap();
    let payload_at = text
        .find("\"result\":")
        .expect("new cache files carry the checksum envelope");
    let digit_at = text[payload_at..]
        .bytes()
        .position(|b| b.is_ascii_digit())
        .map(|i| payload_at + i)
        .expect("a result payload contains digits");
    let mut bytes = text.into_bytes();
    bytes[digit_at] = b'0' + (bytes[digit_at] - b'0' + 1) % 10;
    fs::write(victim, bytes).unwrap();

    let mut healed = ctx_on_disk(&dir);
    let table = suite::fig9(&mut healed).to_string();
    assert_eq!(table, reference);
    assert_eq!(healed.store.quarantined().len(), 1);
    assert_eq!(
        healed.store.quarantined()[0].error.kind(),
        "checksum mismatch"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn faulted_fuzz_scenario_covers_lockstep_and_recovers() {
    // The fuzzer's fault-equivalence oracle extends the injection coverage
    // to fuzzed scenarios: the corpus scenario carries a fault schedule
    // (one panic + one budget blowout), and the oracle asserts the
    // faulted-then-recovered store matches a clean run byte-for-byte, while
    // the lockstep stage drives the walk queues into rejection and the
    // end-to-end stage simulates.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/fuzz/shared-queue-faults.json");
    let sc = load_repro(&path).expect("corpus scenario parses");
    assert!(sc.faults.is_some(), "this scenario must inject faults");

    let stats = run_oracles(&sc).unwrap_or_else(|d| panic!("scenario diverged: {d}"));
    assert!(
        stats.rejected > 0,
        "the lockstep oracle must drive the walk queue into rejection"
    );
    assert!(stats.sim_events > 0, "the end-to-end stage must simulate");
    assert_eq!(
        stats.fault_jobs, 3,
        "the fault-equivalence oracle runs its three-job comparison"
    );
}

#[test]
fn job_panic_mid_suite_is_isolated_and_itemized() {
    // Clean serial reference.
    let mut clean = ExpContext::new(Scale::Quick, Store::in_memory());
    let reference = suite::tab6(&mut clean).to_string();

    // Two jobs panic on their first attempt, across a 3-worker pool; the
    // bounded retry recovers both, so the output must not change.
    let mut faulted = ExpContext::new(Scale::Quick, Store::in_memory());
    faulted.jobs = 3;
    faulted.faults = Some(FaultSpec::parse("panic=2,seed=11").unwrap());
    let table = faulted.run(suite::tab6).to_string();

    assert_eq!(table, reference, "recovered run must match the clean run");
    assert_eq!(faulted.failures().len(), 2);
    for f in faulted.failures() {
        assert!(f.recovered, "injected panics recover on retry: {f:?}");
        assert_eq!(f.error.kind(), "panic");
        assert_eq!(f.attempts, 2);
    }
    assert!(!faulted.any_budget_death());
}

#[test]
fn real_budget_blowout_kills_jobs_but_not_the_suite() {
    // A genuinely unpayable budget: every attempt (and every retry) dies,
    // but the suite must still complete and render a table.
    let mut ctx = ExpContext::new(Scale::Quick, Store::in_memory());
    ctx.budget = RunBudget::unlimited().with_max_events(100);
    let table = ctx.run(suite::fig5);

    assert!(!table.to_string().is_empty());
    assert!(!ctx.failures().is_empty());
    assert!(ctx.failures().iter().all(|f| !f.recovered));
    assert!(ctx.any_budget_death());
}

#[test]
fn faulted_run_is_byte_identical_to_a_clean_serial_run() {
    // The acceptance property from the issue: corrupt cache files AND job
    // panics AND an injected budget blowout, all in one run, and the
    // per-experiment numbers still match a clean serial run exactly.
    let mut clean = ExpContext::new(Scale::Quick, Store::in_memory());
    let reference_a = suite::fig9(&mut clean).to_string();
    let reference_b = suite::tab6(&mut clean).to_string();

    let dir = scratch_dir("determinism");
    let mut warm = ctx_on_disk(&dir);
    let _ = suite::fig9(&mut warm);

    let mut spec = FaultSpec::parse("panic=1,budget=1,corrupt=2,seed=7").unwrap();
    let corrupted = spec.corrupt_cache(&dir);
    assert_eq!(corrupted.len(), 2, "two cache files should be corrupted");

    let mut faulted = ctx_on_disk(&dir);
    faulted.jobs = 4;
    faulted.faults = Some(spec);
    let table_a = faulted.run(suite::fig9).to_string();
    let table_b = faulted.run(suite::tab6).to_string();

    assert_eq!(table_a, reference_a);
    assert_eq!(table_b, reference_b);
    assert_eq!(
        faulted.store.quarantined().len(),
        2,
        "both corrupted files must be caught"
    );
    assert_eq!(
        faulted.failures().len(),
        2,
        "one injected panic + one injected budget blowout"
    );
    assert!(faulted.failures().iter().all(|f| f.recovered));
    assert!(!faulted.any_budget_death());

    let _ = fs::remove_dir_all(&dir);
}
