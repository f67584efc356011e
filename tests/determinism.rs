//! The parallel experiment engine must be invisible in the output: running
//! a figure with `--jobs N` has to produce byte-identical tables and the
//! same cached results as one worker. Every simulation takes one path: the
//! "serial" side here calls each figure outside `ExpContext::run`, so each
//! request runs as a one-job slice, while the parallel side plans the
//! figure, runs the plan on a pool of N workers that claim jobs from one
//! shared cursor, and replays it. This is the regression guard for that
//! plan/execute/replay scheme and the canonical-order merge in
//! `parallel::run_jobs`.

use walksteal::experiments::suite::{self, ExpContext};
use walksteal::experiments::{Scale, Store};

fn serial_ctx() -> ExpContext {
    ExpContext::new(Scale::Quick, Store::in_memory())
}

fn parallel_ctx(jobs: usize) -> ExpContext {
    let mut ctx = serial_ctx();
    ctx.jobs = jobs;
    ctx
}

/// Renders a figure both ways and asserts the text output is identical.
fn assert_identical(f: impl Fn(&mut ExpContext) -> walksteal::experiments::Table) {
    let mut serial = serial_ctx();
    let serial_table = f(&mut serial);

    let mut parallel = parallel_ctx(4);
    let parallel_table = parallel.run(&f);

    assert_eq!(
        serial_table.to_string(),
        parallel_table.to_string(),
        "plain rendering differs between serial and --jobs 4"
    );
    assert_eq!(
        serial_table.to_markdown(),
        parallel_table.to_markdown(),
        "markdown rendering differs between serial and --jobs 4"
    );
    // Same evaluation matrix: every simulation ran exactly once on each side.
    assert_eq!(serial.store.misses(), parallel.store.misses());
}

#[test]
fn fig9_is_byte_identical_under_parallelism() {
    assert_identical(suite::fig9);
}

#[test]
fn tab6_is_byte_identical_under_parallelism() {
    assert_identical(suite::tab6);
}

#[test]
fn fig13_multi_tenant_is_byte_identical_under_parallelism() {
    assert_identical(suite::fig13);
}

#[test]
fn oversubscribed_jobs_are_still_deterministic() {
    // More workers requested than there are jobs: the pool caps its size
    // at the job count.
    let mut serial = serial_ctx();
    let t = suite::tab5(&mut serial);

    let mut parallel = parallel_ctx(32);
    let tp = parallel.run(suite::tab5);
    assert_eq!(t.to_string(), tp.to_string());
}
