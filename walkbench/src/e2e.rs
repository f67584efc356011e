//! The end-to-end pass: wall time, simulated throughput, set-up time and
//! peak memory of whole workload runs, timed only around the public entry
//! points (`build` and `run`) with observability off and the shipped
//! defaults — including `StreamPipelining::Auto` and its generator threads.
//!
//! Host times are rescaled to the reference host speed by the run's
//! [`reference_pass_s`] median, measured before every round.

use std::time::{Duration, Instant};

use walksteal_multitenant::SimResult;

use crate::measure::{
    peak_rss_mb, reference_pass_s, reset_peak_rss, run_sim, Summary, REFERENCE_S,
};
use crate::oracle::Oracle;
use crate::workload::SimSpec;

/// Fewest measured rounds per run, however long one round takes.
const MIN_ROUNDS: usize = 3;

/// Set-up samples wanted: measured rounds are padded with build-only rounds
/// up to this many, within a tenth of the measuring time.
const SETUP_SAMPLES: usize = 21;

pub struct E2e {
    /// Seconds per workload run (build + run of every simulation).
    pub wall: Vec<f64>,
    /// Seconds in `build` per workload run.
    pub setup: Vec<f64>,
    /// Simulated instructions, millions per host second.
    pub minstr_per_s: Vec<f64>,
    /// Peak resident MiB per measured round.
    pub peak_rss_mb: Vec<f64>,
    /// Seconds per reference pass, one per measured round.
    pub reference_s: Vec<f64>,
    /// The factor that took the measured host times to the reference
    /// speed (already applied to `wall`, `setup` and `minstr_per_s`).
    pub host_scale: f64,
}

/// Warp instructions the run simulated: every tenant's instructions while
/// resident for churn runs, completed executions' otherwise (the only count
/// a static run reports).
fn simulated_instructions(r: &SimResult) -> u64 {
    match &r.churn {
        Some(churn) => churn.tenants.iter().map(|t| t.lifetime_instructions).sum(),
        None => r.tenants.iter().map(|t| t.instructions).sum(),
    }
}

/// Runs one discarded warm-up round, then measured rounds (each starting at
/// a different simulation) until `seconds` have passed, then build-only
/// rounds for more set-up samples. `quick` runs one round.
pub fn run(sims: &[SimSpec], seconds: f64, quick: bool, oracle: &mut Oracle) -> E2e {
    let n = sims.len();
    if !quick {
        for (i, spec) in sims.iter().enumerate() {
            oracle.check(i, "warm-up", &run_sim(spec.builder()));
        }
    }
    let mut e2e = E2e {
        wall: Vec::new(),
        setup: Vec::new(),
        minstr_per_s: Vec::new(),
        peak_rss_mb: Vec::new(),
        reference_s: Vec::new(),
        host_scale: 1.0,
    };
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    loop {
        let round = e2e.wall.len();
        e2e.reference_s.push(reference_pass_s());
        reset_peak_rss();
        let (mut wall, mut setup, mut instr) = (0.0, 0.0, 0u64);
        for j in 0..n {
            let i = (j + round) % n;
            let run = run_sim(sims[i].builder());
            if let Some(t) = oracle.check(i, "measured", &run) {
                wall += t.wall;
                setup += t.setup;
                instr += simulated_instructions(&t.result);
            }
        }
        e2e.wall.push(wall);
        e2e.setup.push(setup);
        e2e.minstr_per_s.push(if wall > 0.0 {
            instr as f64 / 1e6 / wall
        } else {
            0.0
        });
        if let Some(mb) = peak_rss_mb() {
            e2e.peak_rss_mb.push(mb);
        }
        if quick || (e2e.wall.len() >= MIN_ROUNDS && start.elapsed() >= budget) {
            break;
        }
    }
    let wanted = if quick { 3 } else { SETUP_SAMPLES };
    let padding = Instant::now();
    while oracle.failed == 0
        && e2e.setup.len() < wanted
        && (quick || padding.elapsed() < budget / 10)
    {
        let mut setup = 0.0;
        for spec in sims {
            let t0 = Instant::now();
            let sim = spec.builder().try_build();
            setup += t0.elapsed().as_secs_f64();
            drop(sim);
        }
        e2e.setup.push(setup);
    }
    e2e.host_scale = REFERENCE_S / Summary::of(&e2e.reference_s).median;
    let k = e2e.host_scale;
    e2e.wall.iter_mut().for_each(|s| *s *= k);
    e2e.setup.iter_mut().for_each(|s| *s *= k);
    e2e.minstr_per_s.iter_mut().for_each(|r| *r /= k);
    e2e
}
