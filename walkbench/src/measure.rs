//! Timing, statistics, result digests, peak memory, and spans.

use std::hash::Hasher;
use std::hint::black_box;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use walksteal_multitenant::{SimResult, SimulationBuilder};
use walksteal_sim_core::{FnvHasher, Json};

/// One simulation timed through the public entry points.
pub struct Timed {
    /// Seconds in `SimulationBuilder::try_build`.
    pub setup: f64,
    /// Seconds from the start of `build` to the end of `run`.
    pub wall: f64,
    pub result: SimResult,
}

/// Builds and runs one simulation. A rejected configuration or a panic
/// anywhere inside the program is returned as an error, so one failing
/// simulation is counted instead of ending the benchmark.
pub fn run_sim(builder: SimulationBuilder) -> Result<Timed, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let sim = builder.try_build().map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let result = sim.run();
        let t2 = Instant::now();
        Ok(Timed {
            setup: (t1 - t0).as_secs_f64(),
            wall: (t2 - t0).as_secs_f64(),
            result,
        })
    }));
    outcome.unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

/// FNV-1a 64 of the canonical `SimResult` JSON: the identity of a result.
pub fn digest(result: &SimResult) -> u64 {
    let mut h = FnvHasher::default();
    h.write(result.to_json().dump().as_bytes());
    h.finish()
}

/// Seconds a [`reference_pass_s`] takes on the reference host (a 2-vCPU
/// Xeon VM at 2.1 GHz) when its neighbours are quiet. Host times are
/// reported at this speed.
pub const REFERENCE_S: f64 = 0.0125;

/// Elements of the reference buffer: 128 MiB of `u64`.
const REFERENCE_LEN: usize = 16 << 20;

/// The host's current memory throughput, as the median time of three
/// passes summing a freshly allocated 128 MiB buffer. On a shared host the
/// simulator's speed drifts with the bandwidth its neighbours leave it;
/// this pass drifts with it, so dividing it out keeps runs made minutes
/// apart comparable. The buffer is freed before the caller measures memory.
pub fn reference_pass_s() -> f64 {
    let buf = vec![1u64; REFERENCE_LEN];
    let mut passes: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(black_box(&buf).iter().fold(0u64, |a, &b| a.wrapping_add(b)));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[1]
}

/// Restarts the peak-resident-set count from the current resident set.
/// Where the kernel refuses, the count keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`) since the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Cut points dividing `sorted` into `n` groups, as Python's
/// `statistics.quantiles(data, n=n)` (exclusive method) computes them, so
/// the benchmark and the tools that judge it agree on every quartile.
pub fn quantiles(sorted: &[f64], n: usize) -> Vec<f64> {
    let len = sorted.len();
    if len < 2 {
        return vec![sorted.first().copied().unwrap_or(0.0); n - 1];
    }
    let m = len + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
        })
        .collect()
}

/// Median, quartiles, and (from 20 samples up) the 90th percentile.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    q1: f64,
    q3: f64,
    pub p90: Option<f64>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q = quantiles(&sorted, 4);
        Summary {
            n: sorted.len(),
            median: q[1],
            q1: q[0],
            q3: q[2],
            p90: (sorted.len() >= 20).then(|| quantiles(&sorted, 10)[8]),
        }
    }

    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// One timed region of the benchmark, recorded around calls into a layer.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    ops: u64,
}

/// Spans kept in memory and written out when the benchmark ends.
pub struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a span now; [`close`](Self::close) ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.ns(Instant::now());
        self.list.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            ops: 0,
        });
        self.list.len() - 1
    }

    pub fn close(&mut self, id: usize, ops: u64) {
        let now = self.ns(Instant::now());
        let span = &mut self.list[id];
        span.end_ns = now;
        span.ops = ops;
    }

    /// Records an already-timed region.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        start: Instant,
        end: Instant,
        ops: u64,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.list.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            ops,
        });
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.list.iter().enumerate() {
            let line = Json::Obj(vec![
                ("id".into(), Json::UInt(id as u64)),
                ("name".into(), Json::Str(s.name.into())),
                ("workload".into(), Json::Str(workload.into())),
                ("start_ns".into(), Json::UInt(s.start_ns)),
                ("end_ns".into(), Json::UInt(s.end_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("ops".into(), Json::UInt(s.ops)),
            ]);
            writeln!(out, "{}", line.dump())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&data, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quantiles(&[1.0, 2.0, 3.0], 4), vec![1.0, 2.0, 3.0]);
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.n, s.p90), (2.5, 4, None));
    }
}
