//! `--compare A B`: judges result set B against result set A.
//!
//! A result set is a JSON-lines file with one benchmark run per line: the
//! run's final JSON object plus its `workload`, `seed` and `trace` (what
//! `collect.py` writes). Runs of the two sets pair up by workload and seed.

use std::collections::BTreeMap;
use std::path::Path;

use walksteal_sim_core::Json;

use crate::contract::{Contract, Metric};
use crate::measure::Summary;
use crate::workload::Workload;

struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &Path) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(n, line)| {
            let bad = |what: &str| format!("{}:{}: {what}", path.display(), n + 1);
            let doc = Json::parse(line).map_err(|e| bad(&e))?;
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                return Err(bad("no \"metrics\" object"));
            };
            Ok(Run {
                workload: doc
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("no workload"))?
                    .into(),
                seed: doc
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("no seed"))?,
                trace: doc
                    .get("trace")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("no trace"))?
                    == 1,
                metrics: metrics
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                    .collect(),
            })
        })
        .collect()
}

/// `(seed, value)` of `metric` over the untraced runs of `workload`.
fn series(runs: &[Run], workload: &str, metric: &str) -> Vec<(u64, f64)> {
    runs.iter()
        .filter(|r| !r.trace && r.workload == workload)
        .filter_map(|r| Some((r.seed, *r.metrics.get(metric)?)))
        .collect()
}

/// The verdict for one (metric, workload) pair, given each set's
/// `(seed, value)` runs and their summaries. A gain needs B better in at
/// least nine tenths of the seed-paired runs and a median gap wider than
/// A's interquartile range.
fn verdict(
    m: &Metric,
    a: &[(u64, f64)],
    b: &[(u64, f64)],
    sa: &Summary,
    sb: &Summary,
) -> &'static str {
    let bound = m.bound.unwrap_or(0.0);
    let better = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
    let worse_by = if m.lower_is_better {
        sb.median / sa.median - 1.0
    } else {
        1.0 - sb.median / sa.median
    };
    let pairs: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|&(seed, va)| b.iter().find(|&&(s, _)| s == seed).map(|&(_, vb)| (va, vb)))
        .collect();
    let wins = pairs.iter().filter(|&&(va, vb)| better(vb, va)).count();
    if sa.iqr() > bound * sa.median || sb.iqr() > bound * sb.median {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else if !pairs.is_empty()
        && wins * 10 >= pairs.len() * 9
        && (sb.median - sa.median).abs() > sa.iqr()
    {
        "improved"
    } else {
        "within bound"
    }
}

/// Prints the comparison table; returns the exit code (1 when a metric
/// regressed or a per-layer count differs).
pub fn run(a_path: &Path, b_path: &Path, contract: &Contract) -> Result<u8, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .filter(|w| a.iter().any(|r| r.workload == *w))
        .collect();
    let mut code = 0;
    println!(
        "{:<18} {:<14} {:>12} {:>7} {:>12} {:>7} {:>7}  verdict",
        "metric", "workload", "A median", "A iqr%", "B median", "B iqr%", "B/A"
    );
    for m in &contract.end_to_end {
        for w in workloads.iter().copied() {
            let (sa, sb) = (series(&a, w, &m.name), series(&b, w, &m.name));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let summary =
                |s: &[(u64, f64)]| Summary::of(&s.iter().map(|p| p.1).collect::<Vec<_>>());
            let (xa, xb) = (summary(&sa), summary(&sb));
            let verdict = verdict(m, &sa, &sb, &xa, &xb);
            if verdict == "regressed" {
                code = 1;
            }
            println!(
                "{:<18} {:<14} {:>12.6} {:>6.2}% {:>12.6} {:>6.2}% {:>7.4}  {verdict} (bound {:.0}%, n {}/{})",
                m.name,
                w,
                xa.median,
                100.0 * xa.iqr() / xa.median,
                xb.median,
                100.0 * xb.iqr() / xb.median,
                xb.median / xa.median,
                100.0 * m.bound.unwrap_or(0.0),
                xa.n,
                xb.n,
            );
        }
    }
    let counts: Vec<&Metric> = contract
        .per_layer
        .iter()
        .filter(|m| m.unit == "count")
        .collect();
    let (mut same, mut differ) = (0, 0);
    for ra in a.iter().filter(|r| r.trace) {
        let Some(rb) = b
            .iter()
            .find(|r| r.trace && r.workload == ra.workload && r.seed == ra.seed)
        else {
            continue;
        };
        for m in &counts {
            match (ra.metrics.get(&m.name), rb.metrics.get(&m.name)) {
                (Some(x), Some(y)) if x == y => same += 1,
                (x, y) => {
                    differ += 1;
                    println!(
                        "count differs: {} {} seed {}: {x:?} vs {y:?}",
                        m.name, ra.workload, ra.seed
                    );
                }
            }
        }
    }
    println!("per-layer counts: {same} identical, {differ} different");
    if differ > 0 {
        code = 1;
    }
    Ok(code)
}
