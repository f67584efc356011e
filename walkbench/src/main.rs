//! The walksteal benchmark: end-to-end host metrics and per-layer
//! attribution of the simulator on four paper-scale workloads.
//!
//! ```text
//! walkbench --workload NAME [--seed S] [--seconds N] [--trace 0|1]
//!           [--quick] [--out DIR] [--golden FILE]
//! walkbench --compare A.jsonl B.jsonl
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). The exit code is 0 only when every
//! simulation passed the correctness oracle; 2 means a usage error.

mod compare;
mod contract;
mod e2e;
mod measure;
mod oracle;
mod replay;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use walksteal_experiments::Scale;
use walksteal_sim_core::Json;

use crate::contract::Contract;
use crate::measure::{Spans, Summary, REFERENCE_S};
use crate::oracle::{golden, Oracle, GOLDEN_SEED};
use crate::workload::Workload;

const USAGE: &str = "usage: walkbench --workload NAME [--seed S] [--seconds N] [--trace 0|1] \
[--quick] [--out DIR] [--golden FILE]\n       walkbench --compare A.jsonl B.jsonl\n\
workloads: pair_hl, pair_ll, arena4_mosaic, churn_heavy";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    golden: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: GOLDEN_SEED,
        seconds: 20.0,
        trace: false,
        quick: false,
        out: None,
        golden: None,
        compare: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value()?.into()),
            "--golden" => args.golden = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.compare.is_none() && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One reported metric: its value, and its samples' summary when it has
/// several.
struct Reported {
    name: &'static str,
    value: f64,
    summary: Option<Summary>,
    samples: Vec<f64>,
}

fn from_samples(name: &'static str, samples: Vec<f64>) -> Reported {
    let summary = Summary::of(&samples);
    Reported {
        name,
        value: summary.median,
        summary: Some(summary),
        samples,
    }
}

fn single(name: &'static str, value: f64) -> Reported {
    Reported {
        name,
        value,
        summary: None,
        samples: vec![value],
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("walkbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let contract = Contract::load();
    if let Some((a, b)) = &args.compare {
        return match compare::run(a, b, &contract) {
            Ok(code) => ExitCode::from(code),
            Err(e) => {
                eprintln!("walkbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let workload = args.workload.expect("checked by parse_args");
    let golden_text = match &args.golden {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Some(text),
            Err(e) => {
                eprintln!("walkbench: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    let scale = if args.quick {
        Scale::Quick
    } else {
        Scale::Paper
    };
    let sims = workload.sims(args.seed, scale);
    let pinned = if args.seed == GOLDEN_SEED {
        golden(golden_text.as_deref(), workload.name(), scale.label())
    } else {
        Vec::new()
    };
    let mut oracle = Oracle::new(sims.len(), &pinned);
    let mut spans = Spans::new();
    // What the pass measured, a note for the report header, and extra
    // fields for the `--out` record.
    let (reported, note, extra): (Vec<Reported>, String, Vec<(String, Json)>) = if args.trace {
        let traced = traced::run(&sims, &mut oracle, &mut spans);
        let metrics = traced
            .metrics
            .into_iter()
            .map(|(n, v)| single(n, v))
            .collect();
        (
            metrics,
            format!("L2 TLB {}", traced.l2_organization),
            Vec::new(),
        )
    } else {
        let mut e2e = e2e::run(&sims, args.seconds, args.quick, &mut oracle);
        if e2e.peak_rss_mb.is_empty() {
            oracle.fail(0, "no VmHWM in /proc/self/status");
            e2e.peak_rss_mb.push(0.0);
        }
        let note = format!(
            "host times x {:.4}: reference pass {:.2} ms, nominal {:.2} ms",
            e2e.host_scale,
            1e3 * Summary::of(&e2e.reference_s).median,
            1e3 * REFERENCE_S,
        );
        let extra = vec![
            ("host_scale".to_string(), Json::Num(e2e.host_scale)),
            (
                "reference_s".to_string(),
                Json::Arr(e2e.reference_s.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ];
        let metrics = vec![
            from_samples("wall_s", e2e.wall),
            from_samples("sim_minstr_per_s", e2e.minstr_per_s),
            from_samples("setup_s", e2e.setup),
            from_samples("peak_rss_mb", e2e.peak_rss_mb),
        ];
        (metrics, note, extra)
    };

    // Every metric of the pass, in contract order, under its contract unit.
    let declared = if args.trace {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    for r in &reported {
        assert!(
            declared.iter().any(|m| m.name == r.name),
            "metric {} is not declared in BENCHMARK.json",
            r.name
        );
    }
    println!(
        "walkbench {} seed {} ({} scale, {} simulations{}; {note})",
        workload.name(),
        args.seed,
        scale.label(),
        sims.len(),
        if args.trace { ", traced" } else { "" },
    );
    let (mut metrics, mut record) = (Vec::new(), Vec::new());
    for m in declared {
        let r = reported
            .iter()
            .find(|r| r.name == m.name)
            .unwrap_or_else(|| panic!("declared metric {} was not measured", m.name));
        match r.summary {
            Some(s) => println!(
                "  {:<28} {:>16.6} {:<8} iqr {:.6} n {}{}",
                m.name,
                r.value,
                m.unit,
                s.iqr(),
                s.n,
                s.p90.map_or(String::new(), |p| format!(" p90 {p:.6}")),
            ),
            None => println!("  {:<28} {:>16.6} {:<8} n 1", m.name, r.value, m.unit),
        }
        let value = vec![
            ("value".to_string(), Json::Num(r.value)),
            ("unit".to_string(), Json::Str(m.unit.clone())),
        ];
        let mut full = value.clone();
        full.push((
            "samples".into(),
            Json::Arr(r.samples.iter().map(|&v| Json::Num(v)).collect()),
        ));
        metrics.push((m.name.clone(), Json::Obj(value)));
        record.push((m.name.clone(), Json::Obj(full)));
    }
    let correct = oracle.failed == 0;
    let outcome = |metrics| {
        vec![
            ("correct".to_string(), Json::Bool(correct)),
            ("attempted".to_string(), Json::UInt(oracle.attempted)),
            ("failed".to_string(), Json::UInt(oracle.failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]
    };

    if let Some(dir) = &args.out {
        let mut fields = vec![
            ("workload".to_string(), Json::Str(workload.name().into())),
            ("seed".to_string(), Json::UInt(args.seed)),
            ("trace".to_string(), Json::UInt(u64::from(args.trace))),
            ("scale".to_string(), Json::Str(scale.label().into())),
            (
                "digests".to_string(),
                Json::Arr(
                    oracle
                        .digests()
                        .iter()
                        .map(|d| d.map_or(Json::Null, |d| Json::Str(format!("{d:016x}"))))
                        .collect(),
                ),
            ),
        ];
        fields.extend(extra);
        fields.extend(outcome(record));
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            std::fs::write(dir.join("result.json"), Json::Obj(fields).pretty() + "\n")?;
            if args.trace {
                spans.write_jsonl(&dir.join("spans.jsonl"), workload.name())?;
            }
            Ok(())
        });
        if let Err(e) = written {
            eprintln!("walkbench: writing {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", Json::Obj(outcome(metrics)).dump());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
