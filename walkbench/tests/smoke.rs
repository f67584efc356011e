//! Smoke test of the benchmark binary on quick-scale workloads.

use std::path::PathBuf;
use std::process::{Command, Output};

use walksteal_sim_core::Json;

const WORKLOADS: [&str; 4] = ["pair_hl", "pair_ll", "arena4_mosaic", "churn_heavy"];

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn walkbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_walkbench"))
        .args(args)
        .output()
        .expect("benchmark runs")
}

/// The final JSON object of a run's standard output.
fn outcome(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON")
}

fn out_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn prints_every_contract_metric_with_its_unit() {
    let contract = contract();
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let dir = out_dir(&format!("smoke_{workload}_{trace}"));
            let out = walkbench(&[
                "--workload",
                workload,
                "--quick",
                "--trace",
                trace,
                "--out",
                dir.to_str().unwrap(),
            ]);
            assert!(out.status.success(), "{workload} trace {trace}: {out:?}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let result = outcome(&out);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) > Some(0));
            let metrics = result.get("metrics").expect("metrics");
            for m in contract
                .get(section)
                .and_then(Json::as_array)
                .expect(section)
            {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                let got = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: no {name}"));
                assert_eq!(got.get("unit").and_then(Json::as_str), Some(unit), "{name}");
                let value = got
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{workload} {name} = {value}");
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.split_whitespace().next() == Some(name) && l.contains(unit)),
                    "{workload}: {name} not printed with {unit}"
                );
            }
            if trace == "0" {
                let rss = metrics
                    .get("peak_rss_mb")
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64);
                assert!(rss > Some(0.0), "{workload}: peak RSS {rss:?}");
            } else {
                assert_spans_are_sound(&dir, metrics);
            }
        }
    }
}

/// Every span's self time is non-negative, and the layers' self times do
/// not add up to more than the run's wall time.
fn assert_spans_are_sound(dir: &std::path::Path, metrics: &Json) {
    let text = std::fs::read_to_string(dir.join("spans.jsonl")).expect("spans written");
    let spans: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("span JSON"))
        .collect();
    let field = |s: &Json, k: &str| s.get(k).and_then(Json::as_u64).expect(k) as i64;
    let mut self_ns: Vec<i64> = spans
        .iter()
        .map(|s| field(s, "end_ns") - field(s, "start_ns"))
        .collect();
    for s in &spans {
        if let Some(p) = s.get("parent").and_then(Json::as_u64) {
            self_ns[p as usize] -= field(s, "end_ns") - field(s, "start_ns");
        }
    }
    assert!(
        self_ns.iter().all(|&ns| ns >= 0),
        "negative span self time: {self_ns:?}"
    );
    let value = |name: &str| {
        metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .expect(name)
    };
    assert!(
        value("sim.residual_s") >= 0.0,
        "layer self times exceed the wall time"
    );
}

#[test]
fn a_planted_digest_mismatch_fails_the_run() {
    let golden = out_dir("planted_golden.txt");
    std::fs::write(&golden, "pair_hl quick 0 0123456789abcdef\n").expect("write golden");
    let out = walkbench(&[
        "--workload",
        "pair_hl",
        "--quick",
        "--seed",
        "42",
        "--golden",
        golden.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "a digest mismatch must fail the run");
    let result = outcome(&out);
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert!(result.get("failed").and_then(Json::as_u64) > Some(0));
}

#[test]
fn usage_errors_print_no_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "pair_hl", "--trace", "2"][..],
    ] {
        let out = walkbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
