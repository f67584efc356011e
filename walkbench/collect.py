#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

usage: python3 walkbench/collect.py OUT.jsonl [--seeds 1-10] [--trace 0|1]
                                    [--workloads a,b] [--seconds N]

Run from the repository root. Each run invokes the command in
BENCHMARK.json exactly as its judge does, one process per (seed, workload),
rotating the workload order from seed to seed, and appends the run's final
JSON object, tagged with its workload, seed and trace flag, to OUT.jsonl.
Two such files are what `walkbench --compare A B` takes.

Untraced sets end with a table of each end-to-end metric's spread across the
seeds: the distance between the first and third quartile as a share of the
median, next to the metric's regression bound. The target is a third of the
bound; set-up time is reported but not held to it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")

    runs, failures = [], 0
    with open(args.out, "a") as out:
        for i, seed in enumerate(args.seeds):
            k = i % len(workloads)
            for w in workloads[k:] + workloads[:k]:
                cmd = bench["command"] + [
                    "--workload", w, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                ]
                t0 = time.monotonic()
                p = subprocess.run(cmd, env=env, capture_output=True, text=True)
                elapsed = time.monotonic() - t0
                lines = p.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    result = None
                if p.returncode != 0 or result is None or not result["correct"]:
                    failures += 1
                    print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}",
                          file=sys.stderr)
                    continue
                rec = {"workload": w, "seed": seed, "trace": args.trace,
                       "elapsed_s": round(elapsed, 3), **result}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                runs.append(rec)
                print(f"{w:<14} seed {seed:<4} {elapsed:6.1f} s", flush=True)

    if args.trace == 0 and runs:
        print(f"\n{'metric':<18} {'workload':<14} {'median':>12} {'spread':>8} "
              f"{'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            for w in workloads:
                vals = [r["metrics"][m["name"]]["value"] for r in runs
                        if r["workload"] == w]
                if len(vals) < 2:
                    continue
                q = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                spread = (q[2] - q[0]) / med
                if spread < m["bound"] / 3:
                    verdict = "steady"
                elif spread <= m["bound"]:
                    verdict = "within bound"
                else:
                    verdict = "TOO WIDE"
                print(f"{m['name']:<18} {w:<14} {med:>12.6f} {100 * spread:>7.2f}% "
                      f"{100 * m['bound']:>5.0f}%  {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
