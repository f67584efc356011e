#!/usr/bin/env bash
# Tier-1 gate: the checks every PR must keep green.
#
# Everything here runs offline (no crates.io access) — the workspace has no
# external dependencies by design. See ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format (rustfmt, no diff allowed) =="
cargo fmt --all --check

echo "== lint (clippy, warnings are errors) =="
cargo clippy --all-targets --workspace -- -D warnings

echo "== build (release, warnings are errors) =="
RUSTFLAGS="-D warnings" cargo build --release --workspace

echo "== rustdoc (warnings are errors) =="
# Broken intra-doc links fail here, not only in CI.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== tests (workspace) =="
cargo test -q --workspace

echo "== determinism: one worker vs --jobs 4 =="
cargo test -q --test determinism

echo "== walkbench: quick workloads against the seed-42 golden digests =="
# The benchmark package's smoke test runs all four workloads at quick
# scale (~3 s) and checks each result digest against its golden.
cargo test -q --manifest-path walkbench/Cargo.toml

echo "== walkbench: a paper-scale workload against its seed-42 golden digests =="
# One second of pair_ll at paper scale (a warm-up round plus three measured
# rounds of 24 simulations): every run's digest must match golden/s42.txt,
# so a change to paper-scale results fails here, not only in the benchmark.
cargo run -q --release --manifest-path walkbench/Cargo.toml -- \
  --workload pair_ll --seed 42 --seconds 1 > /dev/null

echo "== fault-injection smoke =="
# Inject a job panic plus a corrupt cache file into a quick-scale run: the
# suite must survive (quarantine + retry), exit with code 2, and still print
# byte-identical tables. The clean run uses one worker and the faulted run
# the default worker count; both run on the same job pool.
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
./target/release/repro --quick --jobs 1 --cache "$SMOKE/cache" fig9 > "$SMOKE/clean.txt"
rc=0
./target/release/repro --quick --cache "$SMOKE/cache" \
  --inject-faults panic=1,corrupt=1,seed=7 fig9 > "$SMOKE/faulted.txt" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "fault-injection smoke: expected exit code 2, got $rc" >&2
  exit 1
fi
cmp "$SMOKE/clean.txt" "$SMOKE/faulted.txt"
test -d "$SMOKE/cache/quick/quarantine"

echo "== simulate smoke =="
# A machine that cannot host the tenants is a usage error (exit 1, with a
# diagnostic naming the resource), not a panic: 16 walkers do not split
# among three tenants under DWS, and 7 SMs do not split between two.
rc=0
./target/release/simulate --apps 3DS,BLK,SAD --policy dws --sms 6 --warps 6 --budget 600 \
  > /dev/null 2> "$SMOKE/walkers.err" || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "simulate smoke: an uneven walker split should exit 1, got $rc" >&2
  exit 1
fi
grep -q "walkers" "$SMOKE/walkers.err"
rc=0
./target/release/simulate --apps GUPS,MM --sms 7 > /dev/null 2> "$SMOKE/sms.err" || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "simulate smoke: an uneven SM split should exit 1, got $rc" >&2
  exit 1
fi
grep -q "SMs" "$SMOKE/sms.err"
# An L2 TLB whose set count is not a power of two (100 entries = 6 sets of
# 16 ways) and a machine without walkers are usage errors too.
rc=0
./target/release/simulate --apps GUPS,MM --tlb 100 > /dev/null 2> "$SMOKE/tlb.err" || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "simulate smoke: --tlb 100 should exit 1, got $rc" >&2
  exit 1
fi
grep -q "TLB" "$SMOKE/tlb.err"
rc=0
./target/release/simulate --apps GUPS,MM --walkers 0 > /dev/null 2> "$SMOKE/nowalkers.err" || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "simulate smoke: --walkers 0 should exit 1, got $rc" >&2
  exit 1
fi
grep -q "walker" "$SMOKE/nowalkers.err"

echo "== n-tenant smoke =="
# The scenario engine must handle more than two tenants and at least one
# sensitivity axis end-to-end: a 3-tenant table with its gmean rows, a
# walker sweep whose canonical point is labelled, and a clean exit-code-2
# diagnostic (not a panic) for a tenant count the hardware can't split.
./target/release/repro --quick --cache "$SMOKE/ncache" --tenants 3 tenants3 > "$SMOKE/tenants3.txt"
grep -q "gmean ALL" "$SMOKE/tenants3.txt"
./target/release/repro --quick --cache "$SMOKE/ncache" --sweep walkers > "$SMOKE/sweep.txt"
grep -q "16 walkers" "$SMOKE/sweep.txt"
rc=0
./target/release/repro --quick --cache "$SMOKE/ncache" --tenants 5 tenants > /dev/null 2> "$SMOKE/tenants5.err" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "n-tenant smoke: --tenants 5 should exit 2, got $rc" >&2
  exit 1
fi
grep -q "tenants" "$SMOKE/tenants5.err"

echo "== trace smoke =="
# Trace one pair at quick scale: the run must exit 0, emit valid JSONL
# (repro replays the trace and self-checks pw_share bit-for-bit before
# exiting 0), and every line must be a JSON object tagged with "ev".
./target/release/repro --quick --trace "$SMOKE/trace.jsonl" \
  --trace-filter walk,steal,epoch --pair GUPS,MM --policy dws > "$SMOKE/timeline.txt"
test -s "$SMOKE/trace.jsonl"
if grep -qv '^{"ev":' "$SMOKE/trace.jsonl"; then
  echo "trace smoke: malformed JSONL line in trace" >&2
  exit 1
fi

echo "== churn smoke =="
# The dynamic-tenancy engine end-to-end: the churn suites print their
# golden-guarded tables (the heavy suite must show at least one eviction),
# --suite aliases an experiment name, and --scenario runs a hand-written
# JSON timeline through the SLO controller.
./target/release/repro --quick --cache "$SMOKE/churn" --suite churn_light churn_heavy > "$SMOKE/churn.txt"
grep -q "Fairness under churn (light)" "$SMOKE/churn.txt"
grep -q "Fairness under churn (heavy)" "$SMOKE/churn.txt"
# Heavy churn under the tight SLO must actually evict somewhere (the mean
# eviction row is non-zero in the golden table).
grep -q "Evict" "$SMOKE/churn.txt"
cat > "$SMOKE/scenario.json" <<'EOF'
{
  "events": [
    {"arrive": {"cycle": 0, "app": "GUPS"}},
    {"arrive": {"cycle": 0, "app": "MM"}},
    {"slo_target": {"tenant": 1, "p99_cycles": 900}},
    {"depart": {"cycle": 60000, "tenant": 0}}
  ],
  "slo": {"check_interval": 5000, "evict_after": 3, "min_samples": 32}
}
EOF
./target/release/repro --quick --scenario "$SMOKE/scenario.json" > "$SMOKE/scenario.txt"
grep -q "tenant 0 (GUPS)" "$SMOKE/scenario.txt"
grep -q "evictions" "$SMOKE/scenario.txt"
# A zero SLO check interval would reschedule the check at the same cycle
# forever; --scenario must reject it with exit 1 instead of hanging.
sed 's/"check_interval": 5000/"check_interval": 0/' "$SMOKE/scenario.json" > "$SMOKE/zero.json"
grep -q '"check_interval": 0' "$SMOKE/zero.json"
rc=0
timeout 60 ./target/release/repro --quick --scenario "$SMOKE/zero.json" > /dev/null 2> "$SMOKE/zero.err" || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "churn smoke: a zero check_interval should exit 1, got $rc" >&2
  exit 1
fi
grep -q "check_interval" "$SMOKE/zero.err"
# A tenant profile the warp streams cannot run is a typed configuration
# error as well: an empty hot region, cold regions that lay pages out
# past the 2^36-page reach of a 4 KB page table, cold regions inside
# the reach whose 32 warps need more frames than a 32-bit page-table
# entry can hold, or more distinct references per instruction than a
# warp has threads. Each must exit 1 with its diagnostic, not panic.
cat > "$SMOKE/profile.json" <<'EOF'
{
  "events": [
    {"arrive": {"cycle": 0, "app": "GUPS"}},
    {"arrive": {"cycle": 0, "profile": {"id": "MM", "mean_compute": 24.0, "divergence": 1,
      "hot_pages": 2, "cold_pages": 8, "cold_prob": 0.003, "warm_pages": 320, "warm_prob": 0.35,
      "storm_every_ops": 800, "storm_ops": 80, "storm_cold_prob": 0.012,
      "hot_pattern": "sequential", "length_scale": 1.0}}},
    {"depart": {"cycle": 60000, "tenant": 0}}
  ]
}
EOF
sed 's/"hot_pages": 2/"hot_pages": 0/' "$SMOKE/profile.json" > "$SMOKE/nohot.json"
grep -q '"hot_pages": 0' "$SMOKE/nohot.json"
sed 's/"cold_pages": 8/"cold_pages": 68719476736/' "$SMOKE/profile.json" > "$SMOKE/reach.json"
grep -q '"cold_pages": 68719476736' "$SMOKE/reach.json"
sed 's/"cold_pages": 8/"cold_pages": 268435456/' "$SMOKE/profile.json" > "$SMOKE/frames.json"
grep -q '"cold_pages": 268435456' "$SMOKE/frames.json"
sed 's/"divergence": 1,/"divergence": 33,/' "$SMOKE/profile.json" > "$SMOKE/diverge.json"
grep -q '"divergence": 33' "$SMOKE/diverge.json"
for bad in nohot reach frames diverge; do
  rc=0
  timeout 60 ./target/release/repro --quick --scenario "$SMOKE/$bad.json" > /dev/null 2> "$SMOKE/$bad.err" || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "churn smoke: the $bad.json profile should exit 1, got $rc" >&2
    exit 1
  fi
done
grep -q "hot_pages < 1" "$SMOKE/nohot.err"
grep -q "page reach" "$SMOKE/reach.err"
grep -q "32-bit page-table entry" "$SMOKE/frames.err"
grep -q "divergence" "$SMOKE/diverge.err"

echo "== arena smoke =="
# The policy arena end-to-end: the quick-field leaderboard ranks every
# related-work competitor against Baseline / DWS / DWS++ and matches the
# golden snapshot byte-for-byte.
./target/release/repro --quick --cache "$SMOKE/arena" --suite arena_quick > "$SMOKE/arena.txt"
grep -q "Policy arena (quick field)" "$SMOKE/arena.txt"
grep -q "MOSAIC" "$SMOKE/arena.txt"
grep -q "SE-TLB" "$SMOKE/arena.txt"
grep -q "DE-GUARD" "$SMOKE/arena.txt"
cmp "$SMOKE/arena.txt" tests/golden/arena_suite.txt

echo "== fuzz + cache-audit smoke =="
# Replay the checked-in corpus plus a short seeded campaign through the
# stacked differential oracle (scheduler lockstep, end-to-end run,
# trace-replay self-check, fault equivalence). Any divergence exits 1
# after writing a minimized repro under results/fuzz/repros/. Thirty
# scenarios at seed 42 reach every preset, so each L2 TLB organization
# and walk policy meets the oracle here.
./target/release/repro --fuzz 30 --fuzz-seed 42 2> "$SMOKE/fuzz.txt"
grep -q "clean" "$SMOKE/fuzz.txt"
grep -q "coverage:" "$SMOKE/fuzz.txt"
grep -q "coverage: 14/14 presets" "$SMOKE/fuzz.txt"
# The cache auditor must pass a sample of the smoke cache populated above.
./target/release/repro --quick --cache "$SMOKE/cache" --verify-cache 3 2> "$SMOKE/audit.txt"
grep -q -- "-> 0 stale" "$SMOKE/audit.txt"

echo "tier-1 OK"
