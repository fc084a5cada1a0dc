#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test pass.
# Run from the repository root before pushing.
set -euo pipefail
cd "$(dirname "$0")"

# Every suite runs under a hard wall-clock timeout: a hang (a worker that
# never observes its cancel token, an admission queue that never wakes) is
# a FAILURE here, not a stuck pipeline. `timeout` exits 124 on expiry,
# which trips `set -e`.
SUITE_TIMEOUT=${SUITE_TIMEOUT:-900}
BUILD_TIMEOUT=${BUILD_TIMEOUT:-1800}

echo "== cargo fmt --check =="
timeout "$BUILD_TIMEOUT" cargo fmt --check

echo "== cargo clippy (workspace, all targets, warnings are errors) =="
timeout "$BUILD_TIMEOUT" cargo clippy --workspace --all-targets -- -D warnings

# The workspace run covers every suite (the root Cargo.toml sets
# default-members), the identity, fault, recovery, parallel, governance
# and overload suites included.
echo "== tier-1: cargo build --release && cargo test -q =="
timeout "$BUILD_TIMEOUT" cargo build --release
timeout "$BUILD_TIMEOUT" cargo test -q

# The ablation binary asserts its own invariants: degraded and rejoined
# answers byte-identical to the healthy run (fault and rejoin arms),
# reassignment never free. Its CSVs land in target/figures.
echo "== ablation: simulator tables with self-asserting identity arms =="
APUAMA_SF=0.01 timeout "$SUITE_TIMEOUT" cargo run --release -p apuama-bench --bin ablation

echo "== bench_smoke: prepared-plan micro arm =="
timeout "$SUITE_TIMEOUT" cargo bench -p apuama-bench --bench prepared -- 100
cat BENCH_prepared.json

echo "== bench_smoke: operator_pipeline arm =="
timeout "$SUITE_TIMEOUT" cargo bench -p apuama-bench --bench operators -- 100
cat BENCH_operators.json

echo "== perf gate: unified pipeline must not regress below the seed =="
bench_cores=$(sed -n 's/.*"cores": \([0-9]*\).*/\1/p' BENCH_operators.json)
pipeline_speedup=$(sed -n 's/.*"pipeline_speedup_vs_seed": \([0-9.]*\).*/\1/p' BENCH_operators.json)
if [ "$bench_cores" -ge 2 ]; then
  if ! awk -v s="$pipeline_speedup" 'BEGIN { exit !(s >= 1.0) }'; then
    echo "FAIL: pipeline_speedup_vs_seed = $pipeline_speedup < 1.0 — the compiled"
    echo "      operator pipeline is slower than the seed interpreter again."
    exit 1
  fi
  echo "perf gate: pipeline_speedup_vs_seed = $pipeline_speedup >= 1.0 on $bench_cores cores"
else
  echo "perf gate: skipped (single core — one noisy scheduler tick swamps the"
  echo "           microsecond arms; pipeline_speedup_vs_seed = $pipeline_speedup recorded only)"
fi

echo "== bench_smoke: parallel_pipeline arm =="
timeout "$SUITE_TIMEOUT" cargo bench -p apuama-bench --bench parallel -- 100
cat BENCH_parallel.json

echo "== perf gate: morsel parallelism must pay for itself on multi-core =="
bench_cores=$(sed -n 's/.*"cores": \([0-9]*\).*/\1/p' BENCH_parallel.json)
parallel_speedup=$(sed -n 's/.*"parallel_speedup_vs_serial": \([0-9.]*\).*/\1/p' BENCH_parallel.json)
if [ "$bench_cores" -ge 2 ]; then
  if ! awk -v s="$parallel_speedup" 'BEGIN { exit !(s >= 1.0) }'; then
    echo "FAIL: parallel_speedup_vs_serial = $parallel_speedup < 1.0 on a"
    echo "      $bench_cores-core machine — morsel workers are slower than serial."
    exit 1
  fi
  echo "perf gate: parallel_speedup_vs_serial = $parallel_speedup >= 1.0 on $bench_cores cores"
else
  echo "perf gate: skipped (single core — morsel workers share one core, so the"
  echo "           coordinator can only add overhead; parallel_speedup_vs_serial = $parallel_speedup recorded only)"
fi

echo "== bench_smoke: columnar_pipeline arm (DESIGN.md §13) =="
timeout "$SUITE_TIMEOUT" cargo bench -p apuama-bench --bench columnar -- 100
cat BENCH_columnar.json

echo "== perf gate: columnar fold must not regress below the row pipeline =="
bench_cores=$(sed -n 's/.*"cores": \([0-9]*\).*/\1/p' BENCH_columnar.json)
columnar_speedup=$(sed -n 's/.*"columnar_speedup_vs_row_pipeline": \([0-9.]*\).*/\1/p' BENCH_columnar.json)
if [ "$bench_cores" -ge 2 ]; then
  if ! awk -v s="$columnar_speedup" 'BEGIN { exit !(s >= 1.0) }'; then
    echo "FAIL: columnar_speedup_vs_row_pipeline = $columnar_speedup < 1.0 — the"
    echo "      typed column-vector fold is slower than the scalar row fold."
    exit 1
  fi
  echo "perf gate: columnar_speedup_vs_row_pipeline = $columnar_speedup >= 1.0 on $bench_cores cores"
else
  echo "perf gate: skipped (single core — one noisy scheduler tick swamps the"
  echo "           microsecond arms; columnar_speedup_vs_row_pipeline = $columnar_speedup recorded only)"
fi

echo "ci: all green"
