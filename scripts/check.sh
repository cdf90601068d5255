#!/bin/sh
# One-shot correctness gate: build + ctest in every supported checking
# configuration, then print a pass/fail summary. Nonzero exit when any
# configuration fails. Run from the repo root:
#
#   sh scripts/check.sh              # all configurations
#   sh scripts/check.sh release      # just one
#                                    # (release|ubsan|asan-ubsan|debug-checks|
#                                    #  tsan|perf-report)
#   sh scripts/check.sh --fast       # release build + static analysis +
#                                    # ctest only (the quick pre-push loop)
#
# Build trees and logs land under build/check/<name>/ so they never
# disturb an existing build/ directory and a single `rm -rf build`
# clears everything. Set JOBS to cap build parallelism.

set -u

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 2)}
ONLY=${1:-all}
CHECK_DIR="$ROOT/build/check"
mkdir -p "$CHECK_DIR"

SUMMARY=""
FAILED=0

run_config() {
  name=$1
  shift
  if [ "$ONLY" != all ] && [ "$ONLY" != "$name" ]; then
    return 0
  fi
  build="$CHECK_DIR/$name"
  log="$CHECK_DIR/$name.log"
  echo "==> [$name] configure + build + ctest ($build)"
  if cmake -B "$build" -S "$ROOT" "$@" > "$log" 2>&1 \
     && cmake --build "$build" -j "$JOBS" >> "$log" 2>&1 \
     && ctest --test-dir "$build" --output-on-failure -j 2 >> "$log" 2>&1
  then
    SUMMARY="$SUMMARY
  PASS  $name"
  else
    SUMMARY="$SUMMARY
  FAIL  $name (see $log)"
    FAILED=1
    tail -n 30 "$log"
  fi
}

# --fast: the pre-push loop. One release build, the three wym_lint
# passes run explicitly (so their findings land on the terminal, not
# just in a ctest log), then the full release ctest suite. Sanitizer
# and perf tiers are the full run's job.
if [ "$ONLY" = "--fast" ]; then
  build="$CHECK_DIR/release"
  log="$CHECK_DIR/fast.log"
  echo "==> [fast] release build + lint/graph/taint + ctest ($build)"
  if ! cmake -B "$build" -S "$ROOT" > "$log" 2>&1 \
     || ! cmake --build "$build" -j "$JOBS" >> "$log" 2>&1; then
    tail -n 30 "$log"
    echo "check.sh --fast: FAIL (build; see $log)"
    exit 1
  fi
  for pass in lint graph taint; do
    if ! "$build/tools/wym_lint" "$pass" "$ROOT"; then
      echo "check.sh --fast: FAIL (wym_lint $pass)"
      exit 1
    fi
  done
  if ! ctest --test-dir "$build" --output-on-failure -j 2 >> "$log" 2>&1
  then
    tail -n 30 "$log"
    echo "check.sh --fast: FAIL (ctest; see $log)"
    exit 1
  fi
  echo "check.sh --fast: PASS"
  exit 0
fi

# Release: the tier-1 configuration, including the wym_lint /
# wym_lint_graph / wym_lint_taint ctest gates.
run_config release
# UBSan: -fno-sanitize-recover=all makes any UB finding a test failure.
run_config ubsan -DWYM_SANITIZE=undefined
# ASan+UBSan: the fault-injection sweep (truncated/bit-flipped model
# files, mid-write failures) must stay memory-clean, not merely return
# the right Status.
run_config asan-ubsan -DWYM_SANITIZE=address,undefined
# Debug invariant tier: WYM_DCHECK bounds/dimension/NaN checks live.
run_config debug-checks -DWYM_DEBUG_CHECKS=ON

# TSan: the suites whose code shares state across threads — the thread
# pool and team, the scorer fit's minibatch rows (filled by phase A's
# helpers, read by phase B's), the encoder's read-only base-embedding
# table, the batch record loop, candidate streaming and the concurrent
# pool fits — run with WYM_THREADS=4. Only these test binaries are
# built, since a full TSan build is slow; any race report makes a binary
# exit nonzero.
run_tsan() {
  name=tsan
  if [ "$ONLY" != all ] && [ "$ONLY" != "$name" ]; then
    return 0
  fi
  build="$CHECK_DIR/$name"
  log="$CHECK_DIR/$name.log"
  suites="parallel_test nn_test embedding_test core_test candidate_stream_test baselines_test"
  echo "==> [$name] configure + build + run $suites ($build)"
  ok=1
  if cmake -B "$build" -S "$ROOT" -DWYM_SANITIZE=thread > "$log" 2>&1 \
     && cmake --build "$build" -j "$JOBS" --target $suites >> "$log" 2>&1
  then
    for suite in $suites; do
      echo "--- $suite" >> "$log"
      WYM_THREADS=4 "$build/tests/$suite" >> "$log" 2>&1 || ok=0
    done
  else
    ok=0
  fi
  if [ "$ok" = 1 ]; then
    SUMMARY="$SUMMARY
  PASS  $name"
  else
    SUMMARY="$SUMMARY
  FAIL  $name (see $log)"
    FAILED=1
    tail -n 30 "$log"
  fi
}
run_tsan

# Short live serving session with telemetry on: train a tiny model,
# serve it, answer a few requests, drain, then require the exported
# wym-telemetry/v1 artifact and the request journal to validate. This
# is the end-to-end proof that a real wym_serve run leaves
# schema-valid telemetry behind.
serve_telemetry_check() {
  build=$1
  work="$CHECK_DIR/serve-telemetry"
  rm -rf "$work"
  mkdir -p "$work"
  "$build/tools/wym_cli" generate --dataset S-FZ --out "$work/data.csv" \
    --seed 42 --scale 0.2 || return 1
  "$build/tools/wym_cli" train-eval --data "$work/data.csv" \
    --save "$work/model.wym" || return 1
  "$build/tools/wym_serve" --socket "$work/wym.sock" \
    --model "default=$work/model.wym" \
    --journal "$work/journal.jsonl" \
    --recorder 64 --recorder-out "$work/postmortem.json" \
    --telemetry-out "$work/telemetry.json" --telemetry-period 1 &
  serve_pid=$!
  i=0
  until "$build/tools/wym_cli" query --socket "$work/wym.sock" --op ping \
        --retries 0 --timeout-ms 2000 > /dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
      kill "$serve_pid" 2>/dev/null
      wait "$serve_pid" 2>/dev/null
      return 1
    fi
    sleep 0.1
  done
  for n in 1 2 3 4 5 6 7 8; do
    "$build/tools/wym_cli" query --socket "$work/wym.sock" --op ping \
      --retries 0 > /dev/null 2>&1 || { kill "$serve_pid" 2>/dev/null; \
        wait "$serve_pid" 2>/dev/null; return 1; }
  done
  sleep 1
  "$build/tools/wym_cli" query --socket "$work/wym.sock" --op shutdown \
    --retries 0 > /dev/null 2>&1
  wait "$serve_pid" || return 1
  "$build/tools/wym_cli" validate-report --file "$work/telemetry.json" \
    || return 1
  "$build/tools/wym_cli" validate-report --file "$work/journal.jsonl" \
    || return 1
  "$build/tools/wym_cli" validate-report --file "$work/postmortem.json"
}

# Perf report: bench_micro --json and bench_blocking --json must emit
# schema-valid wym-bench-report/v1 files (the BENCH_*.json trajectory).
# Reuses the release tree; a short benchmark subset and a small blocking
# table keep the step fast. The fresh micro report is then gated against
# the seeded repo-root BENCH_micro.json via compare-reports: every
# benchmark the filter selects must have a baseline entry (a MISSING one
# fails the gate), and the 60% tolerance (vs the
# tool's 10% default) absorbs the noise of short runs on loaded
# single-CPU CI boxes while still catching order-of-magnitude cliffs.
# Reseed the baseline after intentional perf changes (see DESIGN.md).
# The serve benchmarks put the telemetry on/off pair into the report so
# the <=2% overhead budget is visible in the BENCH_micro.json
# trajectory, and serve_telemetry_check proves a live session exports
# valid artifacts. BM_MlpPredict / BM_MlpPredictRows gate the relevance
# scorer's inference (one row, and one 39-unit record in one batch),
# BM_MlpFit its training (one epoch over 2048 units on the global pool),
# BM_JournalAppend the request journal's per-line hot path,
# BM_KnnPredict one KNN probability at the er_tables model's shape and
# BM_GbmFit one GBM fit at the S-WA pool shape (the tree learners'
# presorted split search).
run_perf_report() {
  name=perf-report
  if [ "$ONLY" != all ] && [ "$ONLY" != "$name" ]; then
    return 0
  fi
  build="$CHECK_DIR/release"
  log="$CHECK_DIR/perf-report.log"
  report="$build/BENCH_micro.json"
  blocking_report="$build/BENCH_blocking.json"
  echo "==> [$name] bench_micro/bench_blocking --json + schema validation"
  if cmake -B "$build" -S "$ROOT" > "$log" 2>&1 \
     && cmake --build "$build" -j "$JOBS" \
        --target bench_micro bench_blocking wym_cli wym_serve_bin \
        >> "$log" 2>&1 \
     && "$build/bench/bench_micro" --json="$report" \
        --benchmark_filter='BM_Dot|BM_UnitGeneration_Cached|BM_ServePredict|BM_MlpPredict|BM_MlpFit|BM_JournalAppend|BM_KnnPredict|BM_GbmFit' \
        --benchmark_min_time=0.01 >> "$log" 2>&1 \
     && "$build/tools/wym_cli" validate-report --file "$report" \
        >> "$log" 2>&1 \
     && WYM_BLOCK_ROWS=500 WYM_BLOCK_BASELINE_ROWS=100 \
        "$build/bench/bench_blocking" --json="$blocking_report" \
        >> "$log" 2>&1 \
     && "$build/tools/wym_cli" validate-report --file "$blocking_report" \
        >> "$log" 2>&1 \
     && serve_telemetry_check "$build" >> "$log" 2>&1 \
     && "$build/tools/wym_cli" compare-reports "$ROOT/BENCH_micro.json" \
        "$report" --tolerance 0.6 >> "$log" 2>&1
  then
    SUMMARY="$SUMMARY
  PASS  $name"
  else
    SUMMARY="$SUMMARY
  FAIL  $name (see $log)"
    FAILED=1
    tail -n 30 "$log"
  fi
}
run_perf_report

echo
echo "check.sh summary:$SUMMARY"
exit $FAILED
