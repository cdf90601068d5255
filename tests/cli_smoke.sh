#!/bin/sh
# End-to-end smoke test of the wym_cli binary: generate -> profile ->
# train (+save) -> explain (load) -> stats -> verify, plus the exit-code
# contract (1 = usage, 2 = I/O error, 3 = corruption). Run by ctest with
# the CLI path as $1 and (optionally) the wym_lint path as $2, which
# enables the analyzer's own exit-code contract checks (0 = clean,
# 5 = findings, 6 = stale suppression) against throwaway fixture trees.
# When $3 names the wym_serve binary, the serving lifecycle rides along
# too: start, readiness, query, hot-load, corrupt-reject, SIGTERM drain.
set -e
CLI="$1"
LINT="$2"
SERVE="$3"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$CLI" list | grep -q "S-FZ"

"$CLI" generate --dataset S-FZ --out "$WORK/data.csv" --scale 0.3 --seed 7
test -s "$WORK/data.csv"

"$CLI" profile --data "$WORK/data.csv" | grep -q "records"

"$CLI" train-eval --data "$WORK/data.csv" --save "$WORK/model.wym" \
  | grep -q "test precision"
test -s "$WORK/model.wym"

# Training is byte-identical across thread counts: the same CSV trained
# on one thread and on four gives the same model file.
WYM_THREADS=1 "$CLI" train-eval --data "$WORK/data.csv" \
  --save "$WORK/model-t1.wym" > /dev/null
WYM_THREADS=4 "$CLI" train-eval --data "$WORK/data.csv" \
  --save "$WORK/model-t4.wym" > /dev/null
cmp "$WORK/model-t1.wym" "$WORK/model-t4.wym"

"$CLI" explain --data "$WORK/data.csv" --record 2 --model "$WORK/model.wym" \
  | grep -q "prediction:"

"$CLI" explain --data "$WORK/data.csv" --record 2 --model "$WORK/model.wym" \
  --json | grep -q '"units"'

"$CLI" stats --data "$WORK/data.csv" --model "$WORK/model.wym" \
  | grep -q "global attribution"

# verify: an intact model file passes and lists its sections.
"$CLI" verify --model "$WORK/model.wym" | grep -q "verified"

# Expects an exact exit code from a command whose failure output goes to
# stderr only.
expect_exit() {
  want="$1"
  shift
  set +e
  "$@" 2>"$WORK/stderr.txt"
  got=$?
  set -e
  if [ "$got" -ne "$want" ]; then
    echo "expected exit $want, got $got from: $*" >&2
    exit 1
  fi
  test -s "$WORK/stderr.txt" || {
    echo "expected a stderr message from: $*" >&2
    exit 1
  }
}

# Exit 3: a corrupted model file (one byte flipped mid-file).
size=$(wc -c < "$WORK/model.wym")
half=$((size / 2))
{
  head -c "$half" "$WORK/model.wym"
  printf 'X'
  tail -c +"$((half + 2))" "$WORK/model.wym"
} > "$WORK/corrupt.wym"
expect_exit 3 "$CLI" verify --model "$WORK/corrupt.wym"
expect_exit 3 "$CLI" explain --data "$WORK/data.csv" --record 2 \
  --model "$WORK/corrupt.wym"

# Exit 2: a model file that does not exist.
expect_exit 2 "$CLI" verify --model "$WORK/no-such-model.wym"

# Exit 2: every command that reads a report or journal file, when the
# file does not exist.
expect_exit 2 "$CLI" validate-report --file "$WORK/no-such-report.json"
expect_exit 2 "$CLI" compare-reports "$WORK/no-such-report.json" \
  "$WORK/no-such-report.json"
expect_exit 2 "$CLI" tail --file "$WORK/no-such-journal.jsonl"

# Exit 1: usage errors.
expect_exit 1 "$CLI" verify
expect_exit 1 "$CLI" generate --dataset NOPE --out "$WORK/x.csv"
# An unknown pool member is refused by name before any fitting, as an
# unknown encoder is.
expect_exit 1 "$CLI" train-eval --data "$WORK/data.csv" --classifier NOPE
grep -q -- "--classifier NOPE" "$WORK/stderr.txt"
expect_exit 1 "$CLI" train-eval --data "$WORK/data.csv" --encoder NOPE

# Exit 1: a malformed numeric flag is rejected by name before any work,
# not read as 0 (or, for "-1", wrapped around to 2^64-1).
expect_exit 1 "$CLI" generate --dataset S-FZ --out "$WORK/bad.csv" \
  --scale abc
grep -q -- "--scale" "$WORK/stderr.txt"
test ! -e "$WORK/bad.csv"
expect_exit 1 "$CLI" explain --data "$WORK/data.csv" --record 2x \
  --model "$WORK/model.wym"
grep -q -- "--record" "$WORK/stderr.txt"
expect_exit 1 "$CLI" compare-reports a.json b.json --tolerance 1x

# Exit 4: compare-reports fails the gate on a benchmark with no baseline
# entry (a renamed benchmark), labelled MISSING; a current report that
# runs a subset of the baseline passes.
bench_report() {
  printf '{"schema":"wym-bench-report/v1","bench":"micro","benchmarks":[%s],' "$1"
  printf '"metrics":{"counters":{},"gauges":{},"histograms":{}}}\n'
}
bench_report '{"name":"BM_A","time_ns":100},{"name":"BM_B","time_ns":100}' \
  > "$WORK/baseline.json"
bench_report '{"name":"BM_A","time_ns":100}' > "$WORK/subset.json"
bench_report '{"name":"BM_A","time_ns":100},{"name":"BM_C","time_ns":100}' \
  > "$WORK/renamed.json"
"$CLI" compare-reports "$WORK/baseline.json" "$WORK/subset.json" > /dev/null
expect_exit 4 "$CLI" compare-reports "$WORK/baseline.json" \
  "$WORK/renamed.json"
"$CLI" compare-reports "$WORK/baseline.json" "$WORK/renamed.json" \
  2> /dev/null | grep -q "MISSING   BM_C"

# A truncated save must never leave a damaged file behind: verify still
# passes on the original after the failed overwrite attempt above.
"$CLI" verify --model "$WORK/model.wym" > /dev/null

# ---------------------------------------------------------------------
# wym_lint exit-code contract (when the analyzer path was provided).
# Findings go to stdout, not stderr, so this needs its own helper.
if [ -n "$LINT" ]; then
  expect_lint_exit() {
    want="$1"
    shift
    set +e
    "$@" > "$WORK/lint-out.txt" 2>&1
    got=$?
    set -e
    if [ "$got" -ne "$want" ]; then
      echo "expected exit $want, got $got from: $*" >&2
      cat "$WORK/lint-out.txt" >&2
      exit 1
    fi
  }

  # Exit 0: a clean fixture tree.
  mkdir -p "$WORK/clean/src/core"
  printf 'namespace wym::core {\nint F() { return 1; }\n}\n' \
    > "$WORK/clean/src/core/m.cc"
  expect_lint_exit 0 "$LINT" lint "$WORK/clean"
  expect_lint_exit 0 "$LINT" graph "$WORK/clean"
  expect_lint_exit 0 "$LINT" taint "$WORK/clean"

  # Exit 5: an upward include (src/la reaching into src/core).
  mkdir -p "$WORK/up/src/la" "$WORK/up/src/core"
  printf '#pragma once\n' > "$WORK/up/src/core/model.h"
  printf '#include "core/model.h"\n' > "$WORK/up/src/la/vec.cc"
  expect_lint_exit 5 "$LINT" graph "$WORK/up"
  grep -q 'layer-order' "$WORK/lint-out.txt"

  # Exit 5: a taint chain (raw clock helper called from SaveToFile).
  mkdir -p "$WORK/taint/src/core"
  {
    printf 'namespace wym::core {\n'
    printf 'long Ticks() { return std::chrono::steady_clock::now()'
    printf '.time_since_epoch().count(); }\n'
    printf 'void SaveToFile(const char* p) { long t = Ticks(); '
    printf '(void)p; (void)t; }\n'
    printf '}\n'
  } > "$WORK/taint/src/core/m.cc"
  expect_lint_exit 5 "$LINT" taint "$WORK/taint"
  grep -q 'taint-flow' "$WORK/lint-out.txt"

  # Exit 6: a stale suppression outranks plain findings.
  mkdir -p "$WORK/stale/src/core"
  {
    printf '// wym-lint: allow(layer-order): excuses nothing\n'
    printf 'int x;\n'
  } > "$WORK/stale/src/core/m.cc"
  expect_lint_exit 6 "$LINT" graph "$WORK/stale"
  grep -q 'stale-suppression' "$WORK/lint-out.txt"

  # JSON output is schema-tagged and byte-identical across runs.
  "$LINT" taint "$WORK/taint" --format=json > "$WORK/a.json" || true
  "$LINT" taint "$WORK/taint" --format=json > "$WORK/b.json" || true
  grep -q 'wym-analysis-report/v1' "$WORK/a.json"
  cmp -s "$WORK/a.json" "$WORK/b.json"

  # Exit 2 stays reserved for usage / IO errors.
  expect_exit 2 "$LINT" graph "$WORK/no-such-dir"
fi

# ---------------------------------------------------------------------
# wym_serve lifecycle (when the server path was provided): the
# robustness contract end to end, over a real Unix socket.
if [ -n "$SERVE" ]; then
  # Malformed numeric flags exit 1 before the server listens: "-1" is
  # not an unbounded cache, "abc" is not a queue bound of 0.
  expect_exit 1 "$SERVE" --socket "$WORK/bad.sock" \
    --model "default=$WORK/model.wym" --cache -1
  grep -q -- "--cache" "$WORK/stderr.txt"
  expect_exit 1 "$SERVE" --socket "$WORK/bad.sock" \
    --model "default=$WORK/model.wym" --queue-bound abc
  grep -q -- "--queue-bound" "$WORK/stderr.txt"
  test ! -e "$WORK/bad.sock"

  SOCK="$WORK/wym.sock"
  # Telemetry rides along: a request journal with a deliberately tiny
  # rotation bound (1 KB, a handful of lines), a periodic
  # wym-telemetry/v1 export and a flight recorder dumped at drain.
  "$SERVE" --socket "$SOCK" --model "default=$WORK/model.wym" \
    --stats-out "$WORK/final-stats.json" \
    --journal "$WORK/journal.jsonl" --journal-max-kb 1 \
    --telemetry-out "$WORK/telemetry.json" --telemetry-period 1 \
    --recorder 16 --recorder-out "$WORK/drain-recorder.json" \
    > "$WORK/serve.log" 2>&1 &
  # The binary is backgrounded directly (no subshell wrapper), so $! is
  # the server's own PID — the one SIGTERM must reach for a clean drain.
  SERVE_PID=$!

  # Readiness: ping until the socket answers (query retries connects
  # with backoff internally; the loop bounds total startup patience).
  ready=0
  for _ in 1 2 3 4 5 6 7 8 9 10; do
    if "$CLI" query --socket "$SOCK" --op ping > /dev/null 2>&1; then
      ready=1
      break
    fi
    sleep 1
  done
  if [ "$ready" -ne 1 ]; then
    echo "wym_serve never became ready" >&2
    cat "$WORK/serve.log" >&2
    exit 1
  fi

  # Predict over the wire; a repeat of the same pair is a cache hit.
  "$CLI" query --socket "$SOCK" \
    --left 'sony dslr a100 camera|10.2mp' \
    --right 'sony dslr-a100|10.2 megapixel' | grep -q "probability"
  "$CLI" query --socket "$SOCK" \
    --left 'sony dslr a100 camera|10.2mp' \
    --right 'sony dslr-a100|10.2 megapixel' | grep -q "(cached)"

  # Hot-load the same file under a second name, then query it.
  "$CLI" query --socket "$SOCK" --op load_model \
    --name beta --path "$WORK/model.wym" | grep -q '"beta"'
  "$CLI" query --socket "$SOCK" --op list_models | grep -q '"beta"'
  "$CLI" query --socket "$SOCK" --model beta \
    --left 'a|b' --right 'a|b' | grep -q "prediction"

  # A corrupt hot-load is rejected with the corruption exit code and
  # the previously loaded model keeps serving.
  expect_exit 3 "$CLI" query --socket "$SOCK" --op load_model \
    --name default --path "$WORK/corrupt.wym"
  "$CLI" query --socket "$SOCK" \
    --left 'canon eos|8mp' --right 'canon eos 350d|8mp' \
    | grep -q "prediction"

  # Stats exposes the overload-policy state plus the telemetry sections
  # (windows/journal/recorder appear only when the sinks are configured;
  # this server runs with all three).
  "$CLI" query --socket "$SOCK" --op stats > "$WORK/stats.json"
  grep -q '"queue_bound"' "$WORK/stats.json"
  grep -q '"windows"' "$WORK/stats.json"
  grep -q '"journal"' "$WORK/stats.json"
  grep -q '"recorder"' "$WORK/stats.json"

  # Live observability over the running server: top renders windowed
  # rates, tail prints the newest journal lines.
  "$CLI" top --socket "$SOCK" | grep -q "qps"
  "$CLI" tail --file "$WORK/journal.jsonl" --lines 3 \
    | grep -q '"schema":"wym-journal/v1"'

  # A hostile client id: '"', '\', a newline and twelve two-byte
  # U+00E9, 28 bytes in all. The journal keeps the first 23 bytes cut
  # back to a code point boundary (the 4 ASCII bytes and nine U+00E9),
  # escaped in place. Sent last, so its line is in the active journal
  # file and in the recorder ring at drain.
  ACCENTS9=$(printf '\303\251\303\251\303\251\303\251\303\251\303\251\303\251\303\251\303\251')
  HOSTILE_ID=$(printf 'q"\\\n%s\303\251\303\251\303\251' "$ACCENTS9")
  EXPECTED_ID='"client_id":"q\"\\\n'"$ACCENTS9"'"'
  "$CLI" query --socket "$SOCK" --id "$HOSTILE_ID" \
    --left 'a|b' --right 'a|b' | grep -q "prediction"

  # SIGTERM: graceful drain — exit 0 and the final stats snapshot
  # flushed to --stats-out with the drained state recorded.
  kill -TERM "$SERVE_PID"
  set +e
  wait "$SERVE_PID"
  serve_status=$?
  set -e
  if [ "$serve_status" -ne 0 ]; then
    echo "wym_serve exited $serve_status on SIGTERM" >&2
    cat "$WORK/serve.log" >&2
    exit 1
  fi
  grep -q '"draining":true' "$WORK/final-stats.json"

  # The session answered enough requests to cross the 1 KB journal
  # bound at least once, so both the active file and the rotated .1
  # file must exist and validate as wym-journal/v1; the drain also
  # flushed a final wym-telemetry/v1 export.
  "$CLI" validate-report --file "$WORK/journal.jsonl" \
    | grep -q "request journal"
  test -s "$WORK/journal.jsonl.1"
  "$CLI" validate-report --file "$WORK/journal.jsonl.1" > /dev/null
  "$CLI" validate-report --file "$WORK/telemetry.json" \
    | grep -q "valid telemetry"
  # The hostile id reads back from both artifacts as the sent prefix.
  "$CLI" validate-report --file "$WORK/drain-recorder.json" \
    | grep -q "flight-recorder dump"
  grep -q '"reason":"drain"' "$WORK/drain-recorder.json"
  grep -qF "$EXPECTED_ID" "$WORK/journal.jsonl"
  grep -qF "$EXPECTED_ID" "$WORK/drain-recorder.json"

  # -------------------------------------------------------------------
  # Watchdog + flight recorder: a second short-lived server with debug
  # ops enabled. A debug_sleep request wedges a worker past the
  # watchdog bound; the watchdog answers it (deadline exceeded -> CLI
  # exit 2) and dumps the flight-recorder ring as a postmortem that
  # records the wedged request.
  SOCK2="$WORK/wym2.sock"
  "$SERVE" --socket "$SOCK2" --model "default=$WORK/model.wym" \
    --enable-debug-ops --watchdog-ms 100 --watchdog-interval-ms 50 \
    --recorder 16 --recorder-out "$WORK/postmortem.json" \
    > "$WORK/serve2.log" 2>&1 &
  SERVE2_PID=$!
  ready=0
  for _ in 1 2 3 4 5 6 7 8 9 10; do
    if "$CLI" query --socket "$SOCK2" --op ping > /dev/null 2>&1; then
      ready=1
      break
    fi
    sleep 1
  done
  if [ "$ready" -ne 1 ]; then
    echo "wym_serve (watchdog scenario) never became ready" >&2
    cat "$WORK/serve2.log" >&2
    exit 1
  fi
  expect_exit 2 "$CLI" query --socket "$SOCK2" --op debug_sleep \
    --sleep-ms 5000 --retries 0 --timeout-ms 10000
  # The dump happens on the watchdog thread right after the answer, so
  # give the file a moment to land.
  dumped=0
  for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    if [ -s "$WORK/postmortem.json" ]; then
      dumped=1
      break
    fi
    sleep 0.2
  done
  if [ "$dumped" -ne 1 ]; then
    echo "watchdog never dumped the flight recorder" >&2
    cat "$WORK/serve2.log" >&2
    exit 1
  fi
  grep -q '"outcome":"wedged"' "$WORK/postmortem.json"
  grep -q '"reason":"watchdog"' "$WORK/postmortem.json"
  "$CLI" validate-report --file "$WORK/postmortem.json" \
    | grep -q "flight-recorder dump"
  kill -TERM "$SERVE2_PID"
  set +e
  wait "$SERVE2_PID"
  serve2_status=$?
  set -e
  if [ "$serve2_status" -ne 0 ]; then
    echo "wym_serve (watchdog scenario) exited $serve2_status" >&2
    cat "$WORK/serve2.log" >&2
    exit 1
  fi
fi

echo "cli smoke OK"
