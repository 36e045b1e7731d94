#!/usr/bin/env bash
# Repository CI gate. Run from the workspace root:
#
#   ./ci.sh
#
# Everything here works fully offline (the workspace has no external
# dependencies, dev-dependencies included).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== golden + determinism + invariant suites (incl. Small tier) =="
# Also part of the workspace run above; named here so a regression in
# the reference results fails with these suites' messages up front.
# Release profile: they re-simulate the reference configurations, and
# — release only — the Small-scale tier: the small_tree_* goldens and
# the Small ordering/gather-ratio invariants (debug builds skip those
# to keep the tier-1 `cargo test` lane fast).
cargo test --release -q --test golden_runs --test determinism --test invariants

echo "== Full-scale digest pin: design O x 8 apps at Table I =="
# The goldens above are 2-rank runs, so nothing else pins the paper's
# geometry. This #[ignore]d test hashes RunResult::to_json for design O
# on every app at Scale::Full and compares against
# tests/golden/full_o_digests.txt (about 10 s on 2 workers).
cargo test --release -q --test golden_runs -- --ignored

echo "== repro fig10 smoke: --jobs determinism and warm cache =="
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
REPRO=target/release/repro
SMOKE_ARGS=(fig10 --tiny --apps tree,spmv)
# Cold run with the cache enabled, then: a 2-worker cache-less run must
# print byte-identical output, and a warm cached run must simulate 0
# points (the stderr sweep summary carries the counters).
"$REPRO" "${SMOKE_ARGS[@]}" --jobs 1 --cache-dir "$SMOKE_DIR/cache" > "$SMOKE_DIR/j1.txt" 2>/dev/null
"$REPRO" "${SMOKE_ARGS[@]}" --jobs 2 --no-cache > "$SMOKE_DIR/j2.txt" 2>/dev/null
cmp "$SMOKE_DIR/j1.txt" "$SMOKE_DIR/j2.txt"
"$REPRO" "${SMOKE_ARGS[@]}" --jobs 2 --cache-dir "$SMOKE_DIR/cache" > "$SMOKE_DIR/warm.txt" 2> "$SMOKE_DIR/warm.err"
cmp "$SMOKE_DIR/j1.txt" "$SMOKE_DIR/warm.txt"
grep -q "8 cache hits, 0 simulated" "$SMOKE_DIR/warm.err"

echo "== repro flag smoke: bad flags, values and subcommands are rejected =="
# A removed or misspelled flag, an unparsable or missing value, an
# unknown application and a removed subcommand must each fail loudly
# (exit 2 with the usage line) instead of being silently ignored.
expect_usage_error() {
    local status=0
    "$REPRO" "$@" > /dev/null 2> "$SMOKE_DIR/badflag.err" || status=$?
    test "$status" -eq 2 || { echo "repro $* exited $status, expected 2"; exit 1; }
    grep -q "^usage: repro" "$SMOKE_DIR/badflag.err"
}
expect_usage_error fig10 --tiny --shards 2
expect_usage_error bench
expect_usage_error gather --tiny --steal-budget x
expect_usage_error fig10 --tiny --cache-dir
expect_usage_error fig10 --tiny --apps nope

echo "== repro audit smoke: conservation laws under --audit =="
# A fully-audited sweep (every epoch checks message conservation,
# toArrive balance, dataBorrowed inclusivity, ledger totals, bus
# sanity) aborts non-zero on any violation; release builds default the
# auditor off, so --audit is what engages it here. Audited points key
# the cache differently, so this cannot be satisfied by the entries
# the smoke above just wrote. The breakdown must also balance: the
# `audit` subcommand asserts ledger-rows == comm totals internally and
# prints the zero-violations line only after all points complete.
"$REPRO" "${SMOKE_ARGS[@]}" --audit --jobs 2 --cache-dir "$SMOKE_DIR/cache" > "$SMOKE_DIR/audited.txt" 2>/dev/null
cmp "$SMOKE_DIR/j1.txt" "$SMOKE_DIR/audited.txt"   # auditor is observational
"$REPRO" audit --tiny --apps tree,spmv --jobs 2 --no-cache > "$SMOKE_DIR/ledger.txt" 2>/dev/null
grep -q "auditor: zero violations" "$SMOKE_DIR/ledger.txt"

echo "== repro gather smoke: gather-cost-aware stealing ablation =="
# The fig10-analog ablation sweep behind DESIGN.md §10 (B, the W
# ladder, O±GA) must run end-to-end and report the headline metric.
# Tiny scale and two apps keep it in the seconds; the *measured* claim
# (>= 2x fewer gather bytes at Small) is gated by the release
# invariants suite above, not re-measured here.
"$REPRO" gather --tiny --apps tree,spmv --no-cache > "$SMOKE_DIR/gather.txt" 2>/dev/null
grep -q "gather reduction W+GA vs W:" "$SMOKE_DIR/gather.txt"
grep -q "W+Byte" "$SMOKE_DIR/gather.txt"

echo "== perfbench smoke: the repository benchmark at Tiny =="
# perfbench/ (declared by BENCHMARK.json) is the repo's only timing
# harness. Its own smoke test runs all three workloads at Tiny, timed
# and traced, and requires every metric with its unit and 0 failures;
# the timings themselves are not gated here.
cargo test --release -q --manifest-path perfbench/Cargo.toml

echo "== repro serve smoke: run / dedup-cache / metrics / graceful shutdown =="
# Drives the resident service over HTTP/1.0 through bash's /dev/tcp —
# no curl or netcat needed. The server closes an HTTP/1.0 connection
# after its reply, so everything after the blank line that ends the
# head is the body. The sequence asserts the service pipeline
# end-to-end: submit a Tiny point, poll the job to completion, resubmit
# the identical request (must be a cache hit, not a second simulation),
# check /metrics reflects that, then shut down gracefully and require a
# clean exit.
"$REPRO" serve --port 0 --jobs 2 --cache-dir "$SMOKE_DIR/serve-cache" \
    2> "$SMOKE_DIR/serve.log" &
SRV=$!
SERVE_PORT=""
for _ in $(seq 1 100); do
    SERVE_PORT=$(grep -o 'listening on 127\.0\.0\.1:[0-9]*' "$SMOKE_DIR/serve.log" 2>/dev/null | grep -o '[0-9]*$' || true)
    [ -n "$SERVE_PORT" ] && break
    kill -0 "$SRV" 2>/dev/null || { echo "serve exited early:"; cat "$SMOKE_DIR/serve.log"; exit 1; }
    sleep 0.1
done
[ -n "$SERVE_PORT" ] || { echo "serve never reported its port"; cat "$SMOKE_DIR/serve.log"; exit 1; }
serve_call() {  # METHOD PATH [BODY]: one HTTP/1.0 request, prints the reply body
    local body=${3:-}
    exec 3<>"/dev/tcp/127.0.0.1/$SERVE_PORT"
    printf '%s %s HTTP/1.0\r\nContent-Length: %s\r\n\r\n%s' "$1" "$2" "${#body}" "$body" >&3
    sed '1,/^\r$/d' <&3
    exec 3<&- 3>&-
}
RUN_BODY='{"app":"ll","design":"C","scale":"tiny"}'
serve_call POST /run "$RUN_BODY" | grep -q '"id":1'
for _ in $(seq 1 600); do
    JOB=$(serve_call GET /job/1)
    case "$JOB" in *'"status":"done"'*) break ;; esac
    sleep 0.2
done
case "$JOB" in *'"status":"done"'*) ;; *) echo "job 1 never finished: $JOB"; exit 1 ;; esac
serve_call POST /run "$RUN_BODY" | grep -q '"status":"done"'
METRICS=$(serve_call GET /metrics)
grep -q '"cache_hits":1' <<< "$METRICS"
# The completed run must surface its throughput snapshot (events and
# events/sec are machine-dependent; presence and non-zero are gated).
grep -q '"completed":1' <<< "$METRICS"
grep -qv '"last_run":{"events":0' <<< "$METRICS"
serve_call POST /shutdown | grep -q '"draining":true'
wait "$SRV"   # graceful shutdown must exit 0 (set -e gates this)
grep -q "drained, exiting" "$SMOKE_DIR/serve.log"

echo "CI OK"
