#!/usr/bin/env bash
# Measures the halotis-serve daemon end to end: build, start on a private
# Unix-domain socket, replay the standard corpus with halotis-load, convert
# the latency report into the machine-readable bench JSON the perf gate
# consumes (serve/load/p50..p99, serve/simulate/p50..p99,
# serve/request_period).
#
# usage: scripts/serve_bench.sh [OUT_JSON] [CLIENTS] [REPEATS]
#
# The committed BENCH_serve.json baseline was captured with the defaults
# (4 clients, 2 repeats) — regenerate by committing this script's output,
# not by loosening the CI gate's tolerance.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_serve_fresh.json}
CLIENTS=${2:-4}
REPEATS=${3:-2}
SOCK=$(mktemp -u "${TMPDIR:-/tmp}/halotis-serve.XXXXXX.sock")
TIMING=serve_timing.txt

cargo build --release --bin halotis-serve --bin halotis-load

# --cache 32 holds the whole 24-entry corpus, so the capture measures the
# steady-state serve path rather than eviction/recompile churn (the load
# generator tolerates eviction by re-loading, but that is not the number
# this baseline tracks).
target/release/halotis-serve --uds "$SOCK" --workers 4 --cache 32 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -f "$SOCK"' EXIT

for _ in $(seq 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "halotis-serve did not come up on $SOCK" >&2; exit 1; }

target/release/halotis-load --uds "$SOCK" \
  --clients "$CLIENTS" --repeats "$REPEATS" --timing "$TIMING" --shutdown
wait "$SERVE_PID"
trap - EXIT

python3 scripts/bench_to_json.py "$OUT" "$TIMING"
echo "wrote $OUT"
