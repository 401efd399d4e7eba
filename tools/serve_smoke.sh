#!/bin/sh
# Daemon <-> client smoke test, run as part of the default ctest suite.
#
# Produces a short trace, starts osn-served on a kernel-assigned port,
# round-trips list/summary/window/chart/timeseries/topk/metrics (summary and
# chart also with a window, and a chart past 1 MiB) through
# `osn-analyze query`, checks every served document is byte-identical to
# the offline planner's, then SIGTERMs the daemon and requires a clean exit.
#
# Usage: serve_smoke.sh <osn-analyze> <osn-served> <workdir>
set -eu

ANALYZE=$1
SERVED=$2
WORK=$3

mkdir -p "$WORK/catalog"
rm -f "$WORK/catalog/ftq.osnt" "$WORK/port" "$WORK/served.json" \
      "$WORK/served_window.json" "$WORK/offline.json" "$WORK/offline_window.json" \
      "$WORK/served_chart.json" "$WORK/offline_chart.json" \
      "$WORK/served_ts.json" "$WORK/offline_ts.json" \
      "$WORK/served_topk.json" "$WORK/offline_topk.json" \
      "$WORK/served_w.json" "$WORK/offline_w.json" \
      "$WORK/served_big.json" "$WORK/offline_big.json"

"$ANALYZE" run ftq --seconds 1 --seed 7 -o "$WORK/catalog/ftq.osnt" > /dev/null 2>&1

"$SERVED" --dir "$WORK/catalog" --port 0 --port-file "$WORK/port" --workers 2 &
SERVED_PID=$!
trap 'kill "$SERVED_PID" 2>/dev/null || true' EXIT

# The port file doubles as the readiness signal.
tries=0
while [ ! -s "$WORK/port" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "FAIL: daemon never wrote the port file" >&2
    exit 1
  fi
  sleep 0.1
done
PORT=$(cat "$WORK/port")

"$ANALYZE" query list --port "$PORT" | grep -q '"name": "ftq"' || {
  echo "FAIL: list does not mention the trace" >&2; exit 1; }

"$ANALYZE" query summary ftq --port "$PORT" > "$WORK/served.json"
"$ANALYZE" export "$WORK/catalog/ftq.osnt" --json "$WORK/offline.json" > /dev/null
cmp "$WORK/served.json" "$WORK/offline.json" || {
  echo "FAIL: served summary differs from offline export" >&2; exit 1; }

"$ANALYZE" query window ftq --window 100:900 --port "$PORT" > "$WORK/served_window.json"
"$ANALYZE" export "$WORK/catalog/ftq.osnt" --window 100:900 \
  --json "$WORK/offline_window.json" > /dev/null
cmp "$WORK/served_window.json" "$WORK/offline_window.json" || {
  echo "FAIL: served window differs from offline export" >&2; exit 1; }

# The aggregate ops run through one planner on both sides: every document
# must be byte-identical between the daemon and the offline CLI.
"$ANALYZE" query chart ftq --quantum-us 200 --port "$PORT" > "$WORK/served_chart.json"
"$ANALYZE" chart "$WORK/catalog/ftq.osnt" --quantum-us 200 --json > "$WORK/offline_chart.json"
cmp "$WORK/served_chart.json" "$WORK/offline_chart.json" || {
  echo "FAIL: served chart differs from offline chart" >&2; exit 1; }

# A chart at a 10 us quantum is a ~6 MB document: the client must take a
# response far larger than any request frame.
"$ANALYZE" query chart ftq --quantum-us 10 --port "$PORT" > "$WORK/served_big.json"
"$ANALYZE" chart "$WORK/catalog/ftq.osnt" --quantum-us 10 --json > "$WORK/offline_big.json"
[ "$(wc -c < "$WORK/offline_big.json")" -gt 1048576 ] || {
  echo "FAIL: the large chart is not past 1 MiB" >&2; exit 1; }
cmp "$WORK/served_big.json" "$WORK/offline_big.json" || {
  echo "FAIL: served large chart differs from offline chart" >&2; exit 1; }

"$ANALYZE" query timeseries ftq --activity timer_interrupt --quantum-us 500 \
  --port "$PORT" > "$WORK/served_ts.json"
"$ANALYZE" timeseries "$WORK/catalog/ftq.osnt" --activity timer_interrupt \
  --quantum-us 500 > "$WORK/offline_ts.json"
cmp "$WORK/served_ts.json" "$WORK/offline_ts.json" || {
  echo "FAIL: served timeseries differs from offline timeseries" >&2; exit 1; }

"$ANALYZE" query topk ftq --k 2 --port "$PORT" > "$WORK/served_topk.json"
"$ANALYZE" topk "$WORK/catalog/ftq.osnt" --k 2 > "$WORK/offline_topk.json"
cmp "$WORK/served_topk.json" "$WORK/offline_topk.json" || {
  echo "FAIL: served topk differs from offline topk" >&2; exit 1; }

# A window applies to every data op that carries one, summary and chart too.
for op in summary chart; do
  json=""; [ "$op" = chart ] && json=--json
  "$ANALYZE" query $op ftq --window 100:300 --port "$PORT" > "$WORK/served_w.json"
  "$ANALYZE" $op "$WORK/catalog/ftq.osnt" --window 100:300 $json > "$WORK/offline_w.json"
  cmp "$WORK/served_w.json" "$WORK/offline_w.json" || {
    echo "FAIL: served windowed $op differs from offline $op" >&2; exit 1; }
done

# 2^58 ms times 10^6 wraps to a 0 ns (already expired) deadline; the CLI
# must saturate it to "never", as the JSON reader does.
"$ANALYZE" query summary ftq --deadline-ms 288230376151711744 --port "$PORT" > /dev/null || {
  echo "FAIL: a huge --deadline-ms did not saturate" >&2; exit 1; }

"$ANALYZE" query metrics --port "$PORT" | grep -q '"requests"' || {
  echo "FAIL: metrics payload missing counters" >&2; exit 1; }

kill -TERM "$SERVED_PID"
trap - EXIT
wait "$SERVED_PID" || { echo "FAIL: daemon did not exit cleanly" >&2; exit 1; }
echo "serve smoke OK"
