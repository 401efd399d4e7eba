#!/bin/sh
# Binary-wire smoke test, run beside serve_smoke.sh in the default suite.
#
# Same daemon, same queries — but through `osn-analyze query --wire binary`
# (the OSNB length-prefixed framing) instead of the JSON line protocol. Every
# served document is byte-compared against the JSON wire's answer for the
# same query, which is itself byte-compared against the offline planner by
# serve_smoke.sh: the two smokes together pin all three paths to one output.
# Also exercises the non-default readiness backend (--poll-backend) and an
# idle timeout, so the portable poll(2) loop sees end-to-end traffic in CI.
#
# Usage: serve_smoke_binary.sh <osn-analyze> <osn-served> <workdir>
set -eu

ANALYZE=$1
SERVED=$2
WORK=$3

mkdir -p "$WORK/catalog"
rm -f "$WORK/catalog/ftq.osnt" "$WORK/port"

"$ANALYZE" run ftq --seconds 1 --seed 7 -o "$WORK/catalog/ftq.osnt" > /dev/null 2>&1

"$SERVED" --dir "$WORK/catalog" --port 0 --port-file "$WORK/port" --workers 2 \
  --poll-backend --idle-timeout-ms 30000 &
SERVED_PID=$!
trap 'kill "$SERVED_PID" 2>/dev/null || true' EXIT

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

# Each op: JSON wire vs OSNB wire, byte-for-byte.
for op in "list" "summary ftq" "window ftq --window 100:900" \
          "chart ftq --quantum-us 200" \
          "timeseries ftq --activity timer_interrupt --quantum-us 500" \
          "topk ftq --k 2"; do
  # shellcheck disable=SC2086 # op intentionally word-splits into args
  "$ANALYZE" query $op --port "$PORT" --wire json > "$WORK/wire_json.out"
  # shellcheck disable=SC2086
  "$ANALYZE" query $op --port "$PORT" --wire binary > "$WORK/wire_binary.out"
  cmp "$WORK/wire_json.out" "$WORK/wire_binary.out" || {
    echo "FAIL: wire documents differ for: $op" >&2; exit 1; }
done

# A chart at a 10 us quantum (~6 MB, past 1 MiB) over OSNB is the offline
# document: the client must take a response far larger than any request.
"$ANALYZE" query chart ftq --quantum-us 10 --port "$PORT" --wire binary > "$WORK/wire_binary.out"
"$ANALYZE" chart "$WORK/catalog/ftq.osnt" --quantum-us 10 --json > "$WORK/offline.out"
[ "$(wc -c < "$WORK/offline.out")" -gt 1048576 ] || {
  echo "FAIL: the large chart is not past 1 MiB" >&2; exit 1; }
cmp "$WORK/wire_binary.out" "$WORK/offline.out" || {
  echo "FAIL: large chart over OSNB differs from offline chart" >&2; exit 1; }

# A windowed summary and chart over OSNB are the offline documents.
for op in summary chart; do
  json=""; [ "$op" = chart ] && json=--json
  "$ANALYZE" query $op ftq --window 100:300 --port "$PORT" --wire binary > "$WORK/wire_binary.out"
  "$ANALYZE" $op "$WORK/catalog/ftq.osnt" --window 100:300 $json > "$WORK/offline.out"
  cmp "$WORK/wire_binary.out" "$WORK/offline.out" || {
    echo "FAIL: windowed $op over OSNB differs from offline $op" >&2; exit 1; }
done

# Both wires must be visible in the per-wire request counters.
"$ANALYZE" query metrics --port "$PORT" --wire binary > "$WORK/metrics.out"
grep -q '"requests_json": [1-9]' "$WORK/metrics.out" || {
  echo "FAIL: metrics missing json wire requests" >&2; exit 1; }
grep -q '"requests_osnb": [1-9]' "$WORK/metrics.out" || {
  echo "FAIL: metrics missing osnb wire requests" >&2; exit 1; }
grep -q '"backend": "poll"' "$WORK/metrics.out" || {
  echo "FAIL: daemon is not on the requested poll backend" >&2; exit 1; }

kill -TERM "$SERVED_PID"
trap - EXIT
wait "$SERVED_PID" || { echo "FAIL: daemon did not exit cleanly" >&2; exit 1; }
echo "serve binary smoke OK"
