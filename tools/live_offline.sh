#!/bin/sh
# `osn-analyze run` drains live by default and replays the in-memory trace
# with --offline; both write one record stream, so the reports of the two
# files must be byte-identical. Their footers differ only in the drain
# counters, which neither report prints.
#
# Usage: live_offline.sh <osn-analyze> <workdir>
set -eu

ANALYZE=$1
DIR=$2

rm -rf "$DIR"
mkdir -p "$DIR"
"$ANALYZE" run ftq --seconds 1 --seed 1 -o "$DIR/live.osnt" > /dev/null
"$ANALYZE" run ftq --seconds 1 --seed 1 --offline -o "$DIR/offline.osnt" > /dev/null
for report in summary stats; do
  "$ANALYZE" "$report" "$DIR/live.osnt" > "$DIR/live.$report"
  "$ANALYZE" "$report" "$DIR/offline.osnt" > "$DIR/offline.$report"
  [ -s "$DIR/live.$report" ] || { echo "FAIL: $report printed nothing"; exit 1; }
  cmp "$DIR/live.$report" "$DIR/offline.$report" ||
    { echo "FAIL: live and offline $report differ"; exit 1; }
done
echo "OK: live and offline summary and stats are byte-identical"
