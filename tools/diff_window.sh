#!/bin/sh
# `osn-analyze diff` reads each side as the report commands do: with
# --window, the A column of `diff F F` must carry the per-activity rates of
# `stats F` over the same window, and those must differ from the rates of
# the whole trace (else the check could not tell a dropped window).
#
# Usage: diff_window.sh <osn-analyze> <trace> <A:B>
set -eu

ANALYZE=$1
TRACE=$2
WINDOW=$3

# "activity rate" per row: stats prints its table first; diff prints a
# header, then its table between the dashes and the blank line after it.
stats_rates() { awk 'NR > 2 { print $1, $2 }'; }
diff_rates() { awk '/^-+$/ { t = 1; next } t && NF == 0 { exit } t { print $1, $2 }'; }

windowed=$("$ANALYZE" stats "$TRACE" --window "$WINDOW" | stats_rates)
whole=$("$ANALYZE" stats "$TRACE" | stats_rates)
diffed=$("$ANALYZE" diff "$TRACE" "$TRACE" --window "$WINDOW" | diff_rates)

[ -n "$windowed" ] || { echo "FAIL: stats --window printed no rows"; exit 1; }
if [ "$diffed" != "$windowed" ]; then
  printf 'FAIL: diff --window rates\n%s\nare not stats --window rates\n%s\n' \
    "$diffed" "$windowed"
  exit 1
fi
if [ "$windowed" = "$whole" ]; then
  echo "FAIL: window $WINDOW has the whole trace's rates; pick another window"
  exit 1
fi
echo "OK: diff --window $WINDOW matches stats --window"
