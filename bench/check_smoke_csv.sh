#!/usr/bin/env bash
# Shape check for one CSV written by a bench smoke run.
#
# The merged benches (fig7_8_single_vm, table1_3_consolidation) run their
# experiment once and write several figure/table CSVs; one ctest leg per
# figure or table checks its own CSV from that run: the header must match,
# the data-row count must match the quick-mode sweep, and no cell may be
# empty.
#
# Usage: check_smoke_csv.sh <csv> <expected header> <expected data rows>
set -euo pipefail

csv=$1
header=$2
rows=$3

[[ -s "$csv" ]] || { echo "missing or empty: $csv" >&2; exit 1; }

got_header=$(head -n 1 "$csv")
if [[ "$got_header" != "$header" ]]; then
  echo "$csv: header '$got_header', expected '$header'" >&2
  exit 1
fi

got_rows=$(($(wc -l < "$csv") - 1))
if (( got_rows != rows )); then
  echo "$csv: $got_rows data rows, expected $rows" >&2
  exit 1
fi

if grep -nE '(^,|,,|,$)' "$csv" >&2; then
  echo "$csv: empty cell" >&2
  exit 1
fi
echo "$csv: $got_rows rows OK"
