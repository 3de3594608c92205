#!/usr/bin/env bash
# Determinism harness for the leaf-spine topology bench.
#
# Runs fleet_topology (quick mode) under varying runtime knobs and
# byte-compares the TOPO_GOLDEN block — rebalancer rounds, every move with
# its rack crossing, and per-tier byte totals must not depend on how the
# simulation was executed:
#
#   AGILE_SIM_LANES   1, 2, 8  (sharded event lanes)
#   AGILE_BENCH_JOBS  1, 4     (sweep workers)
#   AGILE_AUDIT       unset, 1 (lookahead audit runtime)
#
# Usage: check_topology_determinism.sh <fleet_topology binary> <outdir>
set -euo pipefail

bin=$1
out=$2

run() {  # run <dir> [VAR=VAL ...] — one quick topology bench into $out/<dir>
  local dir="$out/$1"
  shift
  rm -rf "$dir"
  mkdir -p "$dir"
  env AGILE_BENCH_QUICK=1 AGILE_BENCH_JOBS=1 AGILE_BENCH_OUT="$dir" \
      "$@" "$bin" > "$dir/stdout.txt"
}

run base
run lanes2 AGILE_SIM_LANES=2
run lanes8 AGILE_SIM_LANES=8
run jobs4 AGILE_BENCH_JOBS=4
run audit AGILE_AUDIT=1

for v in lanes2 lanes8 jobs4 audit; do
  cmp "$out/base/fleet_topology_golden.txt" \
      "$out/$v/fleet_topology_golden.txt"
done
