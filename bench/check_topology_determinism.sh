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
# `run <variant>` executes one of base, lanes2, lanes8, jobs4, audit into
# <outdir>/<variant> (ctest runs each as its own fixture setup, so `ctest -j`
# spreads them); `compare` byte-compares every variant against base.
#
# Usage: check_topology_determinism.sh run <variant> <fleet_topology binary>
#                                          <outdir>
#        check_topology_determinism.sh compare <outdir>
set -euo pipefail

mode=$1

# Compared against base; keep in sync with TOPO_VARIANTS in
# bench/CMakeLists.txt.
variants="lanes2 lanes8 jobs4 audit"

run() {  # run <dir> [VAR=VAL ...] — one quick topology bench into $out/<dir>
  local dir="$out/$1"
  shift
  rm -rf "$dir"
  mkdir -p "$dir"
  env AGILE_BENCH_QUICK=1 AGILE_BENCH_JOBS=1 AGILE_BENCH_OUT="$dir" \
      "$@" "$bin" > "$dir/stdout.txt"
}

case "$mode" in
  run)
    variant=$2
    bin=$3
    out=$4
    case "$variant" in
      base) run base ;;
      lanes2) run lanes2 AGILE_SIM_LANES=2 ;;
      lanes8) run lanes8 AGILE_SIM_LANES=8 ;;
      jobs4) run jobs4 AGILE_BENCH_JOBS=4 ;;
      audit) run audit AGILE_AUDIT=1 ;;
      *)
        echo "unknown variant: $variant" >&2
        exit 2
        ;;
    esac
    ;;
  compare)
    out=$2
    for v in $variants; do
      cmp "$out/base/fleet_topology_golden.txt" \
          "$out/$v/fleet_topology_golden.txt"
    done
    ;;
  *)
    echo "unknown mode: $mode" >&2
    exit 2
    ;;
esac
