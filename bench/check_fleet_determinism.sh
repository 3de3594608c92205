#!/usr/bin/env bash
# Determinism matrix for the fleet consolidation bench (quick mode).
#
# `run <config>` executes one distinct configuration, into <outdir>/<config>
# (ctest runs each as its own fixture setup, so `ctest -j` spreads them):
#
#   off_lanes{1,2,8}  AGILE_STATS unset, AGILE_SIM_LANES = 1, 2, 8
#   off_jobs2         AGILE_STATS unset, AGILE_BENCH_JOBS = 2
#   on_lanes{1,2,8}   AGILE_STATS set,   AGILE_SIM_LANES = 1, 2, 8
#   on_jobs4          AGILE_STATS set,   AGILE_BENCH_JOBS = 4
#   on_audit          AGILE_STATS set,   AGILE_AUDIT = 1
#
# (AGILE_BENCH_JOBS = 1 and AGILE_SIM_LANES = 1 unless named; stdout lands in
# stdout.txt beside the outputs.) Every other
# mode byte-compares one property over those outputs:
#
#   matrix       FLEET_GOLDEN identical across all nine configurations
#   fleet_jobs   FLEET_GOLDEN identical at AGILE_BENCH_JOBS = 1, 2
#   fleet_lanes  FLEET_GOLDEN identical at AGILE_SIM_LANES = 1, 2, 8
#   stats_lanes  stats files identical at AGILE_SIM_LANES = 1, 2, 8
#   stats_jobs   stats files identical at AGILE_BENCH_JOBS = 1, 4
#   stats_audit  stats files identical with and without AGILE_AUDIT=1
#   stats_off    with AGILE_STATS unset, FLEET_GOLDEN matches the stats-on
#                run (instrumentation must not perturb the simulation)
#
# Usage: check_fleet_determinism.sh run <config> <fleet_consolidation binary>
#                                      <outdir>
#        check_fleet_determinism.sh <mode> <outdir>
set -euo pipefail

mode=$1

# Keep in sync with FLEET_MATRIX_CONFIGS in bench/CMakeLists.txt.
configs="off_lanes1 off_lanes2 off_lanes8 off_jobs2 on_lanes1 on_lanes2
         on_lanes8 on_jobs4 on_audit"

run() {  # run <config> [VAR=VAL ...] — one quick fleet bench into $out/<config>
  local dir="$out/$1"
  shift
  rm -rf "$dir"  # a stale output must never pass a leg
  mkdir -p "$dir"
  env AGILE_BENCH_QUICK=1 AGILE_BENCH_JOBS=1 AGILE_SIM_LANES=1 \
      AGILE_BENCH_OUT="$dir" "$@" "$bin" > "$dir/stdout.txt"
}

cmp_golden() {  # cmp_golden <config_a> <config_b>
  cmp "$out/$1/fleet_consolidation_golden.txt" \
      "$out/$2/fleet_consolidation_golden.txt"
}

cmp_stats() {  # cmp_stats <config_a> <config_b> — diff every stats artifact
  local t
  for t in pre-copy post-copy agile scatter-gather; do
    cmp "$out/$1/s.fleet_${t}.stats.json" "$out/$2/s.fleet_${t}.stats.json"
    cmp "$out/$1/s.fleet_${t}.stats.prom" "$out/$2/s.fleet_${t}.stats.prom"
  done
}

case "$mode" in
  run)
    config=$2
    bin=$3
    out=$4
    case "$config" in
      off_lanes[128]) run "$config" AGILE_SIM_LANES="${config#off_lanes}" ;;
      on_lanes[128])
        run "$config" AGILE_SIM_LANES="${config#on_lanes}" \
            AGILE_STATS="$out/$config/s"
        ;;
      off_jobs2) run off_jobs2 AGILE_BENCH_JOBS=2 ;;
      on_jobs4) run on_jobs4 AGILE_BENCH_JOBS=4 AGILE_STATS="$out/on_jobs4/s" ;;
      on_audit) run on_audit AGILE_AUDIT=1 AGILE_STATS="$out/on_audit/s" ;;
      *)
        echo "unknown config: $config" >&2
        exit 2
        ;;
    esac
    ;;
  matrix)
    out=$2
    for c in $configs; do
      cmp_golden off_lanes1 "$c"
    done
    ;;
  fleet_jobs)
    out=$2
    cmp_golden off_lanes1 off_jobs2
    ;;
  fleet_lanes)
    out=$2
    cmp_golden off_lanes1 off_lanes2
    cmp_golden off_lanes1 off_lanes8
    ;;
  stats_lanes)
    out=$2
    cmp_stats on_lanes1 on_lanes2
    cmp_stats on_lanes1 on_lanes8
    ;;
  stats_jobs)
    out=$2
    cmp_stats on_lanes1 on_jobs4
    ;;
  stats_audit)
    out=$2
    cmp_stats on_lanes1 on_audit
    ;;
  stats_off)
    out=$2
    cmp_golden on_lanes1 off_lanes1
    ;;
  *)
    echo "unknown mode: $mode" >&2
    exit 2
    ;;
esac
