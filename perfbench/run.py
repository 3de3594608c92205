#!/usr/bin/env python3
"""End-to-end benchmark of the agile live-migration simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The script builds perfbench/harness.cpp together with the simulator library
from src/ (CMake, RelWithDebInfo, into $CARGO_TARGET_DIR or .bench_build),
turns the workload name and seed into scenario options, and runs the harness
once per iteration, each in its own process, until --seconds of wall time is
used (at least one iteration). The harness receives only the generated
options, never a workload name. An untraced single-VM iteration is a round of
one harness process per migration point, min(nproc, 4) of them at a time, so
each run draws many short samples across every CPU instead of two long ones
on a single CPU.

Every iteration's simulated outputs are reduced to a digest. The digests of
all iterations must agree, must match perfbench/goldens.json where it holds
a golden for the workload and seed (the default seed 42, the held-out seed
4242 and the seeds recorded with --record-golden), and must pass the
workload's own checks. A failing iteration counts as a failed attempt.

With --trace 0 the last stdout line is a JSON object carrying the
end-to-end metrics (medians over iterations); with --trace 1 iterations
alternate untraced and traced (per-quantum spans, written as Chrome JSON to
.perfbench_out/) and the JSON carries the per-layer metrics. Everything
before that line is a human-readable report.

--self-test checks the benchmark itself: the fleet workload gives the same
digest at lanes = 1 and lanes = min(nproc, 4), and a run against a
deliberately corrupted golden is reported as failed.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
GOLDENS = os.path.join(BENCH_DIR, "goldens.json")
DEFAULT_SEED = 42
ITERATION_TIMEOUT_S = 170

# EXPERIMENTS.md, Figures 7 and 8 at 12 GB: migration time (s, one decimal)
# and data on the wire (MB, whole), seed 42.
FIG78_12G = {
    "migration_time_s": {
        "precopy_idle": 220.8, "postcopy_idle": 111.7, "agile_idle": 51.5,
        "precopy_busy": 292.7, "postcopy_busy": 107.2, "agile_busy": 59.2,
    },
    "wire_mib": {
        "precopy_idle": 12484, "postcopy_idle": 12484, "agile_idle": 5763,
        "precopy_busy": 14526, "postcopy_busy": 11979, "agile_busy": 5940,
    },
}

TECHNIQUES = [("pre-copy", "precopy"), ("post-copy", "postcopy"),
              ("agile", "agile"), ("scatter-gather", "scatter_gather")]


def default_lanes():
    return min(os.cpu_count() or 1, 4)


def single_vm_12g(seed, lanes):
    del lanes  # two-host bed: one lane
    points = [f"{t}:{mode}" for mode in ("idle", "busy") for t, _ in TECHNIQUES]
    return {
        "scenario": "single_vm", "seed": seed,
        "host_ram_mib": 6144, "vm_memory_mib": 12288,
        "points": ",".join(points),
    }


def leafspine_rebalance_64(seed, lanes):
    # The fleet_topology bench's rack-aware bed at 64 hosts: host RAM keeps
    # every hot host under the high watermark, so each migration is a
    # rebalancer move through the orchestrator's admission path.
    return {
        "scenario": "fleet", "seed": seed, "lanes": lanes,
        "host_count": 64, "vm_count": 128, "racks": 8, "oversubscription": 4,
        "spread_initial": 1, "hot_per_rack": 1, "hot_vms": 16,
        "hot_at_s": 90, "hot_active_mib": 640,
        "source_ram_mib": 2176, "dest_ram_mib": 2176, "ycsb_concurrency": 2,
        "rack_aware_placement": 1, "rebalance": 1, "rebalancer_rack_aware": 1,
        "vmd_server_capacity_mib": 64 * 2048,
        "stats": 1, "stats_interval_s": 1,
        "horizon_s": 300,
    }


WORKLOADS = {
    "single_vm_12g": single_vm_12g,
    "leafspine_rebalance_64": leafspine_rebalance_64,
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build --

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures once, then builds incrementally; returns the harness path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"simulator sources not found under {ROOT}/src")
    bdir = build_dir()
    jobs = str(default_lanes())
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench_harness")


# -------------------------------------------------------------- iteration --

def steal_seconds():
    """CPU time the hypervisor gave to others, summed over all CPUs."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_iteration(harness, options, traced, tag):
    args = dict(options)
    os.makedirs(OUT_DIR, exist_ok=True)
    export_prefix = os.path.join(OUT_DIR, tag + ".export")
    if args.get("stats"):
        args["export_prefix"] = export_prefix
    args["trace"] = 1 if traced else 0
    if traced:
        args["trace_out"] = os.path.join(OUT_DIR, tag + ".trace.json")
    cmd = [harness] + [f"{k}={v}" for k, v in args.items()]
    steal0 = steal_seconds()
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=ITERATION_TIMEOUT_S)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"harness exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # The stats exports are simulation outputs too: fold them into the
    # digest, then remove them.
    text = "\n".join(result["digest"]) + "\n"
    for suffix in (".prom", ".snapshots.json"):
        path = export_prefix + suffix
        if os.path.exists(path):
            with open(path, "rb") as f:
                text += f"export{suffix} sha256={hashlib.sha256(f.read()).hexdigest()}\n"
            os.remove(path)
    result["digest_text"] = text
    result["digest_sha"] = hashlib.sha256(text.encode()).hexdigest()
    result["process_s"] = elapsed
    result["steal_s"] = steal_seconds() - steal0
    return result


def merge_points(samples):
    """One single-VM iteration from one harness process per migration point.

    Each point's process builds, loads and migrates its own bed, and its
    digest lines are exactly that point's slice of a one-process run, so the
    concatenation in plan order has the same digest as running every point in
    one process.
    """
    first = samples[0]
    merged = {
        "phases": {k: sum(r["phases"][k] for r in samples) for k in first["phases"]},
        "peak_rss_mib": max(r["peak_rss_mib"] for r in samples),
        "work": {}, "model": {"migration_time_s": {}, "wire_mib": {}},
        "migration_wall_s": {},
        "process_s": sum(r["process_s"] for r in samples),
        "steal_s": max(r["steal_s"] for r in samples),
    }
    for key in first["work"]:
        values = [r["work"][key] for r in samples]
        merged["work"][key] = max(values) if key in ("lanes", "leaf_peak_util") else sum(values)
    for r in samples:
        for part in ("migration_time_s", "wire_mib"):
            merged["model"][part].update(r["model"].get(part, {}))
        merged["migration_wall_s"].update(r["migration_wall_s"])
    merged["digest_text"] = "".join(r["digest_text"] for r in samples)
    merged["digest_sha"] = hashlib.sha256(merged["digest_text"].encode()).hexdigest()
    return merged


def run_point_rounds(harness, options, seconds, tag):
    """Untraced single-VM iterations, one process per point, in parallel.

    Rounds are queued whole while the time they have taken so far says the
    next one still ends within `seconds` (always at least one); every round
    started is finished, so each iteration covers every point.
    """
    points = options["points"].split(",")
    rounds = []
    start = time.monotonic()
    with concurrent.futures.ThreadPoolExecutor(max_workers=default_lanes()) as pool:
        def queue_round():
            # Longest points first (by their latest finished run), so that
            # a round's tail is made of short ones.
            i = len(rounds)
            cost = [0.0] * len(points)
            for rnd in rounds:
                for j, f in enumerate(rnd):
                    if f.done() and not f.exception():
                        cost[j] = f.result()["process_s"]
            order = sorted(range(len(points)), key=lambda j: -cost[j])
            jobs = {j: pool.submit(run_iteration, harness, {**options, "points": points[j]},
                                   False, f"{tag}_round{i}_point{j}") for j in order}
            rounds.append([jobs[j] for j in range(len(points))])
        queue_round()
        while True:
            pending = [f for rnd in rounds for f in rnd if not f.done()]
            # Keep the workers fed: queue the next round once the queued
            # ones have no job left waiting for a worker, if the jobs done so
            # far say that it ends in time.
            if len(pending) <= default_lanes():
                elapsed = time.monotonic() - start
                done = len(rounds) * len(points) - len(pending)
                if done and elapsed * (1 + (len(pending) + len(points)) / done) <= seconds:
                    queue_round()
                    continue
                if not pending:
                    break
            finished, _ = concurrent.futures.wait(
                pending, return_when=concurrent.futures.FIRST_COMPLETED)
            failed = [f for f in finished if f.exception()]
            if failed:
                # Start nothing more; the pool waits for the running ones.
                for f in pending:
                    f.cancel()
                raise failed[0].exception()
    log(f"[perfbench] {len(rounds)} rounds of {len(points)} points in "
        f"{time.monotonic() - start:.1f} s")
    return [merge_points([f.result() for f in rnd]) for rnd in rounds]


# ----------------------------------------------------------------- checks --

def workload_checks(workload, seed, r):
    """Problems with one iteration's outputs, beyond the digest."""
    w, model = r["work"], r["model"]
    bad = []
    if w["page_accesses"] <= 0:
        bad.append("no guest page accesses in the window")
    if w["migrations_failed"]:
        bad.append(f"{w['migrations_failed']} of {w['migrations']} migrations "
                   "incomplete at their time limit")
    if workload == "single_vm_12g":
        if w["migrations"] != 8:
            bad.append(f"expected 8 migrations, got {w['migrations']}")
        t, wire = model["migration_time_s"], model["wire_mib"]
        for mode in ("idle", "busy"):
            # The paper's claim past host RAM: agile beats post-copy beats
            # pre-copy, and agile moves well under half of pre-copy's bytes.
            if not (t[f"agile_{mode}"] < t[f"postcopy_{mode}"] < t[f"precopy_{mode}"]):
                bad.append(f"{mode}: migration-time order agile < post < pre broken")
            if not wire[f"agile_{mode}"] < 0.5 * wire[f"precopy_{mode}"]:
                bad.append(f"{mode}: agile wire bytes not under half of pre-copy's")
        if seed == DEFAULT_SEED:
            for key, want in FIG78_12G["migration_time_s"].items():
                if round(t[key], 1) != want:
                    bad.append(f"Fig. 7 {key}: {t[key]:.1f} s != {want}")
            for key, want in FIG78_12G["wire_mib"].items():
                if round(wire[key]) != want:
                    bad.append(f"Fig. 8 {key}: {wire[key]:.0f} MB != {want}")
    elif workload == "leafspine_rebalance_64":
        if w["migrations"] == 0:
            bad.append("rebalancer launched no migrations")
        if w["rebalance_moves"] != w["migrations"] - w["orchestrator_launches"]:
            bad.append("migrations do not match rebalancer + orchestrator launches")
        if w["leaf_tier_bytes"] <= 0:
            bad.append("no bytes crossed the leaf-spine core")
    return bad


def load_goldens(path):
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def check_iterations(workload, seed, results, golden_path):
    """Marks each iteration ok or failed; returns a one-line digest verdict."""
    goldens = load_goldens(golden_path)
    golden = goldens.get(workload, {}).get(str(seed))
    first = results[0]["digest_sha"]
    for i, r in enumerate(results):
        problems = workload_checks(workload, seed, r)
        if golden is not None and r["digest_sha"] != golden:
            problems.append(f"digest {r['digest_sha'][:16]} != golden {golden[:16]}")
        if r["digest_sha"] != first:
            problems.append("digest differs from iteration 0 (nondeterminism)")
        r["problems"] = problems
        if problems:
            path = os.path.join(OUT_DIR, f"{workload}_seed{seed}_iter{i}.digest.txt")
            with open(path, "w") as f:
                f.write(r["digest_text"])
            for p in problems:
                log(f"[perfbench] iteration {i}: {p} (digest text: {path})")
    if golden is None:
        return f"no golden for seed {seed}; {len(results)} iterations agree" \
            if len({r['digest_sha'] for r in results}) == 1 else "iterations disagree"
    return "matches golden" if all(r["digest_sha"] == golden for r in results) \
        else "MISMATCH against golden"


# ---------------------------------------------------------------- metrics --

def end_to_end(results):
    """Median over iterations of each gated end-to-end metric.

    Every time is process CPU time. The simulated window runs on up to four
    lane threads, and its wall time swings with the CPU time the hypervisor
    steals from any one of them (IQR 39% of the median over ten 4-lane runs
    on a shared 4-vCPU guest); set-up's wall time swings the same way when
    other guests load the host. The wall times are reported beside them.
    """
    def per(fn):
        return statistics.median([fn(r) for r in results])
    ph = lambda r: r["phases"]
    return {
        "setup_s": (per(lambda r: ph(r)["setup_cpu_s"]), "s"),
        "run_cpu_s": (per(lambda r: r["work"]["window_cpu_s"]), "s"),
        "total_cpu_s": (per(lambda r: ph(r)["cpu_s"]), "s"),
        "peak_rss_mib": (per(lambda r: r["peak_rss_mib"]), "MiB"),
    }


def pages_moved(w):
    return w["pages_full"] + w["pages_descriptor"] + w["pages_demand"]


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(untraced, traced):
    """Per-layer metrics from the traced iterations (medians for times)."""
    def tmed(fn):
        return statistics.median([fn(r) for r in traced])
    w = traced[0]["work"]
    layer = lambda r, name, key="total_s": r["layers"].get(name, {}).get(key, 0.0)
    run_s = tmed(lambda r: r["phases"]["run_s"])
    load_s = tmed(lambda r: r["phases"]["load_s"])
    mig_wall = tmed(lambda r: layer(r, "migration.run"))
    traced_wall = tmed(lambda r: r["phases"]["wall_s"])
    untraced_wall = statistics.median([r["phases"]["wall_s"] for r in untraced])
    moved = pages_moved(w)
    m = {
        "core.build_s": (tmed(lambda r: r["phases"]["build_s"]), "s"),
        "core.teardown_s": (tmed(lambda r: r["phases"]["teardown_s"]), "s"),
        "workload.load_s": (load_s, "s"),
        "workload.load_pages": (w["load_pages"], "count"),
        "workload.load_ns_per_page": (ratio(load_s * 1e9, w["load_pages"]), "ns"),
        "host.quantum_head_s": (tmed(lambda r: layer(r, "host.quantum_head")), "s"),
        "host.quantum_tail_s": (tmed(lambda r: layer(r, "host.quantum_tail")), "s"),
        "host.quanta": (traced[0]["quanta"]["count"], "count"),
        "host.quantum_p50_us": (tmed(lambda r: r["quanta"]["p50_us"]), "us"),
        "host.quantum_p99_us": (tmed(lambda r: r["quanta"]["p99_us"]), "us"),
        "workload.page_accesses": (w["page_accesses"], "count"),
        "workload.ns_per_access": (ratio(run_s * 1e9, w["page_accesses"]), "ns"),
        "workload.page_accesses_per_cpu_s": (statistics.median(
            [ratio(r["work"]["page_accesses"], r["work"]["window_cpu_s"]) for r in untraced]),
            "1/s"),
        "mem.minor_faults": (w["minor_faults"], "count"),
        "mem.major_faults": (w["major_faults"], "count"),
        "mem.swap_ins": (w["swap_ins"], "count"),
        "mem.swap_outs": (w["swap_outs"], "count"),
        "mem.clean_drops": (w["clean_drops"], "count"),
        "mem.major_fault_ratio": (ratio(w["major_faults"], w["page_accesses"]), "ratio"),
        "sim.events": (w["events"], "count"),
        "sim.lanes": (w["lanes"], "count"),
        "sim.window_cpu_s": (tmed(lambda r: r["work"]["window_cpu_s"]), "s"),
        "sim.lane_busy_frac": (
            tmed(lambda r: ratio(r["work"]["window_cpu_s"],
                                 r["work"]["lanes"] * r["phases"]["run_s"])), "ratio"),
        "net.host_tier_bytes": (w["host_tier_bytes"], "B"),
        "net.leaf_tier_bytes": (w["leaf_tier_bytes"], "B"),
        "net.leaf_peak_util": (w["leaf_peak_util"], "ratio"),
        "migration.count": (w["migrations"], "count"),
        "migration.failed": (w["migrations_failed"], "count"),
        "migration.pages_full": (w["pages_full"], "count"),
        "migration.pages_descriptor": (w["pages_descriptor"], "count"),
        "migration.pages_demand": (w["pages_demand"], "count"),
        "migration.pages_moved": (moved, "count"),
        "migration.pages_swap_faulted": (w["pages_swap_faulted"], "count"),
        "migration.pages_source_swapin": (w["pages_source_swapin"], "count"),
        "migration.precopy_rounds": (w["precopy_rounds"], "count"),
        "migration.duplicates": (w["duplicate_pages"], "count"),
        "migration.duplicate_ratio": (ratio(w["duplicate_pages"], w["pages_full"]), "ratio"),
        "migration.wall_s": (mig_wall, "s"),
        "migration.ns_per_page": (ratio(mig_wall * 1e9, moved), "ns"),
        "migration.pages_moved_per_s": (ratio(moved, run_s), "1/s"),
        "core.orchestrator_decisions": (w["orchestrator_decisions"], "count"),
        "core.orchestrator_launches": (w["orchestrator_launches"], "count"),
        "core.orchestrator_deferrals": (w["orchestrator_deferrals"], "count"),
        "core.rebalance_rounds": (w["rebalance_rounds"], "count"),
        "core.rebalance_moves": (w["rebalance_moves"], "count"),
        "core.rebalance_throttled": (w["rebalance_throttled"], "count"),
        "stats.export_s": (tmed(lambda r: r["phases"]["export_s"]), "s"),
        "trace.run_s": (run_s, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.untraced_run_s": (statistics.median([r["phases"]["run_s"] for r in untraced]), "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.span_coverage": (tmed(lambda r: r["span_coverage"]), "ratio"),
        "trace.spans": (traced[0]["spans"], "count"),
    }
    model = traced[0]["model"]
    for _, key in TECHNIQUES:
        for mode in ("idle", "busy"):
            k = f"{key}_{mode}"
            m[f"model.migration_time_s.{k}"] = (
                model.get("migration_time_s", {}).get(k, 0.0), "s")
            m[f"model.wire_mib.{k}"] = (model.get("wire_mib", {}).get(k, 0.0), "MiB")
    return m


# ----------------------------------------------------------------- report --

def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report_end_to_end(workload, results, metrics):
    w = results[0]["work"]
    moved = pages_moved(w)
    per = lambda fn: statistics.median([fn(r) for r in results])
    run_s = lambda r: r["phases"]["run_s"]
    lines = [f"workload {workload}: {len(results)} iterations, median of each shown"]
    bases = {
        "setup_s": "CPU: scenario build + dataset load/prepare",
        "run_cpu_s": "CPU of all threads in the simulated window",
        "total_cpu_s": "CPU of the harness process: setup + run + export + teardown",
        "peak_rss_mib": "ru_maxrss of the harness process",
    }
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<24} {fmt(value):>14} {unit:<5} ({bases[name]})")
    lines.append("  not gated:")
    context = [
        ("page_accesses_per_cpu_s",
         per(lambda r: w["page_accesses"] / r["work"]["window_cpu_s"]), "1/s",
         f"{w['page_accesses']} page accesses / run_cpu_s"),
        ("setup_wall_s", per(lambda r: r["phases"]["build_s"] + r["phases"]["load_s"]),
         "s", "scenario build + dataset load/prepare"),
        ("run_s", per(run_s), "s", f"simulated window on {w['lanes']} lane(s)"),
        ("wall_s", per(lambda r: r["phases"]["wall_s"]), "s",
         "setup + run + stats export + teardown"),
        ("page_accesses_per_s", per(lambda r: w["page_accesses"] / run_s(r)), "1/s",
         f"{w['page_accesses']} page accesses / run_s"),
    ]
    if w["migrations"]:
        context.append(("pages_moved_per_s", per(lambda r: moved / run_s(r)), "1/s",
                        f"{moved} pages moved (full + descriptor + demand) / run_s"))
    for name, value, unit, base in context:
        lines.append(f"  {name:<24} {fmt(value):>14} {unit:<5} ({base})")
    lines.append("  per iteration: run_s " + ", ".join(f"{run_s(r):.3f}" for r in results)
                 + "; run_cpu_s " + ", ".join(f"{r['work']['window_cpu_s']:.3f}" for r in results)
                 + "; steal (CPU-s lost to other guests) "
                 + ", ".join(f"{r['steal_s']:.2f}" for r in results))
    lines.append(f"  migrations per iteration: attempted {w['migrations']} "
                 f"failed {w['migrations_failed']}")
    print("\n".join(lines))


def report_layers(traced, metrics):
    print("per-layer self time (traced iteration 0):")
    layers = traced[0]["layers"]
    wall = traced[0]["phases"]["wall_s"]
    for name, l in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<20} self {l['self_s']:9.4f} s  total {l['total_s']:9.4f} s "
              f"({100 * l['total_s'] / wall:5.1f}% of wall)  spans {l['count']}")
    walls = traced[0]["migration_wall_s"]
    if walls:
        total = sum(walls.values())
        print("migration wall per run_migration call (traced iteration 0):")
        for key, sec in walls.items():
            print(f"  {key:<22} {sec:8.4f} s ({100 * sec / total:5.1f}% of migration.wall_s)")
    print("per-layer metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {fmt(value):>16} {unit}")


# ------------------------------------------------------------------- main --

def run_workload(workload, seed, seconds, traced, golden_path):
    harness = build()
    options = WORKLOADS[workload](seed, default_lanes())
    untraced, traced_runs = [], []
    durations = []
    start = time.monotonic()
    if "points" in options and not traced:
        untraced = run_point_rounds(harness, options, seconds, f"{workload}_seed{seed}")
    else:
        while True:
            i = len(durations)
            trace_this = traced and i % 2 == 1
            tag = f"{workload}_seed{seed}" + (f"_iter{i}" if not trace_this else "")
            r = run_iteration(harness, options, trace_this, tag)
            durations.append(r["process_s"])
            (traced_runs if trace_this else untraced).append(r)
            elapsed = time.monotonic() - start
            need_more = traced and not traced_runs
            if not need_more and elapsed + statistics.median(durations) > seconds:
                break
    results = untraced + traced_runs
    verdict = check_iterations(workload, seed, results, golden_path)
    failed = sum(1 for r in results if r["problems"])
    if traced:
        metrics = per_layer(untraced, traced_runs)
        report_layers(traced_runs, metrics)
        print(f"trace overhead: traced wall {fmt(metrics['trace.wall_s'][0])} s - "
              f"untraced wall {fmt(metrics['trace.untraced_wall_s'][0])} s = "
              f"{fmt(metrics['trace.overhead_s'][0])} s; spans cover "
              f"{100 * metrics['trace.span_coverage'][0]:.2f}% of wall; trace "
              f"written to {os.path.relpath(OUT_DIR, ROOT)}/")
    else:
        metrics = end_to_end(untraced)
        report_end_to_end(workload, untraced, metrics)
    print(f"digest: {verdict} (sha256 {results[0]['digest_sha'][:16]}); "
          f"iterations attempted {len(results)} failed {failed}")
    out = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return out, results


def record_golden(workload, seed, results):
    goldens = load_goldens(GOLDENS)
    goldens.setdefault(workload, {})[str(seed)] = results[0]["digest_sha"]
    with open(GOLDENS, "w") as f:
        json.dump(goldens, f, indent=2, sort_keys=True)
        f.write("\n")
    log(f"[perfbench] recorded golden {workload} seed {seed}")


def self_test():
    """Lane-count invariance and corrupted-golden detection."""
    ok = True
    harness = build()
    lanes = default_lanes()
    workload = "leafspine_rebalance_64"
    shas = {}
    for n in sorted({1, lanes}):
        opts = WORKLOADS[workload](DEFAULT_SEED, n)
        shas[n] = run_iteration(harness, opts, False, f"selftest_{workload}_lanes{n}")["digest_sha"]
    golden = load_goldens(GOLDENS).get(workload, {}).get(str(DEFAULT_SEED))
    same = len(set(shas.values())) == 1 and (golden is None or golden in shas.values())
    ok &= same
    print(f"self-test {workload}: lanes {sorted(shas)} digests "
          f"{'agree' if same else 'DIFFER'} "
          + " ".join(f"{n}:{s[:12]}" for n, s in shas.items()))
    # A corrupted golden must turn the run into a failed one.
    goldens = load_goldens(GOLDENS)
    real = goldens.get(workload, {}).get(str(DEFAULT_SEED), "0" * 64)
    goldens.setdefault(workload, {})[str(DEFAULT_SEED)] = ("f" if real[0] != "f" else "e") + real[1:]
    os.makedirs(OUT_DIR, exist_ok=True)
    bad_path = os.path.join(OUT_DIR, "corrupted_goldens.json")
    with open(bad_path, "w") as f:
        json.dump(goldens, f)
    out, _ = run_workload(workload, DEFAULT_SEED, 1, False, bad_path)
    os.remove(bad_path)
    caught = not out["correct"] and out["failed"] == out["attempted"]
    ok &= caught
    print(f"self-test corrupted golden: {'reported as failed' if caught else 'NOT DETECTED'} "
          f"(correct={out['correct']}, failed {out['failed']}/{out['attempted']})")
    print("self-test " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="store this run's digest as the golden for its seed")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        if args.seed < 0:
            ap.error("--seed must be non-negative")
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        correct = True
        for name in names:
            out, results = run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), GOLDENS)
            if args.record_golden and out["correct"]:
                record_golden(name, args.seed, results)
            correct &= out["correct"]
            if len(names) > 1:
                out = {"workload": name, **out}
            print(json.dumps(out), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            KeyError) as e:
        log(f"[perfbench] error: {e}")
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
