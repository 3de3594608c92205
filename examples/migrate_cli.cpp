// Command-line scenario driver: run any migration technique against a
// configurable pressured VM — or a whole fleet — without writing C++.
//
//   $ ./migrate_cli --technique=agile --vm-gb=8 --host-gb=4 --busy --timeline
//   $ ./migrate_cli --fleet --hosts=4 --vms=6 --duration=400
//
// Flags (all optional):
//   --technique=precopy|postcopy|agile|scatter-gather   (default agile)
//   --vm-gb=N          guest memory size in GiB          (default 4)
//   --host-gb=N        source/dest host RAM in GiB       (default 2)
//   --busy             run a YCSB client during migration
//   --read-fraction=F  busy client's read share          (default 0.8)
//   --streams=N        parallel wire streams             (default 1)
//   --compression=off|fast|heavy   modeled page compression (default off)
//   --zero-fraction=F  all-zero share of prefilled pages (default 0)
//   --seed=N           simulation seed                   (default 42)
//   --timeline         print 1 s throughput samples while migrating
//   --trace-out=FILE   record a Chrome trace_event JSON of the run
//                      (load in chrome://tracing or ui.perfetto.dev)
//   --stats-out=FILE   record deterministic metrics snapshots; writes JSON
//                      snapshots to FILE and a Prometheus text exposition of
//                      the final state to FILE.prom (see tools/stats_report.py)
//   --stats-interval=N scrape period in simulated seconds (default 1)
//   --watermark-high=F high watermark fraction of RAM    (default 0.90)
//   --watermark-low=F  low watermark fraction of RAM     (default 0.75)
//   --fleet            orchestrated multi-host mode: VMs consolidated on
//                      host 0 turn hot and the MigrationOrchestrator spreads
//                      the victims across the other hosts
//   --hosts=N          fleet host count                  (default 4)
//   --vms=N            fleet VM count                    (default 6)
//   --hot=N            VMs whose working set widens      (default 3)
//   --duration=S       fleet simulated seconds           (default 400)
//   --topology=flat|leaf-spine   fleet network shape     (default flat)
//   --racks=N          leaf-spine rack count; implies --topology=leaf-spine
//                      (default 4 when leaf-spine; hosts must divide evenly)
//   --oversub=F        leaf-spine core oversubscription  (default 4)
//   --rebalance        run the FleetRebalancer alongside the orchestrator
//                      (MongoDB-style rounds; prints the round audit log)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/scenarios.hpp"
#include "metrics/table.hpp"
#include "stats/stats.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"
#include "wss/watermark_trigger.hpp"

using namespace agile;

namespace {

bool parse_flag(const char* arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--technique=precopy|postcopy|agile|scatter-gather]\n"
               "          [--vm-gb=N] [--host-gb=N] [--busy]\n"
               "          [--streams=N] [--compression=off|fast|heavy]\n"
               "          [--zero-fraction=F]\n"
               "          [--read-fraction=F] [--seed=N] [--timeline]\n"
               "          [--trace-out=FILE]\n"
               "          [--stats-out=FILE] [--stats-interval=N]\n"
               "          [--watermark-high=F] [--watermark-low=F]\n"
               "          [--fleet] [--hosts=N] [--vms=N] [--hot=N]\n"
               "          [--duration=S] [--topology=flat|leaf-spine]\n"
               "          [--racks=N] [--oversub=F] [--rebalance]\n",
               argv0);
  return 2;
}

// Writes snapshots JSON to `path` and the final Prometheus exposition to
// `path + ".prom"`. Returns false (after printing the error) on failure.
bool export_stats(const stats::Registry& registry, const std::string& path,
                  SimTime now) {
  Status st = registry.write_snapshots_json(path);
  if (st.is_ok()) st = registry.write_prometheus(path + ".prom", now);
  if (!st.is_ok()) {
    std::fprintf(stderr, "stats export failed: %s\n", st.message().c_str());
    return false;
  }
  std::printf("wrote stats snapshots to %s (+ %s.prom)\n", path.c_str(),
              path.c_str());
  return true;
}

int run_fleet(core::scenarios::FleetOptions opt, double duration_s,
              const std::string& stats_out) {
  core::scenarios::Fleet fleet = core::scenarios::make_fleet(opt);
  core::Testbed& bed = *fleet.bed;
  std::printf("Fleet: %u hosts, %u VMs consolidated on host0; %u working "
              "sets widen to %.0f MiB at t=%.0fs (%s, watermarks %.2f/%.2f)\n",
              opt.host_count, opt.vm_count, opt.hot_vms,
              to_mib(opt.hot_active), to_seconds(opt.hot_at),
              core::technique_name(opt.technique), opt.watermarks.high,
              opt.watermarks.low);
  if (opt.racks > 0) {
    std::printf("Topology: leaf-spine, %u racks x %u hosts, %.1f:1 core "
                "oversubscription, rack-aware placement\n",
                opt.racks, opt.host_count / opt.racks, opt.oversubscription);
  } else {
    std::printf("Topology: flat (single non-blocking switch)\n");
  }
  if (opt.rebalance) {
    std::printf("Rebalancer: rounds every %.0fs, <=%u moves/round, "
                "imbalance threshold %.2f\n",
                to_seconds(opt.rebalancer_config.round_interval),
                opt.rebalancer_config.max_moves_per_round,
                opt.rebalancer_config.imbalance_threshold);
  }
  fleet.load_all();
  fleet.orchestrator->set_on_migration(
      [&](core::VmHandle* victim, host::Host* dest) {
        std::printf(">>> t=%.0fs: migrating %s to %s (reservation %.0f MiB)\n",
                    bed.cluster().now_seconds(),
                    victim->machine->name().c_str(), dest->name().c_str(),
                    to_mib(fleet.orchestrator->wss_estimate(victim)));
      });
  fleet.orchestrator->start();
  if (fleet.rebalancer != nullptr) fleet.rebalancer->start();
  bed.cluster().run_for_seconds(duration_s);
  if (fleet.rebalancer != nullptr) fleet.rebalancer->stop();
  fleet.orchestrator->stop();

  std::printf("\nDecisions:\n");
  for (const core::FleetDecision& d : fleet.orchestrator->decisions()) {
    std::printf("  t=%5.0fs %s: aggregate %.2f GiB, %zu victim(s), "
                "%zu launched, %u deferred%s\n",
                to_seconds(d.time), d.source_host.c_str(),
                to_gib(d.trigger.aggregate_wss), d.trigger.victims.size(),
                d.launches.size(), d.deferred,
                d.trigger.insufficient ? " [insufficient]" : "");
    for (const core::FleetLaunch& l : d.launches) {
      std::printf("          %s -> %s (%.0f MiB reserved)\n", l.vm.c_str(),
                  l.dest.c_str(), to_mib(l.reserved_wss));
    }
  }

  if (fleet.rebalancer != nullptr) {
    std::printf("\nRebalancer rounds:\n");
    for (const core::RebalanceRound& r : fleet.rebalancer->rounds()) {
      std::printf("  t=%5.0fs round %u: load %lld/%lld millis, %zu move(s), "
                  "%u throttled%s\n",
                  to_seconds(r.time), r.index,
                  static_cast<long long>(r.max_load_millis),
                  static_cast<long long>(r.min_load_millis), r.moves.size(),
                  r.throttled, r.balanced ? " [balanced]" : "");
      for (const core::RebalanceMove& m : r.moves) {
        std::printf("          %s %s -> %s (%.0f MiB)%s\n", m.vm.c_str(),
                    m.from.c_str(), m.to.c_str(), to_mib(m.wss),
                    m.swap ? " [swap]" : "");
      }
    }
  }

  std::printf("\nFinal placement:\n");
  for (core::VmHandle* h : fleet.handles) {
    host::Host* where = bed.host_of(h->machine);
    std::printf("  %-4s on %-6s  WSS estimate %7.0f MiB  resident %7.0f MiB\n",
                h->machine->name().c_str(),
                where != nullptr ? where->name().c_str() : "?",
                to_mib(fleet.orchestrator->wss_estimate(h)),
                to_mib(h->machine->memory().resident_bytes()));
  }

  metrics::Table t({"vm", "dest", "start (s)", "end (s)", "downtime (ms)",
                    "wire (MiB)", "done"});
  for (const auto& m : fleet.orchestrator->migrations()) {
    const migration::MigrationMetrics& mm = m->metrics();
    t.add_row({m->machine()->name(), m->dest_host()->name(),
               metrics::Table::num(to_seconds(mm.start_time), 1),
               mm.completed ? metrics::Table::num(to_seconds(mm.end_time), 1)
                            : "n/a",
               metrics::Table::num(static_cast<double>(mm.downtime) / 1000.0, 0),
               metrics::Table::num(to_mib(mm.bytes_transferred), 0),
               mm.completed ? "yes" : "no"});
  }
  std::printf("\n%s", t.to_string().c_str());
  if (!stats_out.empty() &&
      !export_stats(*fleet.registry, stats_out, bed.cluster().simulation().now())) {
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  core::Technique technique = core::Technique::kAgile;
  double vm_gb = 4, host_gb = 2, read_fraction = 0.8;
  double watermark_high = 0.90, watermark_low = 0.75;
  double duration_s = 400;
  std::uint64_t seed = 42;
  std::uint32_t fleet_hosts = 4, fleet_vms = 6, fleet_hot = 3;
  std::uint32_t streams = 1;
  migration::Compression compression = migration::Compression::kOff;
  double zero_fraction = 0.0;
  bool busy = false, timeline = false, fleet = false;
  bool leaf_spine = false, rebalance = false;
  std::uint32_t racks = 0;  // 0: default (4) when --topology=leaf-spine
  double oversub = 4.0;
  std::string trace_out;
  std::string stats_out;
  double stats_interval_s = 1.0;

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (parse_flag(argv[i], "technique", &v)) {
      if (v == "precopy") {
        technique = core::Technique::kPrecopy;
      } else if (v == "postcopy") {
        technique = core::Technique::kPostcopy;
      } else if (v == "agile") {
        technique = core::Technique::kAgile;
      } else if (v == "scatter-gather") {
        technique = core::Technique::kScatterGather;
      } else {
        return usage(argv[0]);
      }
    } else if (parse_flag(argv[i], "vm-gb", &v)) {
      vm_gb = std::stod(v);
    } else if (parse_flag(argv[i], "host-gb", &v)) {
      host_gb = std::stod(v);
    } else if (parse_flag(argv[i], "read-fraction", &v)) {
      read_fraction = std::stod(v);
    } else if (parse_flag(argv[i], "streams", &v)) {
      streams = static_cast<std::uint32_t>(std::stoul(v));
    } else if (parse_flag(argv[i], "compression", &v)) {
      if (v == "off") {
        compression = migration::Compression::kOff;
      } else if (v == "fast") {
        compression = migration::Compression::kFast;
      } else if (v == "heavy") {
        compression = migration::Compression::kHeavy;
      } else {
        return usage(argv[0]);
      }
    } else if (parse_flag(argv[i], "zero-fraction", &v)) {
      zero_fraction = std::stod(v);
    } else if (parse_flag(argv[i], "watermark-high", &v)) {
      watermark_high = std::stod(v);
    } else if (parse_flag(argv[i], "watermark-low", &v)) {
      watermark_low = std::stod(v);
    } else if (parse_flag(argv[i], "seed", &v)) {
      seed = std::stoull(v);
    } else if (parse_flag(argv[i], "trace-out", &v)) {
      trace_out = v;
    } else if (parse_flag(argv[i], "stats-out", &v)) {
      stats_out = v;
    } else if (parse_flag(argv[i], "stats-interval", &v)) {
      stats_interval_s = std::stod(v);
      if (stats_interval_s <= 0) return usage(argv[0]);
    } else if (parse_flag(argv[i], "hosts", &v)) {
      fleet_hosts = static_cast<std::uint32_t>(std::stoul(v));
    } else if (parse_flag(argv[i], "vms", &v)) {
      fleet_vms = static_cast<std::uint32_t>(std::stoul(v));
    } else if (parse_flag(argv[i], "hot", &v)) {
      fleet_hot = static_cast<std::uint32_t>(std::stoul(v));
    } else if (parse_flag(argv[i], "duration", &v)) {
      duration_s = std::stod(v);
    } else if (parse_flag(argv[i], "topology", &v)) {
      if (v == "flat") {
        leaf_spine = false;
      } else if (v == "leaf-spine") {
        leaf_spine = true;
      } else {
        return usage(argv[0]);
      }
    } else if (parse_flag(argv[i], "racks", &v)) {
      racks = static_cast<std::uint32_t>(std::stoul(v));
      if (racks == 0) return usage(argv[0]);
      leaf_spine = true;
    } else if (parse_flag(argv[i], "oversub", &v)) {
      oversub = std::stod(v);
      if (!(oversub > 0)) return usage(argv[0]);
    } else if (std::strcmp(argv[i], "--rebalance") == 0) {
      rebalance = true;
    } else if (std::strcmp(argv[i], "--busy") == 0) {
      busy = true;
    } else if (std::strcmp(argv[i], "--timeline") == 0) {
      timeline = true;
    } else if (std::strcmp(argv[i], "--fleet") == 0) {
      fleet = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (watermark_low <= 0 || watermark_low > watermark_high ||
      watermark_high > 1.0) {
    std::fprintf(stderr, "watermarks must satisfy 0 < low <= high <= 1\n");
    return 2;
  }

  log::set_level(LogLevel::kInfo);
  if (fleet) {
    if (fleet_hosts < 2 || fleet_vms < 1 || fleet_hot > fleet_vms ||
        duration_s <= 0) {
      return usage(argv[0]);
    }
    core::scenarios::FleetOptions fopt;
    fopt.technique = technique;
    fopt.host_count = fleet_hosts;
    fopt.vm_count = fleet_vms;
    fopt.hot_vms = fleet_hot;
    fopt.watermarks.high = watermark_high;
    fopt.watermarks.low = watermark_low;
    fopt.seed = seed;
    fopt.stats = !stats_out.empty();
    fopt.stats_interval = sec(stats_interval_s);
    if (leaf_spine) {
      if (racks == 0) racks = 4;
      if (fleet_hosts % racks != 0) {
        std::fprintf(stderr, "--hosts=%u must divide evenly into --racks=%u\n",
                     fleet_hosts, racks);
        return 2;
      }
      fopt.racks = racks;
      fopt.oversubscription = oversub;
      // On a rack fabric, both the orchestrator's victim placement and the
      // rebalancer prefer same-rack destinations.
      fopt.rack_aware_placement = true;
      fopt.rebalancer_config.rack_aware = true;
    }
    fopt.rebalance = rebalance;
    return run_fleet(fopt, duration_s, stats_out);
  }
  if (leaf_spine || rebalance) {
    std::fprintf(stderr, "--topology/--racks/--oversub/--rebalance require "
                         "--fleet\n");
    return 2;
  }

  if (vm_gb <= 0.1 || host_gb <= 0.6) {
    std::fprintf(stderr, "vm/host sizes too small to model\n");
    return 2;
  }
  if (streams < 1 || streams > migration::StreamGroup::kMaxStreams ||
      zero_fraction < 0.0 || zero_fraction > 1.0) {
    return usage(argv[0]);
  }
  core::scenarios::SingleVmOptions opt;
  opt.technique = technique;
  opt.vm_memory = static_cast<Bytes>(vm_gb * static_cast<double>(1_GiB));
  opt.host_ram = static_cast<Bytes>(host_gb * static_cast<double>(1_GiB));
  opt.busy = busy;
  opt.read_fraction = read_fraction;
  opt.seed = seed;
  opt.trace = !trace_out.empty();
  opt.num_streams = streams;
  opt.compression = compression;
  opt.zero_page_fraction = zero_fraction;
  opt.stats = !stats_out.empty();
  opt.stats_interval = sec(stats_interval_s);
  core::scenarios::SingleVm sc = core::scenarios::make_single_vm(opt);
  std::printf("Preparing a %.1f GiB %s VM on a %.1f GiB host (%s)...\n", vm_gb,
              busy ? "busy" : "idle", host_gb, core::technique_name(technique));
  sc.prepare();

  std::unique_ptr<core::ThroughputProbe> probe;
  if (busy) {
    probe = std::make_unique<core::ThroughputProbe>(&sc.bed->cluster(),
                                                    sc.ycsb, "ycsb");
  }
  std::shared_ptr<sim::PeriodicTask> wss_probe;
  if (opt.trace) {
    // Observation-only watermark probe: SingleVm runs no reservation
    // controller, so sample the VM's resident set once a second and run the
    // §III-B trigger over it. This puts the host's memory-pressure picture
    // on the trace's wss track next to the engine phases.
    vm::VirtualMachine* machine = sc.handle->machine;
    Bytes host_ram = sc.bed->host_at(0)->ram();
    Bytes host_os = sc.bed->host_at(0)->config().host_os_bytes;
    wss::WatermarkConfig watermarks;
    watermarks.high = watermark_high;
    watermarks.low = watermark_low;
    wss_probe = sc.bed->cluster().simulation().schedule_periodic(
        sec(1), [machine, host_ram, host_os, watermarks](SimTime) {
          AGILE_TRACE_SPAN("wss", "watermark_probe", 0);
          std::vector<wss::VmPressure> vms(1);
          vms[0].name = machine->name();
          vms[0].wss = machine->memory().resident_bytes();
          wss::evaluate_watermarks(host_ram, host_os, vms, watermarks);
        });
  }
  SimTime start = sc.bed->cluster().simulation().now();
  sc.run_migration();
  if (timeline && probe) {
    // One line per 1 s step of the run, read back from the probe's samples.
    SimTime end = sc.bed->cluster().simulation().now();
    for (SimTime t = start + sec(1); t <= end; t += sec(1)) {
      std::printf("  t=%6.1fs  %8.0f ops/s\n",
                  to_seconds(t) - to_seconds(start),
                  probe->series().value_at(to_seconds(t)));
    }
  }
  if (!sc.migration->completed()) {
    std::fprintf(stderr, "migration did not complete\n");
    return 1;
  }

  const migration::MigrationMetrics& m = sc.migration->metrics();
  metrics::Table t({"metric", "value"});
  t.add_row({"technique", sc.migration->technique()});
  t.add_row({"total time (s)", metrics::Table::num(to_seconds(m.total_time()), 1)});
  t.add_row({"downtime (ms)",
             metrics::Table::num(static_cast<double>(m.downtime) / 1000.0, 0)});
  t.add_row({"data on direct channel (MiB)",
             metrics::Table::num(to_mib(m.bytes_transferred), 0)});
  t.add_row({"scattered to VMD (MiB)",
             metrics::Table::num(to_mib(m.bytes_scattered), 0)});
  t.add_row({"full pages sent", std::to_string(m.pages_sent_full)});
  t.add_row({"descriptors sent", std::to_string(m.pages_sent_descriptor)});
  t.add_row({"zero pages elided", std::to_string(m.pages_zero_elided)});
  t.add_row({"compression savings (MiB)",
             metrics::Table::num(to_mib(m.compressed_bytes_saved), 0)});
  t.add_row({"demand faults over network", std::to_string(m.pages_demand_served)});
  t.add_row({"swap-ins at source", std::to_string(m.pages_swapped_in_at_source)});
  t.add_row({"pre-copy rounds", std::to_string(m.precopy_rounds)});
  std::printf("\n%s", t.to_string().c_str());

  if (opt.trace) {
    if (wss_probe) wss_probe->cancel();
    const trace::TraceRecorder& rec = sc.session->recorder();
    Status st = rec.write_chrome_json(trace_out);
    if (!st.is_ok()) {
      std::fprintf(stderr, "trace export failed: %s\n", st.message().c_str());
      return 1;
    }
    std::printf("\n%s", rec.summary().c_str());
    std::printf("\nwrote %zu trace events to %s\n", rec.event_count(),
                trace_out.c_str());
  }
  if (!stats_out.empty() &&
      !export_stats(*sc.registry, stats_out,
                    sc.bed->cluster().simulation().now())) {
    return 1;
  }
  return 0;
}
