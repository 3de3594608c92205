// Single-VM runner shared by fig7_8_single_vm (migrate an idle or busy VM of
// 2–12 GB off a 6 GB host) and stream_scaling (streams × compression).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/scenarios.hpp"
#include "util/log.hpp"

namespace agile::bench {

/// Builds, prepares and migrates one single-VM scenario. `name` labels the
/// run's progress line and its AGILE_TRACE / AGILE_STATS files.
inline migration::MigrationMetrics run_single_vm(
    core::scenarios::SingleVmOptions opt, const std::string& name) {
  note("  [" + name + "] running...");
  opt.trace = !trace_stem().empty();
  opt.stats = !stats_stem().empty();
  core::scenarios::SingleVm sc = core::scenarios::make_single_vm(opt);
  sc.prepare();
  sc.run_migration();
  record_run(sc.bed->cluster().simulation().events_executed());
  if (!sc.migration->metrics().completed) record_incomplete_run();
  if (sc.session != nullptr) {
    Status st = sc.session->recorder().write_chrome_json(trace_stem() + "." +
                                                         name + ".json");
    if (!st.is_ok()) AGILE_LOG_WARN("%s", st.message().c_str());
  }
  if (sc.registry != nullptr) {
    write_run_stats(*sc.registry, name, sc.bed->cluster().simulation().now());
  }
  return sc.migration->metrics();
}

inline std::vector<Bytes> single_vm_sizes() {
  if (quick_mode()) return {512_MiB, 1_GiB, 2_GiB};
  return {2_GiB, 4_GiB, 6_GiB, 8_GiB, 10_GiB, 12_GiB};
}

/// One Fig-7/8 sweep point. Figures iterate busy (outer), size, technique
/// (inner); `single_vm_points` preserves that order so tables keep their
/// historical row order.
struct SingleVmPoint {
  core::Technique technique;
  Bytes size;
  bool busy;
};

inline std::vector<SingleVmPoint> single_vm_points() {
  const core::Technique techniques[] = {core::Technique::kPrecopy,
                                        core::Technique::kPostcopy,
                                        core::Technique::kAgile};
  std::vector<SingleVmPoint> points;
  for (bool busy : {false, true}) {
    for (Bytes size : single_vm_sizes()) {
      for (core::Technique technique : techniques) {
        points.push_back({technique, size, busy});
      }
    }
  }
  return points;
}

inline migration::MigrationMetrics run_single_vm_point(const SingleVmPoint& pt) {
  const bool quick = quick_mode();
  core::scenarios::SingleVmOptions opt;
  opt.technique = pt.technique;
  opt.host_ram = quick ? 1_GiB : 6_GiB;
  opt.vm_memory = pt.size;
  opt.busy = pt.busy;
  if (quick) {
    opt.guest_os = 32_MiB;
    opt.free_margin = 64_MiB;
  }
  char name[128];
  std::snprintf(name, sizeof(name), "singlevm_%s_%llumib_%s%s",
                core::technique_name(pt.technique),
                static_cast<unsigned long long>(pt.size >> 20),
                pt.busy ? "busy" : "idle", quick ? "_quick" : "");
  return run_single_vm(opt, name);
}

}  // namespace agile::bench
