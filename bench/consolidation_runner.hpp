// Runner for Tables I–III: the §V-C experiment — four 10 GB VMs on a
// 23 GB source host (YCSB/Redis or Sysbench/MySQL), one VM migrated to
// relieve memory pressure — executed once per technique. The three tables
// are three views of the same runs.
#pragma once

#include "bench_common.hpp"
#include "core/scenarios.hpp"
#include "migration/migration.hpp"

namespace agile::bench {

struct ConsolidationRun {
  migration::MigrationMetrics migration;
  double avg_perf = 0;
};

/// One Tables-I–III sweep point. Tables iterate app (outer) × technique
/// (inner); `consolidation_points` preserves that order, so point `i` is row
/// `i / 3`, column `i % 3`.
struct ConsolidationPoint {
  core::Technique technique;
  core::scenarios::AppKind app;
};

inline std::vector<ConsolidationPoint> consolidation_points() {
  const core::Technique techniques[] = {core::Technique::kPrecopy,
                                        core::Technique::kPostcopy,
                                        core::Technique::kAgile};
  std::vector<ConsolidationPoint> points;
  for (core::scenarios::AppKind app :
       {core::scenarios::AppKind::kYcsb, core::scenarios::AppKind::kOltp}) {
    for (core::Technique technique : techniques) points.push_back({technique, app});
  }
  return points;
}

inline ConsolidationRun run_consolidation(const ConsolidationPoint& pt) {
  namespace scen = core::scenarios;
  const bool quick = quick_mode();
  const scen::AppKind app = pt.app;

  scen::ConsolidationOptions opt;
  opt.technique = pt.technique;
  opt.app = app;
  if (quick) {
    opt.host_ram = 3_GiB;
    opt.vm_memory = 1_GiB;
    opt.reservation = 563_MiB;
    opt.dataset = app == scen::AppKind::kYcsb ? 920_MiB : 820_MiB;
    opt.guest_os = 20_MiB;
    opt.initial_active = 20_MiB;
    opt.ramped_active = 614_MiB;
  } else if (app == scen::AppKind::kOltp) {
    opt.dataset = 8_GiB;  // paper: 8 GB MySQL dataset per VM
    opt.guest_os = 300_MiB;
  }

  scen::Consolidation sc = scen::make_consolidation(opt);
  sc.load_all();

  SimTime migrate_at;
  double window_s;
  if (app == scen::AppKind::kYcsb) {
    // §V-A script: ramp from t=150 s, migrate at t=400 s.
    sc.schedule_ramp(quick ? sec(15) : sec(150), quick ? sec(5) : sec(50));
    migrate_at = quick ? sec(40) : sec(400);
    window_s = quick ? 120 : 300;
  } else {
    // Sysbench runs at full intensity throughout; measure a 300 s window
    // starting at the migration.
    migrate_at = quick ? sec(20) : sec(60);
    window_s = quick ? 120 : 300;
  }
  sc.schedule_migration(migrate_at);

  double t_mig = to_seconds(migrate_at);
  double horizon = t_mig + window_s;
  sc.bed->cluster().run_for_seconds(horizon);
  // Make sure the migration itself finished (pre-copy can outlast the window).
  double guard = sc.bed->cluster().now_seconds() + (quick ? 1200 : 7200);
  while (!sc.migration->completed() &&
         sc.bed->cluster().now_seconds() < guard) {
    sc.bed->cluster().run_for_seconds(5);
  }

  record_run(sc.bed->cluster().simulation().events_executed());
  ConsolidationRun result;
  result.migration = sc.migration->metrics();
  result.avg_perf = sc.average_throughput().mean_between(t_mig, t_mig + window_s);
  return result;
}

}  // namespace agile::bench
