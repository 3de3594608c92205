// Tables I–III — the 4-VM consolidation experiment (§V-C), one run per
// (workload, technique), printed three ways: average application performance
// across all 4 VMs during the migration window, total migration time, and
// data transferred over the migration channel.
//
// Paper reference:
//   Table I   YCSB/Redis (ops/s):  pre-copy 7653, post-copy 14926, Agile 17112
//             Sysbench (trans/s):  pre-copy 59.84, post-copy 74.74, Agile 89.55
//   Table II  YCSB/Redis (s):      pre-copy 470, post-copy 247, Agile 108
//             Sysbench (s):        pre-copy 182.66, post-copy 157.56, Agile 80.37
//   Table III YCSB/Redis (MB):     pre-copy 15029, post-copy 10268, Agile 8173
//             Sysbench (MB):       pre-copy 11298, post-copy 10268, Agile 7757
#include "bench_common.hpp"
#include "consolidation_runner.hpp"
#include "parallel_sweep.hpp"

using namespace agile;
namespace scen = core::scenarios;

namespace {

/// One view of the six runs: a row per workload, a column per technique.
struct TableView {
  const char* title;
  const char* csv;
  const char* row_label[2];  // YCSB, Sysbench
  const char* paper[2];
  std::string (*cell)(const bench::ConsolidationRun&, scen::AppKind);
  const char* expected;
};

void print_view(const TableView& view,
                const std::vector<bench::ConsolidationPoint>& points,
                const std::vector<bench::ConsolidationRun>& runs) {
  metrics::Table table(
      {"workload", "pre-copy", "post-copy", "agile", "paper (pre/post/agile)"});
  for (std::size_t i = 0; i < points.size(); i += 3) {
    scen::AppKind app = points[i].app;
    const int r = app == scen::AppKind::kYcsb ? 0 : 1;
    std::vector<std::string> row{view.row_label[r]};
    for (std::size_t j = 0; j < 3; ++j) row.push_back(view.cell(runs[i + j], app));
    row.push_back(view.paper[r]);
    table.add_row(row);
  }
  std::printf("\n%s\n%s\n", view.title, table.to_string().c_str());
  table.write_csv(bench::out_dir() + "/" + view.csv);
  bench::note(view.expected);
}

}  // namespace

int main() {
  bench::banner("Tables I-III: 4-VM consolidation");
  std::vector<bench::ConsolidationPoint> points = bench::consolidation_points();
  bench::ParallelSweep sweep;
  std::vector<bench::ConsolidationRun> runs =
      sweep.map(points, bench::run_consolidation);

  const TableView views[] = {
      {"Table I: average application performance during migration",
       "table1_app_performance.csv",
       {"YCSB/Redis (ops/s)", "Sysbench (trans/s)"},
       {"7653 / 14926 / 17112", "59.84 / 74.74 / 89.55"},
       [](const bench::ConsolidationRun& run, scen::AppKind app) {
         return metrics::Table::num(run.avg_perf,
                                    app == scen::AppKind::kYcsb ? 0 : 2);
       },
       "Expected ordering: agile > post-copy > pre-copy on both rows."},
      {"Table II: total migration time (s)",
       "table2_migration_time.csv",
       {"YCSB/Redis", "Sysbench"},
       {"470 / 247 / 108", "182.66 / 157.56 / 80.37"},
       [](const bench::ConsolidationRun& run, scen::AppKind) {
         const migration::MigrationMetrics& m = run.migration;
         return m.completed ? metrics::Table::num(to_seconds(m.total_time()), 1)
                            : std::string("DNF");
       },
       "Expected ordering: agile fastest; pre-copy slowest (~4x agile on YCSB "
       "in the paper)."},
      {"Table III: amount of data transferred (MB)",
       "table3_data_transferred.csv",
       {"YCSB/Redis", "Sysbench"},
       {"15029 / 10268 / 8173", "11298 / 10268 / 7757"},
       [](const bench::ConsolidationRun& run, scen::AppKind) {
         return metrics::Table::num(to_mib(run.migration.bytes_transferred), 0);
       },
       "Expected ordering: pre-copy most (retransmits), agile least (cold "
       "pages never cross the wire)."},
  };
  for (const TableView& view : views) print_view(view, points, runs);
  bench::footer("table1_3_consolidation");
  return 0;
}
