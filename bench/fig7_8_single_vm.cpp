// Figures 7–8 — total migration time and data transferred vs VM memory size
// (2–12 GB) on a 6 GB host, for an idle and a busy VM, under pre-copy,
// post-copy and Agile. The paper derives both figures from the same
// experiments, so one sweep feeds both tables.
//
// Expected shape, Fig. 7 (paper §V-B1): pre/post-copy grow with VM size and
// jump once the VM exceeds host memory (swap-ins, thrashing — much worse
// busy); Agile stays flat past 6 GB because it never touches the swapped
// pages.
//
// Expected shape, Fig. 8 (paper §V-B2): pre/post-copy transfer the whole VM,
// so the curves are linear in VM size (pre-copy busy steepest: dirty
// retransmits); Agile transfers only the in-memory part, constant ≈ 5.5 GB
// past 6 GB.
#include "bench_common.hpp"
#include "parallel_sweep.hpp"
#include "single_vm_runner.hpp"

using namespace agile;

int main() {
  bench::banner("Figures 7-8: migration time and data transferred vs VM size");
  std::vector<bench::SingleVmPoint> points = bench::single_vm_points();
  bench::ParallelSweep sweep;
  std::vector<migration::MigrationMetrics> runs =
      sweep.map(points, bench::run_single_vm_point);

  metrics::Table fig7({"VM size (GB)", "busy", "technique",
                       "migration time (s)", "downtime (ms)",
                       "swap-ins at source"});
  metrics::Table fig8({"VM size (GB)", "busy", "technique",
                       "data transferred (MB)", "full pages", "descriptors"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const bench::SingleVmPoint& pt = points[i];
    const migration::MigrationMetrics& m = runs[i];
    const std::string size = metrics::Table::num(to_gib(pt.size), 1);
    const std::string busy = pt.busy ? "busy" : "idle";
    const std::string technique = core::technique_name(pt.technique);
    fig7.add_row(
        {size, busy, technique,
         m.completed ? metrics::Table::num(to_seconds(m.total_time()), 1)
                     : "DNF",
         metrics::Table::num(static_cast<double>(m.downtime) / 1000.0, 0),
         std::to_string(m.pages_swapped_in_at_source)});
    fig8.add_row({size, busy, technique,
                  metrics::Table::num(to_mib(m.bytes_transferred), 0),
                  std::to_string(m.pages_sent_full),
                  std::to_string(m.pages_sent_descriptor)});
  }

  std::printf("\nFigure 7: total migration time vs VM size\n%s\n",
              fig7.to_string().c_str());
  fig7.write_csv(bench::out_dir() + "/fig7_migration_time.csv");
  bench::note("Expected shape: baselines grow with VM size (busy >> idle past "
              "host RAM); Agile flat once the VM exceeds host memory.");

  std::printf("\nFigure 8: data transferred vs VM size\n%s\n",
              fig8.to_string().c_str());
  fig8.write_csv(bench::out_dir() + "/fig8_data_transferred.csv");
  bench::note("Expected shape: baselines linear in VM size; Agile constant at "
              "~= the host-resident share once the VM exceeds host memory.");
  bench::footer("fig7_8_single_vm");
  return 0;
}
