// The canned §V scenarios must assemble the right topology and respond to
// their scripts (ramp, migration scheduling) — these are what every bench
// binary trusts.
#include <gtest/gtest.h>

#include "core/scenarios.hpp"

namespace agile::core::scenarios {
namespace {

ConsolidationOptions mini_consolidation(Technique technique) {
  ConsolidationOptions opt;
  opt.technique = technique;
  opt.vm_count = 2;
  opt.host_ram = 1_GiB;
  opt.vm_memory = 384_MiB;
  opt.reservation = 192_MiB;
  opt.dataset = 256_MiB;
  opt.guest_os = 16_MiB;
  opt.initial_active = 32_MiB;
  opt.ramped_active = 224_MiB;
  return opt;
}

TEST(ConsolidationScenario, BuildsTopologyPerTechnique) {
  for (Technique t : {Technique::kPrecopy, Technique::kAgile}) {
    Consolidation sc = make_consolidation(mini_consolidation(t));
    EXPECT_EQ(sc.handles.size(), 2u);
    EXPECT_EQ(sc.loads.size(), 2u);
    EXPECT_EQ(sc.probes.size(), 2u);
    for (VmHandle* h : sc.handles) {
      EXPECT_TRUE(sc.bed->host_at(0)->has_vm(h->machine));
      if (t == Technique::kAgile) {
        EXPECT_NE(h->per_vm_swap, nullptr);
      } else {
        EXPECT_EQ(h->per_vm_swap, nullptr);
      }
    }
  }
}

TEST(ConsolidationScenario, LoadFillsReservations) {
  Consolidation sc = make_consolidation(mini_consolidation(Technique::kAgile));
  sc.load_all();
  for (VmHandle* h : sc.handles) {
    EXPECT_EQ(h->machine->memory().resident_pages(), pages_for(192_MiB));
    EXPECT_GT(h->machine->memory().swapped_pages(), 0u);
  }
}

TEST(ConsolidationScenario, RampWidensActiveSetsInOrder) {
  Consolidation sc = make_consolidation(mini_consolidation(Technique::kAgile));
  sc.load_all();
  sc.schedule_ramp(sec(5), sec(5));
  auto active = [&](std::size_t i) {
    return static_cast<workload::YcsbWorkload*>(sc.loads[i])->active_bytes();
  };
  sc.bed->cluster().run_for_seconds(6);
  EXPECT_EQ(active(0), 224_MiB);
  EXPECT_EQ(active(1), 32_MiB);  // not yet
  sc.bed->cluster().run_for_seconds(5);
  EXPECT_EQ(active(1), 224_MiB);
}

TEST(ConsolidationScenario, ScheduledMigrationFiresAndCompletes) {
  Consolidation sc = make_consolidation(mini_consolidation(Technique::kAgile));
  sc.load_all();
  sc.schedule_migration(sec(3));
  sc.bed->cluster().run_for_seconds(2);
  EXPECT_FALSE(sc.migration->started());
  sc.bed->cluster().run_for_seconds(120);
  EXPECT_TRUE(sc.migration->completed());
  EXPECT_TRUE(sc.bed->host_at(1)->has_vm(sc.handles[0]->machine));
}

TEST(ConsolidationScenario, AverageThroughputAveragesProbes) {
  Consolidation sc = make_consolidation(mini_consolidation(Technique::kAgile));
  sc.load_all();
  sc.bed->cluster().run_for_seconds(10);
  metrics::TimeSeries avg = sc.average_throughput();
  ASSERT_GT(avg.size(), 5u);
  double expected = (sc.probes[0]->series().value_at(8.0) +
                     sc.probes[1]->series().value_at(8.0)) /
                    2.0;
  EXPECT_DOUBLE_EQ(avg.value_at(8.0), expected);
}

TEST(SingleVmScenario, IdleVmIsFullyTouched) {
  SingleVmOptions opt;
  opt.technique = Technique::kPrecopy;
  opt.host_ram = 512_MiB;
  opt.vm_memory = 768_MiB;
  opt.busy = false;
  opt.guest_os = 32_MiB;
  opt.free_margin = 64_MiB;
  SingleVm sc = make_single_vm(opt);
  sc.prepare();
  EXPECT_EQ(sc.handle->machine->memory().untouched_pages(), 0u);
  // Reservation capped by host RAM minus host OS.
  EXPECT_LE(sc.handle->machine->memory().reservation(), 512_MiB);
  EXPECT_EQ(sc.ycsb, nullptr);
}

TEST(SingleVmScenario, BusyVmRunsAClient) {
  SingleVmOptions opt;
  opt.technique = Technique::kAgile;
  opt.host_ram = 512_MiB;
  opt.vm_memory = 768_MiB;
  opt.busy = true;
  opt.guest_os = 32_MiB;
  opt.free_margin = 64_MiB;
  SingleVm sc = make_single_vm(opt);
  sc.prepare();
  ASSERT_NE(sc.ycsb, nullptr);
  EXPECT_GT(sc.ycsb->ops_total(), 0u);
  sc.run_migration(600);
  ASSERT_TRUE(sc.migration->completed());
  EXPECT_TRUE(sc.bed->host_at(1)->has_vm(sc.handle->machine));
}

TEST(WssScenario, BuildsTrackedVm) {
  WssTrackingOptions opt;
  opt.host_ram = 4_GiB;
  opt.vm_memory = 1_GiB;
  opt.initial_reservation = 1_GiB;
  opt.dataset = 256_MiB;
  opt.guest_os = 32_MiB;
  WssTracking sc = make_wss_tracking(opt);
  sc.load();
  ASSERT_NE(sc.controller, nullptr);
  ASSERT_NE(sc.probe, nullptr);
  EXPECT_NE(sc.handle->per_vm_swap, nullptr);  // tracking needs per-VM iostat
  sc.controller->start();
  sc.bed->cluster().run_for_seconds(120);
  // Tracks down toward the ~288 MiB working set.
  EXPECT_LT(sc.controller->wss_estimate(), 600_MiB);
  EXPECT_GT(sc.controller->wss_estimate(), 200_MiB);
}

}  // namespace
}  // namespace agile::core::scenarios
