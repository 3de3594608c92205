// Scatter-gather migration: the fast-deprovisioning technique built on the
// same portable per-VM swap device as Agile migration.
#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "migration/scatter_gather.hpp"
#include "workload/ycsb.hpp"

namespace agile::core {
namespace {

struct Bed {
  TestbedConfig cfg;
  std::unique_ptr<Testbed> bed;
  VmHandle* handle = nullptr;
  workload::YcsbWorkload* ycsb = nullptr;

  explicit Bed(bool busy, std::uint64_t seed = 42) {
    cfg.cluster.seed = seed;
    for (host::HostConfig& host_cfg : cfg.hosts) {
      host_cfg.ram = 1_GiB;
      host_cfg.host_os_bytes = 32_MiB;
    }
    cfg.vmd_server_capacity = 2_GiB;
    bed = std::make_unique<Testbed>(cfg);
    VmSpec spec;
    spec.name = "vm";
    spec.memory = 256_MiB;
    spec.reservation = 128_MiB;
    spec.swap = SwapBinding::kPerVmDevice;
    handle = &bed->create_vm(spec);
    if (busy) {
      workload::YcsbConfig ycfg;
      ycfg.dataset_bytes = 200_MiB;
      ycfg.guest_os_bytes = 16_MiB;
      ycfg.active_bytes = 64_MiB;
      ycfg.read_fraction = 0.8;
      auto load = std::make_unique<workload::YcsbWorkload>(
          handle->machine, &bed->cluster().network(), bed->client_node(), ycfg,
          bed->make_rng("y"));
      ycsb = load.get();
      bed->attach_workload(*handle, std::move(load));
      ycsb->load(0);
    } else {
      handle->machine->memory().prefill(handle->machine->page_count(), 0);
    }
  }

  migration::ScatterGatherMigration* run(double limit_s = 600) {
    auto mig = bed->make_migration_to(Technique::kScatterGather, *handle,
                                      bed->host_at(1));
    auto* sg = static_cast<migration::ScatterGatherMigration*>(mig.get());
    migration_ = std::move(mig);
    migration_->start();
    double deadline = bed->cluster().now_seconds() + limit_s;
    while (!migration_->completed() && bed->cluster().now_seconds() < deadline) {
      bed->cluster().run_for_seconds(1);
    }
    return sg;
  }

  std::unique_ptr<migration::MigrationManager> migration_;
};

TEST(ScatterGather, IdleVmDeprovisionsAndStaysConsistent) {
  Bed bed(/*busy=*/false);
  auto* sg = bed.run();
  ASSERT_TRUE(bed.migration_->completed());
  EXPECT_GE(sg->scatter_complete_time(), 0);
  // Source fully released.
  EXPECT_EQ(bed.migration_->source_memory()->resident_pages(), 0u);
  EXPECT_EQ(bed.migration_->source_memory()->swapped_pages(), 0u);
  // Destination resolved every page.
  EXPECT_EQ(bed.handle->machine->memory().remote_pages(), 0u);
  bed.handle->machine->memory().check_consistency();
  bed.migration_->source_memory()->check_consistency();
  EXPECT_TRUE(bed.bed->host_at(1)->has_vm(bed.handle->machine));
}

TEST(ScatterGather, ResidentSetTravelsThroughVmdNotTheWire) {
  Bed bed(/*busy=*/false);
  auto* sg = bed.run();
  ASSERT_TRUE(bed.migration_->completed());
  const migration::MigrationMetrics& m = bed.migration_->metrics();
  // Only descriptors + CPU state cross the direct channel...
  EXPECT_LT(m.bytes_transferred, 16_MiB);
  // ...while the 128 MiB resident set was scattered to the intermediaries.
  EXPECT_GT(m.bytes_scattered, 100_MiB);
  EXPECT_EQ(m.pages_sent_full, 0u);
  EXPECT_EQ(m.pages_sent_descriptor, bed.handle->machine->page_count());
  (void)sg;
}

TEST(ScatterGather, DeprovisionsFasterWhenDestinationIsCongested) {
  // The Cloud'14 motivation: the destination can't absorb pages at line rate
  // (here: its ingress is saturated by unrelated traffic), but the source
  // must be freed NOW. Agile's live round is throttled by the destination;
  // scatter-gather evicts through the intermediaries at full speed.
  auto deprovision_time = [](Technique technique) {
    Bed bed(/*busy=*/false);
    // Saturate dest ingress with a persistent bulk flow.
    net::Network& net = bed.bed->cluster().network();
    net::FlowId noise = net.open_flow(
        bed.bed->client_node(), bed.bed->host_at(1)->node(), [](Bytes) {});
    auto feeder = bed.bed->cluster().simulation().schedule_periodic(
        msec(100), [&net, noise](SimTime) { net.offer(noise, 16_MiB); }, 0);
    auto mig = bed.bed->make_migration_to(technique, *bed.handle,
                                          bed.bed->host_at(1));
    mig->start();
    double deadline = bed.bed->cluster().now_seconds() + 600;
    while (!mig->completed() && bed.bed->cluster().now_seconds() < deadline) {
      bed.bed->cluster().run_for_seconds(1);
    }
    EXPECT_TRUE(mig->completed()) << core::technique_name(technique);
    feeder->cancel();
    return mig->metrics().total_time();
  };
  SimTime sg = deprovision_time(Technique::kScatterGather);
  SimTime agile = deprovision_time(Technique::kAgile);
  EXPECT_LT(sg, agile);
}

TEST(ScatterGather, GatherRefillsDestinationMemory) {
  Bed bed(/*busy=*/false);
  auto* sg = bed.run();
  ASSERT_TRUE(bed.migration_->completed());
  EXPECT_GT(sg->pages_gathered(), 0u);
  // Gather respects the destination reservation.
  EXPECT_LE(bed.handle->machine->memory().resident_pages(),
            bed.handle->machine->memory().reservation_pages());
}

TEST(ScatterGather, BusyVmKeepsWorkingThroughMigration) {
  Bed bed(/*busy=*/true);
  bed.bed->cluster().run_for_seconds(3);
  std::uint64_t before = bed.ycsb->ops_total();
  bed.run();
  ASSERT_TRUE(bed.migration_->completed());
  EXPECT_GT(bed.ycsb->ops_total(), before);
  // And keeps working afterwards (pages reachable in the VMD).
  std::uint64_t after = bed.ycsb->ops_total();
  bed.bed->cluster().run_for_seconds(5);
  EXPECT_GT(bed.ycsb->ops_total(), after);
  bed.handle->machine->memory().check_consistency();
}

TEST(ScatterGather, SlotAccountingBalances) {
  Bed bed(/*busy=*/true);
  bed.bed->cluster().run_for_seconds(3);
  bed.run();
  ASSERT_TRUE(bed.migration_->completed());
  bed.bed->cluster().run_for_seconds(5);
  std::uint64_t referenced = 0;
  const mem::GuestMemory& memory = bed.handle->machine->memory();
  for (PageIndex p = 0; p < memory.page_count(); ++p) {
    if (memory.swap_slot(p) != swap::kNoSlot) ++referenced;
  }
  EXPECT_EQ(bed.handle->per_vm_swap->used_slots(), referenced);
}

TEST(ScatterGather, Deterministic) {
  auto run_once = [](std::uint64_t seed) {
    Bed bed(/*busy=*/true, seed);
    bed.bed->cluster().run_for_seconds(3);
    bed.run();
    return std::tuple(bed.migration_->metrics().total_time(),
                      bed.migration_->metrics().bytes_scattered,
                      bed.migration_->metrics().pages_demand_served);
  };
  EXPECT_EQ(run_once(3), run_once(3));
}

}  // namespace
}  // namespace agile::core
