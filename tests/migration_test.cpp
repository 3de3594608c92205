// End-to-end protocol tests for the three migration techniques, driven
// through the public Testbed facade on a scaled-down cluster (hundreds of
// MiB instead of tens of GiB so each case runs in milliseconds).
#include <gtest/gtest.h>

#include <string>

#include "core/testbed.hpp"
#include "workload/ycsb.hpp"

namespace agile::core {
namespace {

struct SmallBed {
  TestbedConfig cfg;
  std::unique_ptr<Testbed> bed;

  explicit SmallBed(std::uint64_t seed = 42) {
    cfg.cluster.seed = seed;
    for (host::HostConfig& host_cfg : cfg.hosts) {
      host_cfg.ram = 1_GiB;
      host_cfg.host_os_bytes = 32_MiB;
      host_cfg.swap_partition_bytes = 2_GiB;
    }
    cfg.vmd_server_capacity = 2_GiB;
    bed = std::make_unique<Testbed>(cfg);
  }

  Testbed& operator*() { return *bed; }
  Testbed* operator->() { return bed.get(); }
};

VmSpec small_vm(const std::string& name, SwapBinding binding) {
  VmSpec spec;
  spec.name = name;
  spec.memory = 256_MiB;
  spec.reservation = 128_MiB;
  spec.swap = binding;
  return spec;
}

workload::YcsbConfig small_ycsb() {
  workload::YcsbConfig cfg;
  cfg.dataset_bytes = 200_MiB;
  cfg.guest_os_bytes = 16_MiB;
  cfg.active_bytes = 64_MiB;
  cfg.read_fraction = 0.9;
  return cfg;
}

// Runs until the migration completes (asserting it does within `limit_s`).
void run_to_completion(Testbed& bed, migration::MigrationManager& mig,
                       double limit_s = 600) {
  double deadline = bed.cluster().now_seconds() + limit_s;
  while (!mig.completed() && bed.cluster().now_seconds() < deadline) {
    bed.cluster().run_for_seconds(1.0);
  }
  ASSERT_TRUE(mig.completed()) << mig.technique() << " migration did not finish";
}

// Destination memory must hold every page (no kRemote left) and the VM must
// run on the destination host.
void expect_fully_migrated(Testbed& bed, VmHandle& h,
                           migration::MigrationManager& mig) {
  EXPECT_EQ(h.machine->memory().remote_pages(), 0u);
  EXPECT_TRUE(bed.host_at(1)->has_vm(h.machine));
  EXPECT_FALSE(bed.host_at(0)->has_vm(h.machine));
  EXPECT_TRUE(h.machine->running());
  EXPECT_GT(mig.metrics().total_time(), 0);
  EXPECT_GE(mig.metrics().downtime, 0);
  EXPECT_GT(mig.metrics().bytes_transferred, 0u);
  // The source process must have released everything.
  EXPECT_EQ(mig.source_memory()->resident_pages(), 0u);
  EXPECT_EQ(mig.source_memory()->swapped_pages(), 0u);
  h.machine->memory().check_consistency();
  mig.source_memory()->check_consistency();
}

TEST(Migration, PrecopyIdleVmCompletes) {
  SmallBed bed;
  VmHandle& h = bed->create_vm(small_vm("vm1", SwapBinding::kHostPartition));
  h.machine->memory().prefill(h.machine->page_count(), 0);  // fully touched
  auto mig = bed->make_migration_to(Technique::kPrecopy, h, bed->host_at(1));
  mig->start();
  run_to_completion(*bed, *mig);
  expect_fully_migrated(*bed, h, *mig);
  // An idle VM converges after one round: no dirtying at all.
  EXPECT_EQ(mig->metrics().precopy_rounds, 1u);
}

TEST(Migration, PrecopyTransfersAtLeastWholeMemory) {
  SmallBed bed;
  VmHandle& h = bed->create_vm(small_vm("vm1", SwapBinding::kHostPartition));
  h.machine->memory().prefill(h.machine->page_count(), 0);
  auto mig = bed->make_migration_to(Technique::kPrecopy, h, bed->host_at(1));
  mig->start();
  run_to_completion(*bed, *mig);
  EXPECT_GE(mig->metrics().bytes_transferred, 256_MiB);
  // 128 MiB resident + 128 MiB swapped: the swapped half was swapped in.
  EXPECT_GE(mig->metrics().pages_swapped_in_at_source, pages_for(100_MiB));
}

TEST(Migration, PrecopyBusyVmRetransmitsDirtyPages) {
  SmallBed bed;
  VmHandle& h = bed->create_vm(small_vm("vm1", SwapBinding::kHostPartition));
  bed->attach_ycsb(h, small_ycsb())->load(0);
  bed->cluster().run_for_seconds(5);
  // At this miniature scale a 256 MiB VM transfers in ~2 s, so force the
  // convergence criterion to actually bite: a (near-)zero downtime target.
  migration::MigrationConfig cfg;
  cfg.downtime_target = msec(2);
  auto mig =
      bed->make_migration_to(Technique::kPrecopy, h, bed->host_at(1), 0, cfg);
  mig->start();
  run_to_completion(*bed, *mig);
  expect_fully_migrated(*bed, h, *mig);
  EXPECT_GT(mig->metrics().precopy_rounds, 1u);
  EXPECT_GT(mig->metrics().pages_sent_full, h.machine->page_count() / 4);
}

TEST(Migration, PostcopyIdleVmCompletes) {
  SmallBed bed;
  VmHandle& h = bed->create_vm(small_vm("vm1", SwapBinding::kHostPartition));
  h.machine->memory().prefill(h.machine->page_count(), 0);
  auto mig = bed->make_migration_to(Technique::kPostcopy, h, bed->host_at(1));
  mig->start();
  run_to_completion(*bed, *mig);
  expect_fully_migrated(*bed, h, *mig);
  EXPECT_EQ(mig->metrics().pages_demand_served, 0u);  // nobody faulted
}

TEST(Migration, PostcopyFlipsQuicklyAndDowntimeIsSmall) {
  SmallBed bed;
  VmHandle& h = bed->create_vm(small_vm("vm1", SwapBinding::kHostPartition));
  h.machine->memory().prefill(h.machine->page_count(), 0);
  auto mig = bed->make_migration_to(Technique::kPostcopy, h, bed->host_at(1));
  mig->start();
  bed->cluster().run_for_seconds(2.0);
  // Execution must already be at the destination long before completion.
  EXPECT_TRUE(bed->host_at(1)->has_vm(h.machine));
  EXPECT_TRUE(h.machine->running());
  run_to_completion(*bed, *mig);
  EXPECT_LT(mig->metrics().downtime, sec(1.5));
  EXPECT_LT(mig->metrics().switchover_time - mig->metrics().start_time, sec(2));
}

TEST(Migration, PostcopyBusyVmDemandPages) {
  SmallBed bed;
  VmHandle& h = bed->create_vm(small_vm("vm1", SwapBinding::kHostPartition));
  auto* ycsb = bed->attach_ycsb(h, small_ycsb());
  ycsb->load(0);
  bed->cluster().run_for_seconds(5);
  std::uint64_t ops_before = ycsb->ops_total();
  auto mig = bed->make_migration_to(Technique::kPostcopy, h, bed->host_at(1));
  mig->start();
  run_to_completion(*bed, *mig);
  expect_fully_migrated(*bed, h, *mig);
  EXPECT_GT(mig->metrics().pages_demand_served, 0u);
  // The workload kept running through the migration.
  EXPECT_GT(ycsb->ops_total(), ops_before);
}

TEST(Migration, PostcopyTransfersEachPageOnce) {
  SmallBed bed;
  VmHandle& h = bed->create_vm(small_vm("vm1", SwapBinding::kHostPartition));
  auto* ycsb = bed->attach_ycsb(h, small_ycsb());
  ycsb->load(0);
  (void)ycsb;
  bed->cluster().run_for_seconds(5);
  auto mig = bed->make_migration_to(Technique::kPostcopy, h, bed->host_at(1));
  mig->start();
  run_to_completion(*bed, *mig);
  std::uint64_t unique_payloads = mig->metrics().pages_sent_full +
                                  mig->metrics().pages_demand_served -
                                  mig->metrics().duplicate_pages;
  EXPECT_LE(unique_payloads, h.machine->page_count());
  // Duplicates (push racing a demand fault within the in-flight window) are
  // possible but must stay a small fraction of the VM.
  EXPECT_LT(mig->metrics().duplicate_pages, h.machine->page_count() / 20);
}

TEST(Migration, AgileIdleVmSkipsColdPages) {
  SmallBed bed;
  VmHandle& h = bed->create_vm(small_vm("vm1", SwapBinding::kPerVmDevice));
  h.machine->memory().prefill(h.machine->page_count(), 0);
  std::uint64_t cold_before = h.per_vm_swap->stored_pages();
  EXPECT_GT(cold_before, pages_for(100_MiB));  // half the VM is cold
  auto mig = bed->make_migration_to(Technique::kAgile, h, bed->host_at(1));
  mig->start();
  run_to_completion(*bed, *mig);
  EXPECT_TRUE(bed->host_at(1)->has_vm(h.machine));
  // Only the resident set crossed the wire: well under half the VM + headers.
  EXPECT_LT(mig->metrics().bytes_transferred, 160_MiB);
  EXPECT_GE(mig->metrics().pages_sent_descriptor, cold_before);
  // Cold pages survived in the VMD and are still reachable.
  EXPECT_EQ(h.machine->memory().swapped_pages(), cold_before);
  h.machine->memory().check_consistency();
}

TEST(Migration, AgileNeverTouchesSourceSsd) {
  SmallBed bed;
  VmHandle& h = bed->create_vm(small_vm("vm1", SwapBinding::kPerVmDevice));
  h.machine->memory().prefill(h.machine->page_count(), 0);
  std::uint64_t ssd_reads_before = bed->host_at(0)->ssd()->stats().reads;
  auto mig = bed->make_migration_to(Technique::kAgile, h, bed->host_at(1));
  mig->start();
  run_to_completion(*bed, *mig);
  EXPECT_EQ(bed->host_at(0)->ssd()->stats().reads, ssd_reads_before);
  EXPECT_EQ(mig->metrics().pages_swapped_in_at_source, 0u);
}

TEST(Migration, AgileBusyVmPushesOnlyDirtySet) {
  SmallBed bed;
  VmHandle& h = bed->create_vm(small_vm("vm1", SwapBinding::kPerVmDevice));
  auto* ycsb = bed->attach_ycsb(h, small_ycsb());
  ycsb->load(0);
  bed->cluster().run_for_seconds(5);
  auto mig = bed->make_migration_to(Technique::kAgile, h, bed->host_at(1));
  mig->start();
  run_to_completion(*bed, *mig);
  EXPECT_TRUE(bed->host_at(1)->has_vm(h.machine));
  EXPECT_TRUE(h.machine->running());
  EXPECT_EQ(h.machine->memory().remote_pages(), 0u);  // dirty set fully owed & paid
  EXPECT_GT(ycsb->ops_total(), 0u);
  h.machine->memory().check_consistency();
  mig->source_memory()->check_consistency();
  // Exactly one live round, per the paper.
  EXPECT_EQ(mig->metrics().precopy_rounds, 1u);
}

// Agile's push re-reads a dirty page that was evicted again after the live
// round from the per-VM device: a remote-memory read, not a source SSD read,
// so only pre-/post-copy add their push swap-ins to
// pages_swapped_in_at_source.
TEST(Migration, AgilePushSwapInsAreNotSourceSsdReads) {
  SmallBed bed;
  VmHandle& a = bed->create_vm(small_vm("agile-vm", SwapBinding::kPerVmDevice));
  bed->attach_ycsb(a, small_ycsb())->load(0);
  VmHandle& b = bed->create_vm(small_vm("postcopy-vm", SwapBinding::kHostPartition));
  b.machine->memory().prefill(pages_for(192_MiB), 0);  // cold tail on the SSD
  bed->cluster().run_for_seconds(2);

  auto agile = bed->make_migration_to(Technique::kAgile, a, bed->host_at(1));
  agile->start();
  // Stop while the flip is in flight: live round over, dirty set fixed, the
  // VM suspended and nothing pushed yet.
  while (!agile->completed() &&
         std::string(agile->phase_name()) != "flip-wait") {
    bed->cluster().run_for_seconds(0.1);
  }
  ASSERT_STREQ(agile->phase_name(), "flip-wait");
  mem::GuestMemory* src = agile->source_memory();
  ASSERT_GT(src->resident_pages(), 1u);
  // Evict every resident source page but one, dirty pages included.
  src->set_reservation(kPageSize);
  src->enforce_reservation(src->page_count());
  ASSERT_EQ(src->resident_pages(), 1u);
  const std::uint64_t agile_reads_before = src->stats().swap_ins;
  run_to_completion(*bed, *agile);
  EXPECT_GT(src->stats().swap_ins, agile_reads_before);  // dirty pages read back
  EXPECT_EQ(agile->metrics().pages_swapped_in_at_source, 0u);
  expect_fully_migrated(*bed, a, *agile);

  // Post-copy on the same bed counts every push swap-in (an idle VM takes no
  // demand faults, so those are all of its source swap-ins).
  auto post = bed->make_migration_to(Technique::kPostcopy, b, bed->host_at(1));
  const std::uint64_t post_reads_before = b.machine->memory().stats().swap_ins;
  post->start();
  run_to_completion(*bed, *post);
  EXPECT_EQ(post->metrics().pages_demand_served, 0u);
  EXPECT_GT(post->metrics().pages_swapped_in_at_source, 0u);
  EXPECT_EQ(post->metrics().pages_swapped_in_at_source,
            post->source_memory()->stats().swap_ins - post_reads_before);
}

TEST(Migration, AgileSlotOwnershipHandsOverCleanly) {
  SmallBed bed;
  VmHandle& h = bed->create_vm(small_vm("vm1", SwapBinding::kPerVmDevice));
  auto* ycsb = bed->attach_ycsb(h, small_ycsb());
  ycsb->load(0);
  (void)ycsb;
  bed->cluster().run_for_seconds(5);
  auto mig = bed->make_migration_to(Technique::kAgile, h, bed->host_at(1));
  mig->start();
  run_to_completion(*bed, *mig);
  // Every slot still allocated on the per-VM device must be referenced by
  // the (now authoritative) destination memory — no leaks, no losses.
  std::uint64_t referenced = 0;
  mem::GuestMemory& memory = h.machine->memory();
  for (PageIndex p = 0; p < memory.page_count(); ++p) {
    if (memory.swap_slot(p) != swap::kNoSlot) ++referenced;
  }
  EXPECT_EQ(h.per_vm_swap->used_slots(), referenced);
}

TEST(Migration, AgileDestReadsColdPagesFromVmdAfterMigration) {
  SmallBed bed;
  VmHandle& h = bed->create_vm(small_vm("vm1", SwapBinding::kPerVmDevice));
  auto* ycsb = bed->attach_ycsb(h, small_ycsb());
  ycsb->load(0);
  bed->cluster().run_for_seconds(5);
  auto mig = bed->make_migration_to(Technique::kAgile, h, bed->host_at(1));
  mig->start();
  run_to_completion(*bed, *mig);
  // Widen the active set: the workload now touches cold pages, which must be
  // served by the VMD (device reads), not the source.
  std::uint64_t vmd_reads_before = h.per_vm_swap->stats().reads;
  ycsb->set_active_bytes(200_MiB);
  bed->cluster().run_for_seconds(10);
  EXPECT_GT(h.per_vm_swap->stats().reads, vmd_reads_before);
  EXPECT_GT(ycsb->ops_total(), 0u);
}

TEST(Migration, TechniquesAreDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    SmallBed bed(seed);
    VmHandle& h = bed->create_vm(small_vm("vm1", SwapBinding::kPerVmDevice));
    bed->attach_ycsb(h, small_ycsb())->load(0);
    bed->cluster().run_for_seconds(5);
    auto mig = bed->make_migration_to(Technique::kAgile, h, bed->host_at(1));
    mig->start();
    double deadline = bed->cluster().now_seconds() + 600;
    while (!mig->completed() && bed->cluster().now_seconds() < deadline) {
      bed->cluster().run_for_seconds(1.0);
    }
    return std::tuple(mig->metrics().total_time(),
                      mig->metrics().bytes_transferred,
                      mig->metrics().pages_sent_full);
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));  // and the seed actually matters
}

TEST(Migration, AgileFasterAndLeanerThanBaselinesUnderPressure) {
  // The headline claim at miniature scale: with half the VM cold, Agile
  // finishes faster and moves fewer bytes than pre-copy and post-copy.
  auto measure = [](Technique technique) {
    SmallBed bed;
    SwapBinding binding = technique == Technique::kAgile
                              ? SwapBinding::kPerVmDevice
                              : SwapBinding::kHostPartition;
    VmHandle& h = bed->create_vm(small_vm("vm1", binding));
    bed->attach_ycsb(h, small_ycsb())->load(0);
    bed->cluster().run_for_seconds(5);
    auto mig = bed->make_migration_to(technique, h, bed->host_at(1));
    mig->start();
    double deadline = bed->cluster().now_seconds() + 600;
    while (!mig->completed() && bed->cluster().now_seconds() < deadline) {
      bed->cluster().run_for_seconds(1.0);
    }
    EXPECT_TRUE(mig->completed());
    return std::pair(mig->metrics().total_time(),
                     mig->metrics().bytes_transferred);
  };
  auto [pre_t, pre_b] = measure(Technique::kPrecopy);
  auto [post_t, post_b] = measure(Technique::kPostcopy);
  auto [agile_t, agile_b] = measure(Technique::kAgile);
  EXPECT_LT(agile_t, pre_t);
  EXPECT_LT(agile_t, post_t);
  EXPECT_LT(agile_b, pre_b);
  EXPECT_LT(agile_b, post_b);
}

}  // namespace
}  // namespace agile::core
