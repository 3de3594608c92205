#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "host/cluster.hpp"
#include "workload/ycsb.hpp"

namespace agile::host {
namespace {

TEST(Host, ConstructionWiresNicSsdAndSwap) {
  net::Network net;
  HostConfig cfg;
  cfg.name = "h0";
  cfg.swap_partition_bytes = 1_GiB;
  Host h(&net, cfg);
  EXPECT_EQ(net.node_name(h.node()), "h0");
  EXPECT_NE(h.ssd(), nullptr);
  EXPECT_EQ(h.swap_partition()->capacity_slots(), pages_for(1_GiB));
  EXPECT_EQ(h.vm_count(), 0u);
  EXPECT_EQ(h.memory_in_use(), cfg.host_os_bytes);
}

TEST(Cluster, QuantumAdvancesTickIndex) {
  Cluster cluster;
  EXPECT_EQ(cluster.tick_index(), 0u);
  cluster.run_for_seconds(1.0);
  EXPECT_EQ(cluster.tick_index(), 10u);  // 100 ms quantum
}

TEST(Cluster, HooksRunInPhaseOrder) {
  Cluster cluster;
  std::vector<int> order;
  cluster.add_observer_hook([&](SimTime, SimTime, std::uint32_t) {
    order.push_back(2);
  });
  cluster.add_control_hook([&](SimTime, SimTime, std::uint32_t) {
    order.push_back(1);
  });
  cluster.run_until(msec(100));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(Cluster, RemoveHookStopsInvocations) {
  Cluster cluster;
  int count = 0;
  std::uint64_t id =
      cluster.add_control_hook([&](SimTime, SimTime, std::uint32_t) { ++count; });
  cluster.run_for_seconds(0.5);
  EXPECT_EQ(count, 5);
  cluster.remove_hook(id);
  cluster.run_for_seconds(0.5);
  EXPECT_EQ(count, 5);
}

TEST(Cluster, HookMayRemoveItselfWhileRunning) {
  Cluster cluster;
  int count = 0;
  std::uint64_t id = 0;
  id = cluster.add_control_hook([&](SimTime, SimTime, std::uint32_t) {
    ++count;
    cluster.remove_hook(id);
  });
  cluster.run_for_seconds(1.0);
  EXPECT_EQ(count, 1);
}

TEST(Cluster, DeterministicRngStreams) {
  Cluster a, b;
  Rng ra = a.make_rng("x");
  Rng rb = b.make_rng("x");
  EXPECT_EQ(ra.next_u64(), rb.next_u64());
}

TEST(Testbed, BuildsThePaperTopology) {
  core::TestbedConfig cfg;
  cfg.vmd_servers = 2;
  core::Testbed bed(cfg);
  EXPECT_EQ(bed.cluster().host_count(), 2u);
  EXPECT_EQ(bed.vmd_server_count(), 2u);
  // Nodes: source, dest, clients, intermediate1, intermediate2.
  EXPECT_EQ(bed.cluster().network().node_count(), 5u);
}

TEST(Testbed, CreateVmAttachesToSource) {
  core::Testbed bed;
  core::VmSpec spec;
  spec.name = "vm1";
  spec.memory = 128_MiB;
  spec.reservation = 64_MiB;
  core::VmHandle& h = bed.create_vm(spec);
  EXPECT_TRUE(bed.host_at(0)->has_vm(h.machine));
  EXPECT_FALSE(bed.host_at(1)->has_vm(h.machine));
  EXPECT_EQ(h.machine->memory().reservation(), 64_MiB);
  EXPECT_EQ(h.per_vm_swap, nullptr);
  EXPECT_EQ(h.machine->memory().swap_device(),
            bed.host_at(0)->swap_partition());
}

TEST(Testbed, PerVmSwapBindingCreatesNamespace) {
  core::Testbed bed;
  core::VmSpec spec;
  spec.name = "vm1";
  spec.memory = 128_MiB;
  spec.swap = core::SwapBinding::kPerVmDevice;
  core::VmHandle& h = bed.create_vm(spec);
  ASSERT_NE(h.per_vm_swap, nullptr);
  EXPECT_EQ(h.machine->memory().swap_device(), h.per_vm_swap);
  EXPECT_EQ(h.per_vm_swap->stored_pages(), 0u);  // allocate-on-write
}

TEST(Testbed, WorkloadRunsOnlyWhileVmRuns) {
  core::Testbed bed;
  core::VmSpec spec;
  spec.name = "vm1";
  spec.memory = 128_MiB;
  core::VmHandle& h = bed.create_vm(spec);
  workload::YcsbConfig ycfg;
  ycfg.dataset_bytes = 64_MiB;
  ycfg.guest_os_bytes = 8_MiB;
  ycfg.active_bytes = 32_MiB;
  auto load = std::make_unique<workload::YcsbWorkload>(
      h.machine, &bed.cluster().network(), bed.client_node(), ycfg,
      bed.make_rng("y"));
  auto* ycsb = load.get();
  bed.attach_workload(h, std::move(load));
  ycsb->load(0);
  bed.cluster().run_for_seconds(1.0);
  std::uint64_t running_ops = ycsb->ops_total();
  EXPECT_GT(running_ops, 0u);
  h.machine->suspend();
  bed.cluster().run_for_seconds(1.0);
  EXPECT_EQ(ycsb->ops_total(), running_ops);
  h.machine->resume();
  bed.cluster().run_for_seconds(1.0);
  EXPECT_GT(ycsb->ops_total(), running_ops);
}

TEST(Testbed, ThroughputProbeSamplesOncePerSecond) {
  core::Testbed bed;
  core::VmSpec spec;
  spec.name = "vm1";
  spec.memory = 128_MiB;
  core::VmHandle& h = bed.create_vm(spec);
  workload::YcsbConfig ycfg;
  ycfg.dataset_bytes = 64_MiB;
  ycfg.guest_os_bytes = 8_MiB;
  ycfg.active_bytes = 32_MiB;
  auto load = std::make_unique<workload::YcsbWorkload>(
      h.machine, &bed.cluster().network(), bed.client_node(), ycfg,
      bed.make_rng("y"));
  auto* ycsb = load.get();
  bed.attach_workload(h, std::move(load));
  ycsb->load(0);
  core::ThroughputProbe probe(&bed.cluster(), ycsb, "vm1");
  bed.cluster().run_for_seconds(10.0);
  EXPECT_EQ(probe.series().size(), 10u);
  EXPECT_GT(probe.series().mean_between(1, 10), 1000.0);
}

TEST(Host, MemoryInUseTracksResidentSets) {
  core::Testbed bed;
  core::VmSpec spec;
  spec.name = "vm1";
  spec.memory = 128_MiB;
  spec.reservation = 64_MiB;
  core::VmHandle& h = bed.create_vm(spec);
  Bytes before = bed.host_at(0)->memory_in_use();
  h.machine->memory().prefill(h.machine->page_count(), 0);
  EXPECT_EQ(bed.host_at(0)->memory_in_use(), before + 64_MiB);
}

TEST(Host, MaintenanceEnforcesShrunkenReservations) {
  core::Testbed bed;
  core::VmSpec spec;
  spec.name = "vm1";
  spec.memory = 128_MiB;
  core::VmHandle& h = bed.create_vm(spec);
  h.machine->memory().prefill(h.machine->page_count(), 0);
  h.machine->memory().set_reservation(32_MiB);
  EXPECT_TRUE(h.machine->memory().over_reservation());
  bed.cluster().run_for_seconds(2.0);  // kswapd catches up
  EXPECT_FALSE(h.machine->memory().over_reservation());
  EXPECT_EQ(h.machine->memory().resident_pages(), pages_for(32_MiB));
}

}  // namespace
}  // namespace agile::host
