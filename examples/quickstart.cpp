// Quickstart: build the paper's three-host testbed, put one VM under memory
// pressure with a per-VM swap device, and Agile-migrate it.
//
//   $ ./quickstart
//
// Walks through the whole public API surface: Testbed, VmSpec/SwapBinding,
// workload attachment, MigrationManager, and MigrationMetrics.
#include <cstdio>

#include "core/testbed.hpp"
#include "util/log.hpp"
#include "workload/ycsb.hpp"

using namespace agile;

int main() {
  log::set_level(LogLevel::kInfo);

  // 1. A testbed: the default host list is the paper's pair — host 0 the
  //    source, host 1 the destination (8 GB RAM each) — plus an external
  //    client machine and one intermediate host lending 16 GB to the VMD.
  core::TestbedConfig cfg;
  for (host::HostConfig& host_cfg : cfg.hosts) host_cfg.ram = 8_GiB;
  cfg.vmd_server_capacity = 16_GiB;
  core::Testbed bed(cfg);

  // 2. A 4 GB VM whose cgroup reservation is capped at 2 GB; cold pages go
  //    to its private, portable VMD namespace.
  core::VmSpec spec;
  spec.name = "redis-vm";
  spec.memory = 4_GiB;
  spec.reservation = 2_GiB;
  spec.swap = core::SwapBinding::kPerVmDevice;
  core::VmHandle& vm = bed.create_vm(spec);

  // 3. A YCSB-style client on the external host querying a 3 GB dataset in
  //    the VM — 1 GB of it is hot. (Testbed::attach_ycsb does this in one
  //    call, drawing from the random stream "<vm name>/ycsb".)
  workload::YcsbConfig ycfg;
  ycfg.dataset_bytes = 3_GiB;
  ycfg.active_bytes = 1_GiB;
  auto load = std::make_unique<workload::YcsbWorkload>(
      vm.machine, &bed.cluster().network(), bed.client_node(), ycfg,
      bed.make_rng("ycsb"));
  auto* ycsb = load.get();
  bed.attach_workload(vm, std::move(load));
  ycsb->load(0);
  bed.host_at(0)->ssd()->advance(sec(3600));  // absorb the bulk-load I/O

  // 4. Let it run for a bit, then Agile-migrate to host 1.
  core::ThroughputProbe probe(&bed.cluster(), ycsb, "ycsb");
  bed.cluster().run_for_seconds(30);
  std::printf("\nThroughput before migration: %.0f ops/s\n",
              probe.series().mean_between(10, 30));

  auto migration =
      bed.make_migration_to(core::Technique::kAgile, vm, bed.host_at(1));
  migration->start();
  while (!migration->completed()) bed.cluster().run_for_seconds(1);
  bed.cluster().run_for_seconds(30);

  // 5. Inspect the result.
  const migration::MigrationMetrics& m = migration->metrics();
  std::printf("\nAgile migration of %s:\n", vm.machine->name().c_str());
  std::printf("  total time        %.1f s\n", to_seconds(m.total_time()));
  std::printf("  downtime          %.0f ms\n",
              static_cast<double>(m.downtime) / 1000.0);
  std::printf("  data on the wire  %.0f MiB (VM is %.0f MiB!)\n",
              to_mib(m.bytes_transferred), to_mib(spec.memory));
  std::printf("  cold descriptors  %llu pages stayed in the VMD\n",
              static_cast<unsigned long long>(m.pages_sent_descriptor));
  std::printf("  throughput after  %.0f ops/s\n",
              probe.series().mean_between(
                  bed.cluster().now_seconds() - 20, bed.cluster().now_seconds()));
  std::printf("  VM now runs on    %s\n",
              bed.host_at(1)->has_vm(vm.machine) ? "dest" : "source");
  return 0;
}
