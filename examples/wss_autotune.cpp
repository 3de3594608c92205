// Working-set autotuning demo (paper §IV-D / §V-D): the hypervisor-side
// controller discovers a VM's working set from per-VM swap iostat alone —
// no guest agent — and keeps the cgroup reservation tracking it as the
// workload's active set shrinks and grows.
//
//   $ ./wss_autotune
#include <cstdio>

#include "core/testbed.hpp"
#include "workload/ycsb.hpp"
#include "wss/reservation_controller.hpp"

using namespace agile;

int main() {
  core::TestbedConfig cfg;
  cfg.hosts[0].ram = 16_GiB;
  core::Testbed bed(cfg);

  core::VmSpec spec;
  spec.name = "vm0";
  spec.memory = 4_GiB;
  spec.reservation = 4_GiB;  // start fully provisioned
  spec.swap = core::SwapBinding::kPerVmDevice;
  core::VmHandle& vm = bed.create_vm(spec);

  workload::YcsbConfig ycfg;
  ycfg.dataset_bytes = 3_GiB;
  ycfg.active_bytes = 1_GiB;
  auto load = std::make_unique<workload::YcsbWorkload>(
      vm.machine, &bed.cluster().network(), bed.client_node(), ycfg,
      bed.make_rng("ycsb"));
  auto* ycsb = load.get();
  bed.attach_workload(vm, std::move(load));
  ycsb->load(0);
  bed.host_at(0)->ssd()->advance(sec(3600));

  wss::WssConfig wcfg;  // paper defaults, with a brisker α for a short demo
  wcfg.alpha = 0.85;
  wss::ReservationController controller(&bed.cluster(), vm.machine, wcfg);
  controller.start();

  // Phase script: 1 GiB active → shrink to 256 MiB → grow to 2.5 GiB.
  bed.cluster().simulation().schedule_at(sec(240), [&] {
    std::printf(">>> t=240s: active set shrinks to 256 MiB\n");
    ycsb->set_active_bytes(256_MiB);
  });
  bed.cluster().simulation().schedule_at(sec(480), [&] {
    std::printf(">>> t=480s: active set grows to 2.5 GiB\n");
    ycsb->set_active_bytes(2560_MiB);
  });

  core::ThroughputProbe probe(&bed.cluster(), ycsb, "ycsb");
  std::printf("  time   reservation   resident    swap-rate   throughput\n");
  for (int t = 0; t < 720; t += 30) {
    bed.cluster().run_for_seconds(30);
    std::printf("  %3ds   %7.0f MiB  %7.0f MiB  %9.0f B/s  %8.0f ops/s%s\n",
                t + 30, to_mib(controller.wss_estimate()),
                to_mib(vm.machine->memory().resident_bytes()),
                controller.swap_rate_series().value_at(t + 30),
                probe.series().value_at(t + 30),
                controller.stable() ? "  [stable]" : "");
  }
  std::printf("\nThe reservation follows the active set in both directions; "
              "the cadence relaxes to 30 s whenever the estimate stabilizes.\n");
  return 0;
}
