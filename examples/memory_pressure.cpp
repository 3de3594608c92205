// Autonomous memory-pressure response (paper §III-B) via the library's
// MigrationOrchestrator: per-VM working-set tracking, a watermark trigger on
// every host's aggregate, and automatic Agile migration of the fewest VMs
// needed to get back under the low watermark, placed best-fit across the
// fleet's destinations.
//
//   $ ./memory_pressure
//
// Three VMs idle along with small working sets; at t=120 s one of them turns
// hot, the aggregate crosses the high watermark, and the orchestrator evicts
// it to the destination with the tightest sufficient headroom.
#include <cstdio>
#include <vector>

#include "core/migration_orchestrator.hpp"
#include "util/log.hpp"
#include "workload/ycsb.hpp"

using namespace agile;

int main() {
  log::set_level(LogLevel::kInfo);

  core::TestbedConfig cfg;
  for (host::HostConfig& host_cfg : cfg.hosts) host_cfg.ram = 5_GiB;
  cfg.vmd_server_capacity = 32_GiB;
  core::Testbed bed(cfg);

  std::vector<core::VmHandle*> handles;
  std::vector<workload::YcsbWorkload*> clients;
  for (int i = 0; i < 3; ++i) {
    core::VmSpec spec;
    spec.name = "vm" + std::to_string(i);
    spec.memory = 4_GiB;
    spec.reservation = 2_GiB;
    spec.swap = core::SwapBinding::kPerVmDevice;
    core::VmHandle& h = bed.create_vm(spec);
    handles.push_back(&h);

    workload::YcsbConfig ycfg;
    ycfg.dataset_bytes = 3_GiB;
    ycfg.active_bytes = 512_MiB;  // small working sets: consolidation-friendly
    clients.push_back(bed.attach_ycsb(h, ycfg));
    clients.back()->load(0);
  }
  bed.host_at(0)->ssd()->advance(sec(3600));

  core::MigrationOrchestratorConfig ocfg;
  ocfg.warmup = sec(100);  // let the initial estimates converge
  ocfg.wss.alpha = 0.85;  // brisk factors so the demo runs in minutes
  ocfg.wss.beta = 1.10;
  core::MigrationOrchestrator orchestrator(&bed, ocfg);
  for (core::VmHandle* h : handles) orchestrator.track(h);
  orchestrator.set_on_migration([&](core::VmHandle* victim,
                                    host::Host* dest) {
    std::printf(">>> t=%.0fs: watermark crossed (aggregate %.1f GiB) — "
                "migrating %s to %s\n",
                bed.cluster().now_seconds(),
                to_gib(orchestrator.last_decision().aggregate_wss),
                victim->machine->name().c_str(), dest->name().c_str());
  });
  orchestrator.start();

  bed.cluster().simulation().schedule_at(sec(120), [&] {
    std::printf(">>> t=120s: vm1's client widens its active set to 3 GiB\n");
    clients[1]->set_active_bytes(3_GiB);
  });

  bed.cluster().run_for_seconds(400);
  orchestrator.stop();

  std::printf("\nFinal placement:\n");
  for (core::VmHandle* h : handles) {
    host::Host* where = bed.host_of(h->machine);
    std::printf("  %-4s on %-6s  WSS estimate %.2f GiB  resident %.2f GiB\n",
                h->machine->name().c_str(),
                where != nullptr ? where->name().c_str() : "?",
                to_gib(orchestrator.wss_estimate(h)),
                to_gib(h->machine->memory().resident_bytes()));
  }
  for (const auto& m : orchestrator.migrations()) {
    std::printf("\n%s migration of %s: %.1f s, %.0f MiB on the wire.\n",
                m->technique(), m->machine()->name().c_str(),
                to_seconds(m->metrics().total_time()),
                to_mib(m->metrics().bytes_transferred));
  }
  return 0;
}
