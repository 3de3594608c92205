// Ablations of the design choices DESIGN.md calls out. Not a paper artifact;
// each section isolates one mechanism and shows why it is (or is not) load
// bearing.
//
//  A. Intermediate host count — the paper claims VMD performance "does not
//     depend on the number of intermediate nodes as long as they have enough
//     memory"; we sweep 1/2/4 servers.
//  B. Agile's SWAPPED descriptors — what if Agile had to send cold pages in
//     full (i.e. the per-VM device existed but the protocol didn't exploit
//     it)? Approximated by the post-copy baseline on the same pressured VM.
//  C. Send window — stream backlog cap vs migration time (too small starves
//     the link between scheduling quanta).
//  D. VMD disk tier — cold-page reads when the cluster's free memory runs
//     out and pages spill to intermediate-host disks.
//  E. Source eviction speed — how fast each technique actually frees the
//     source (scatter-gather, the authors' companion technique, is built
//     for exactly this).
//
// Every section is a sweep of independent runs, so each fans across the
// shared ParallelSweep pool; rows print in fixed order afterwards.
#include "bench_common.hpp"
#include "core/scenarios.hpp"
#include "parallel_sweep.hpp"

using namespace agile;
using core::Technique;
namespace scen = core::scenarios;

namespace {

migration::MigrationMetrics run_pressured_agile(
    std::uint32_t vmd_servers, Bytes server_capacity, Bytes server_disk,
    migration::MigrationConfig mig_cfg = {}) {
  const bool quick = bench::quick_mode();
  core::TestbedConfig cfg;
  for (host::HostConfig& host_cfg : cfg.hosts) {
    host_cfg.ram = quick ? 1_GiB : 2_GiB;
    host_cfg.host_os_bytes = 64_MiB;
  }
  cfg.vmd_servers = vmd_servers;
  cfg.vmd_server_capacity = server_capacity;
  cfg.vmd_server_disk = server_disk;
  core::Testbed bed(cfg);

  core::VmSpec spec;
  spec.name = "vm0";
  spec.memory = quick ? 2_GiB : 4_GiB;
  spec.reservation = quick ? 768_MiB : 1536_MiB;
  spec.swap = core::SwapBinding::kPerVmDevice;
  core::VmHandle& h = bed.create_vm(spec);

  workload::YcsbConfig ycfg;
  ycfg.dataset_bytes = quick ? 1536_MiB : 3_GiB;
  ycfg.guest_os_bytes = 64_MiB;
  ycfg.active_bytes = quick ? 512_MiB : 1_GiB;
  ycfg.read_fraction = 0.8;
  auto load = std::make_unique<workload::YcsbWorkload>(
      h.machine, &bed.cluster().network(), bed.client_node(), ycfg,
      bed.make_rng("y"));
  auto* ycsb = load.get();
  bed.attach_workload(h, std::move(load));
  ycsb->load(0);
  bed.host_at(0)->ssd()->advance(sec(3600));
  bed.cluster().run_for_seconds(10);

  auto mig =
      bed.make_migration_to(Technique::kAgile, h, bed.host_at(1), 0, mig_cfg);
  mig->start();
  double deadline = bed.cluster().now_seconds() + (quick ? 1200 : 3600);
  while (!mig->completed() && bed.cluster().now_seconds() < deadline) {
    bed.cluster().run_for_seconds(1);
  }
  // Post-migration: widen the active set so cold pages get demand-read from
  // wherever they live (memory tier or disk tier).
  std::uint64_t before = ycsb->ops_total();
  ycsb->set_active_bytes(quick ? 1_GiB : 3_GiB);
  bed.cluster().run_for_seconds(30);
  bench::record_run(bed.cluster().simulation().events_executed());
  if (!mig->completed()) bench::record_incomplete_run();
  migration::MigrationMetrics m = mig->metrics();
  // Smuggle the post-widen throughput out via a copy (cold-read throughput).
  m.pages_swap_faulted = (ycsb->ops_total() - before) / 30;
  return m;
}

migration::MigrationMetrics run_single_vm_pressured(Technique technique) {
  const bool quick = bench::quick_mode();
  scen::SingleVmOptions opt;
  opt.technique = technique;
  opt.host_ram = quick ? 1_GiB : 2_GiB;
  opt.vm_memory = quick ? 2_GiB : 4_GiB;
  opt.busy = true;
  if (quick) {
    opt.guest_os = 32_MiB;
    opt.free_margin = 64_MiB;
  }
  scen::SingleVm sc = scen::make_single_vm(opt);
  sc.prepare();
  sc.run_migration();
  bench::record_run(sc.bed->cluster().simulation().events_executed());
  if (!sc.migration->completed()) bench::record_incomplete_run();
  return sc.migration->metrics();
}

}  // namespace

int main() {
  bench::banner("Ablations: VMD server count, descriptors, send window, disk tier");
  const bool quick = bench::quick_mode();
  const Bytes pool_total = quick ? 4_GiB : 16_GiB;
  bench::ParallelSweep sweep;

  // --- A: intermediate host count -----------------------------------------
  {
    std::vector<std::uint32_t> counts = {1, 2, 4};
    auto runs = sweep.map(counts, [&](std::uint32_t n) {
      return run_pressured_agile(n, pool_total / n, 0);
    });
    metrics::Table t({"VMD servers", "migration time (s)", "wire (MiB)",
                      "post-migration cold-read ops/s"});
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const auto& m = runs[i];
      t.add_row({std::to_string(counts[i]), bench::migration_time_cell(m),
                 metrics::Table::num(to_mib(m.bytes_transferred), 0),
                 std::to_string(m.pages_swap_faulted)});
    }
    std::printf("\nA. Server-count independence (paper §V claim):\n%s",
                t.to_string().c_str());
  }

  // --- B: descriptors vs shipping cold pages ------------------------------
  {
    std::vector<Technique> techniques = {Technique::kAgile, Technique::kPostcopy,
                                         Technique::kPrecopy};
    auto runs = sweep.map(techniques, run_single_vm_pressured);
    metrics::Table t({"protocol", "migration time (s)", "wire (MiB)"});
    for (std::size_t i = 0; i < techniques.size(); ++i) {
      const auto& m = runs[i];
      t.add_row({techniques[i] == Technique::kAgile
                     ? "agile (descriptors)"
                     : (techniques[i] == Technique::kPostcopy
                            ? "cold pages shipped once (post-copy)"
                            : "cold pages shipped + retransmits (pre-copy)"),
                 bench::migration_time_cell(m),
                 metrics::Table::num(to_mib(m.bytes_transferred), 0)});
    }
    std::printf("\nB. What the SWAPPED descriptor buys:\n%s", t.to_string().c_str());
  }

  // --- C: send window -------------------------------------------------------
  {
    std::vector<Bytes> windows = {1_MiB, 4_MiB, 16_MiB, 32_MiB, 64_MiB};
    auto runs = sweep.map(windows, [&](Bytes window) {
      migration::MigrationConfig mc;
      mc.send_window = window;
      return run_pressured_agile(1, pool_total, 0, mc);
    });
    metrics::Table t({"send window (MiB)", "migration time (s)"});
    for (std::size_t i = 0; i < windows.size(); ++i) {
      t.add_row({metrics::Table::num(to_mib(windows[i]), 0),
                 bench::migration_time_cell(runs[i])});
    }
    std::printf("\nC. Stream send window (must cover a scheduling quantum of "
                "line rate):\n%s",
                t.to_string().c_str());
  }

  // --- E: source eviction speed --------------------------------------------
  {
    std::vector<Technique> techniques = {Technique::kPrecopy, Technique::kPostcopy,
                                         Technique::kAgile,
                                         Technique::kScatterGather};
    auto runs = sweep.map(techniques, run_single_vm_pressured);
    metrics::Table t({"technique", "source freed after (s)", "direct-channel (MiB)"});
    for (std::size_t i = 0; i < techniques.size(); ++i) {
      const auto& m = runs[i];
      t.add_row({core::technique_name(techniques[i]),
                 bench::migration_time_cell(m),
                 metrics::Table::num(to_mib(m.bytes_transferred), 0)});
    }
    std::printf("\nE. Time until the source host is deprovisioned:\n%s",
                t.to_string().c_str());
  }

  // --- D: VMD disk tier ------------------------------------------------------
  {
    struct TierPoint {
      const char* label;
      Bytes memory;
      Bytes disk;
    };
    std::vector<TierPoint> tiers = {
        {quick ? "4 GiB memory" : "16 GiB memory", pool_total, 0},
        {quick ? "256 MiB memory + 4 GiB disk" : "1 GiB memory + 16 GiB disk",
         quick ? 256_MiB : 1_GiB, pool_total}};
    auto runs = sweep.map(tiers, [&](const TierPoint& tier) {
      return run_pressured_agile(1, tier.memory, tier.disk);
    });
    metrics::Table t({"VMD config", "migration time (s)",
                      "post-migration cold-read ops/s"});
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      const auto& m = runs[i];
      t.add_row({tiers[i].label, bench::migration_time_cell(m),
                 std::to_string(m.pages_swap_faulted)});
    }
    std::printf("\nD. Disk-tier spill (paper §IV-A extension): migration is "
                "unaffected; cold reads slow down:\n%s",
                t.to_string().c_str());
  }
  bench::footer("ablation_design");
  return 0;
}
