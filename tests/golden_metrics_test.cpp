// Behavior-preservation guard for the migration data path.
//
// Runs one deterministic scaled-down migration per technique (idle and busy
// variants) and compares every MigrationMetrics field — bytes on the wire,
// full/descriptor page counts, downtime, total time, fault counts — plus the
// final source/destination memory-state tallies against a checked-in golden
// file. A second block pins the canned scenario builders (consolidation,
// single VM, WSS tracking) at small sizes: their migration metrics, client
// op counts, throughput over the migration window and controller state. Optimizations to the wire path (run-length batching, allocation-free
// callbacks, word-scan iteration) must keep this dump byte-identical: the
// metrics are simulation-observable behavior, not implementation detail.
//
// Regenerate (only when an intentional behavior change is made) with:
//   AGILE_GOLDEN_WRITE=1 ./golden_metrics_test
// which rewrites tests/golden/migration_metrics.txt (path baked in at
// configure time via AGILE_GOLDEN_FILE).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/scenarios.hpp"
#include "core/testbed.hpp"
#include "workload/ycsb.hpp"

#ifndef AGILE_GOLDEN_FILE
#define AGILE_GOLDEN_FILE "golden/migration_metrics.txt"
#endif

namespace agile::core {
namespace {

struct GoldenCase {
  Technique technique;
  bool busy;
  /// Data-path variant: 20% zero pages, four wire streams and fast
  /// compression, pinning zero-elided runs, zero-page fault answers and
  /// compressed accounting in every technique.
  bool data_path = false;
};

std::string case_name(const GoldenCase& c) {
  return std::string(technique_name(c.technique)) + (c.busy ? "/busy" : "/idle") +
         (c.data_path ? "/zero-fast-4s" : "");
}

void put_metrics(std::ostream& os, const migration::MigrationMetrics& m) {
  os << " completed=" << (m.completed ? 1 : 0)
     << " total_time=" << m.total_time() << " downtime=" << m.downtime
     << " switchover=" << (m.switchover_time - m.start_time)
     << " bytes=" << m.bytes_transferred << " scattered=" << m.bytes_scattered
     << " full=" << m.pages_sent_full << " desc=" << m.pages_sent_descriptor
     << " demand=" << m.pages_demand_served
     << " src_swapins=" << m.pages_swapped_in_at_source
     << " dup=" << m.duplicate_pages << " rounds=" << m.precopy_rounds;
}

void run_to_completion(host::Cluster& cluster,
                       const migration::MigrationManager& migration) {
  double deadline = cluster.now_seconds() + 1200;
  while (!migration.completed() && cluster.now_seconds() < deadline) {
    cluster.run_for_seconds(1.0);
  }
}

// A small two-host bed: 1 GiB hosts, 256 MiB VM with a 128 MiB reservation so
// part of the dataset is swapped out — exercising descriptor runs, swap-ins at
// the source, and dirty-page invalidations in every technique.
std::string run_case(const GoldenCase& c) {
  TestbedConfig cfg;
  cfg.cluster.seed = 42;
  for (host::HostConfig& host_cfg : cfg.hosts) {
    host_cfg.ram = 1_GiB;
    host_cfg.host_os_bytes = 32_MiB;
    host_cfg.swap_partition_bytes = 2_GiB;
  }
  cfg.vmd_server_capacity = 2_GiB;
  Testbed bed(cfg);

  VmSpec spec;
  spec.name = "vm";
  spec.memory = 256_MiB;
  spec.reservation = 128_MiB;
  spec.swap = (c.technique == Technique::kPrecopy ||
               c.technique == Technique::kPostcopy)
                  ? SwapBinding::kHostPartition
                  : SwapBinding::kPerVmDevice;
  migration::MigrationConfig mcfg;
  if (c.data_path) {
    spec.zero_page_fraction = 0.2;
    mcfg.num_streams = 4;
    mcfg.compression = migration::Compression::kFast;
  }
  VmHandle& handle = bed.create_vm(spec);

  if (c.busy) {
    workload::YcsbConfig wcfg;
    wcfg.dataset_bytes = 200_MiB;
    wcfg.guest_os_bytes = 16_MiB;
    wcfg.active_bytes = 64_MiB;
    wcfg.read_fraction = 0.7;
    bed.attach_ycsb(handle, wcfg)->load(0);
  } else {
    // Idle VM still has touched memory (page cache): prefill past the
    // reservation so a cold tail sits on the swap device.
    handle.machine->memory().prefill(pages_for(192_MiB), 0);
  }
  bed.cluster().run_for_seconds(2.0);

  auto migration =
      bed.make_migration_to(c.technique, handle, bed.host_at(1), 0, mcfg);
  migration->start();
  run_to_completion(bed.cluster(), *migration);

  const migration::MigrationMetrics& m = migration->metrics();
  const mem::GuestMemory& mem = handle.machine->memory();
  std::ostringstream os;
  os << case_name(c);
  put_metrics(os, m);
  os << " dest_resident=" << mem.resident_pages()
     << " dest_swapped=" << mem.swapped_pages()
     << " dest_untouched=" << mem.untouched_pages()
     << " dest_remote=" << mem.remote_pages()
     << " dest_minor=" << mem.stats().minor_faults
     << " dest_major=" << mem.stats().major_faults
     << " dest_installs=" << mem.stats().remote_installs;
  if (c.data_path) {
    os << " zero_elided=" << m.pages_zero_elided
       << " compressed_saved=" << m.compressed_bytes_saved;
  }
  mem.check_consistency();
  return os.str();
}

// Consolidation at scenario_test's two-VM sizes: the YCSB ramp widens each
// VM's active set 5 s apart and VM 0 migrates at t = 12 s.
std::string run_consolidation(Technique technique, scenarios::AppKind app) {
  scenarios::ConsolidationOptions opt;
  opt.technique = technique;
  opt.app = app;
  opt.vm_count = 2;
  opt.host_ram = 1_GiB;
  opt.vm_memory = 384_MiB;
  opt.reservation = 192_MiB;
  opt.dataset = 256_MiB;
  opt.guest_os = 16_MiB;
  opt.initial_active = 32_MiB;
  opt.ramped_active = 224_MiB;
  scenarios::Consolidation sc = scenarios::make_consolidation(opt);
  sc.load_all();
  sc.schedule_ramp(sec(5), sec(5));
  sc.schedule_migration(sec(12));
  sc.bed->cluster().run_for_seconds(12);
  run_to_completion(sc.bed->cluster(), *sc.migration);

  const migration::MigrationMetrics& m = sc.migration->metrics();
  std::ostringstream os;
  os << "consolidation/"
     << (app == scenarios::AppKind::kYcsb ? "ycsb/" : "oltp/")
     << technique_name(technique);
  put_metrics(os, m);
  os << " ops=";
  for (std::size_t i = 0; i < sc.loads.size(); ++i) {
    os << (i == 0 ? "" : ",") << sc.loads[i]->ops_total();
  }
  os << " window_tput="
     << sc.average_throughput().mean_between(to_seconds(m.start_time),
                                             to_seconds(m.end_time));
  return os.str();
}

// make_single_vm at scenario_test's sizes; the busy case also records stats
// snapshots, pinned by a hash of their JSON export.
std::string run_single_vm(Technique technique, bool busy) {
  scenarios::SingleVmOptions opt;
  opt.technique = technique;
  opt.host_ram = 512_MiB;
  opt.vm_memory = 768_MiB;
  opt.busy = busy;
  opt.guest_os = 32_MiB;
  opt.free_margin = 64_MiB;
  opt.stats = busy;
  scenarios::SingleVm sc = scenarios::make_single_vm(opt);
  sc.prepare();
  sc.run_migration(1200);

  std::ostringstream os;
  os << "single_vm/" << technique_name(technique)
     << (busy ? "/busy" : "/idle");
  put_metrics(os, sc.migration->metrics());
  if (sc.ycsb != nullptr) os << " ops=" << sc.ycsb->ops_total();
  if (sc.registry != nullptr) {
    std::uint64_t fnv = 1469598103934665603ull;
    for (unsigned char ch : sc.registry->snapshots_json()) {
      fnv = (fnv ^ ch) * 1099511628211ull;
    }
    os << " snapshots=" << sc.registry->snapshot_count() << " stats_fnv=0x"
       << std::hex << fnv << std::dec;
  }
  return os.str();
}

// make_wss_tracking at scenario_test's sizes: two simulated minutes under the
// reservation controller.
std::string run_wss_tracking() {
  scenarios::WssTrackingOptions opt;
  opt.host_ram = 4_GiB;
  opt.vm_memory = 1_GiB;
  opt.initial_reservation = 1_GiB;
  opt.dataset = 256_MiB;
  opt.guest_os = 32_MiB;
  scenarios::WssTracking sc = scenarios::make_wss_tracking(opt);
  sc.load();
  sc.controller->start();
  sc.bed->cluster().run_for_seconds(120);

  const metrics::TimeSeries& rate = sc.controller->swap_rate_series();
  std::ostringstream os;
  os << "wss_tracking reservation=" << sc.controller->wss_estimate()
     << " adjustments=" << sc.controller->adjustments()
     << " stable=" << (sc.controller->stable() ? 1 : 0) << " last_swap_rate="
     << (rate.empty() ? 0.0 : rate[rate.size() - 1].value)
     << " ops=" << sc.ycsb->ops_total();
  return os.str();
}

std::string dump_all() {
  const GoldenCase cases[] = {
      {Technique::kPrecopy, false},       {Technique::kPrecopy, true},
      {Technique::kPostcopy, false},      {Technique::kPostcopy, true},
      {Technique::kAgile, false},         {Technique::kAgile, true},
      {Technique::kScatterGather, false}, {Technique::kScatterGather, true},
      {Technique::kPrecopy, false, true},       {Technique::kPrecopy, true, true},
      {Technique::kPostcopy, false, true},      {Technique::kPostcopy, true, true},
      {Technique::kAgile, false, true},         {Technique::kAgile, true, true},
      {Technique::kScatterGather, false, true}, {Technique::kScatterGather, true, true},
  };
  std::string out;
  for (const GoldenCase& c : cases) out += run_case(c) + "\n";
  for (Technique t :
       {Technique::kPrecopy, Technique::kPostcopy, Technique::kAgile}) {
    out += run_consolidation(t, scenarios::AppKind::kYcsb) + "\n";
  }
  out += run_consolidation(Technique::kAgile, scenarios::AppKind::kOltp) + "\n";
  out += run_single_vm(Technique::kPrecopy, false) + "\n";
  out += run_single_vm(Technique::kAgile, true) + "\n";
  out += run_wss_tracking() + "\n";
  return out;
}

TEST(GoldenMetrics, MigrationMetricsMatchGolden) {
  std::string actual = dump_all();
  const char* path = AGILE_GOLDEN_FILE;
  if (const char* w = std::getenv("AGILE_GOLDEN_WRITE"); w != nullptr && w[0] == '1') {
    std::ofstream f(path, std::ios::trunc);
    ASSERT_TRUE(f.good()) << "cannot write golden file " << path;
    f << actual;
    GTEST_SKIP() << "golden file rewritten: " << path;
  }
  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "missing golden file " << path
                        << " (regenerate with AGILE_GOLDEN_WRITE=1)";
  std::stringstream buf;
  buf << f.rdbuf();
  if (buf.str().size() < actual.size()) {
    // A truncated checkout / interrupted rewrite shows up as a confusing
    // whole-dump diff; name the real problem and the file first.
    std::fprintf(stderr,
                 "warning: golden file '%s' is short (%zu bytes, expected %zu)"
                 " — truncated or stale?\n",
                 path, buf.str().size(), actual.size());
  }
  EXPECT_EQ(buf.str(), actual)
      << "migration metrics diverged from the golden dump — the data path is "
         "supposed to be behavior-preserving; regenerate only for an "
         "intentional behavior change";
}

}  // namespace
}  // namespace agile::core
