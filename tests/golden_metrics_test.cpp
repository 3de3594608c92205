// Behavior-preservation guard for the migration data path.
//
// Runs one deterministic scaled-down migration per technique (idle and busy
// variants) and compares every MigrationMetrics field — bytes on the wire,
// full/descriptor page counts, downtime, total time, fault counts — plus the
// final source/destination memory-state tallies against a checked-in golden
// file. Optimizations to the wire path (run-length batching, allocation-free
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

// A small two-host bed: 1 GiB hosts, 256 MiB VM with a 128 MiB reservation so
// part of the dataset is swapped out — exercising descriptor runs, swap-ins at
// the source, and dirty-page invalidations in every technique.
std::string run_case(const GoldenCase& c) {
  TestbedConfig cfg;
  cfg.cluster.seed = 42;
  cfg.source.ram = 1_GiB;
  cfg.source.host_os_bytes = 32_MiB;
  cfg.source.swap_partition_bytes = 2_GiB;
  cfg.dest = cfg.source;
  cfg.dest.name = "dest";
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
    auto load = std::make_unique<workload::YcsbWorkload>(
        handle.machine, &bed.cluster().network(), bed.client_node(), wcfg,
        bed.make_rng("vm/ycsb"));
    load->load(0);
    bed.attach_workload(handle, std::move(load));
  } else {
    // Idle VM still has touched memory (page cache): prefill past the
    // reservation so a cold tail sits on the swap device.
    handle.machine->memory().prefill(pages_for(192_MiB), 0);
  }
  bed.cluster().run_for_seconds(2.0);

  auto migration = bed.make_migration(c.technique, handle, 0, mcfg);
  migration->start();
  double deadline = bed.cluster().now_seconds() + 1200;
  while (!migration->completed() && bed.cluster().now_seconds() < deadline) {
    bed.cluster().run_for_seconds(1.0);
  }

  const migration::MigrationMetrics& m = migration->metrics();
  const mem::GuestMemory& mem = handle.machine->memory();
  std::ostringstream os;
  os << case_name(c) << " completed=" << (m.completed ? 1 : 0)
     << " total_time=" << m.total_time() << " downtime=" << m.downtime
     << " switchover=" << (m.switchover_time - m.start_time)
     << " bytes=" << m.bytes_transferred << " scattered=" << m.bytes_scattered
     << " full=" << m.pages_sent_full << " desc=" << m.pages_sent_descriptor
     << " demand=" << m.pages_demand_served
     << " src_swapins=" << m.pages_swapped_in_at_source
     << " dup=" << m.duplicate_pages << " rounds=" << m.precopy_rounds
     << " dest_resident=" << mem.resident_pages()
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
