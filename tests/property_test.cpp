// Property-based and parameterized invariants.
//
// The parameterized migration suite sweeps technique × workload × seed and
// checks the invariants that must hold for ANY migration: no page lost or
// left kRemote, exact source release, bookkeeping consistency on both
// memories, deterministic outcomes, conservation of swap slots.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "core/testbed.hpp"
#include "util/bitmap.hpp"
#include "workload/oltp.hpp"
#include "workload/ycsb.hpp"

namespace agile {
namespace {

// --- Bitmap vs reference model -------------------------------------------

class BitmapFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitmapFuzz, MatchesReferenceModel) {
  Rng rng(GetParam(), "bitmap-fuzz");
  const std::size_t n = 257 + rng.next_below(2048);
  Bitmap bm(n);
  std::vector<bool> ref(n, false);
  for (int op = 0; op < 4000; ++op) {
    std::size_t i = rng.next_below(n);
    switch (rng.next_below(3)) {
      case 0:
        bm.set(i);
        ref[i] = true;
        break;
      case 1:
        bm.clear(i);
        ref[i] = false;
        break;
      case 2: {
        ASSERT_EQ(bm.test(i), ref[i]);
        // Cross-check one scan from a random origin.
        std::size_t got = bm.find_next_set(i);
        std::size_t expected = Bitmap::npos;
        for (std::size_t j = i; j < n; ++j) {
          if (ref[j]) {
            expected = j;
            break;
          }
        }
        ASSERT_EQ(got, expected);
        break;
      }
    }
  }
  ASSERT_EQ(bm.count(),
            static_cast<std::size_t>(std::count(ref.begin(), ref.end(), true)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitmapFuzz, ::testing::Range<std::uint64_t>(1, 9));

// --- GuestMemory fuzz ------------------------------------------------------

class GuestMemoryFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GuestMemoryFuzz, RandomOpsPreserveConsistency) {
  Rng rng(GetParam(), "mem-fuzz");
  auto ssd = std::make_shared<storage::SsdModel>();
  swap::LocalSwapDevice dev("swap", ssd, 1_GiB);
  mem::GuestMemoryConfig cfg;
  cfg.size = (16 + rng.next_below(48)) * 1_MiB;
  cfg.reservation = cfg.size / (1 + rng.next_below(4));
  mem::GuestMemory mem(cfg, &dev, Rng(GetParam(), "mem"));
  Bitmap dirty(mem.page_count());

  std::uint32_t tick = 0;
  for (int op = 0; op < 20000; ++op) {
    PageIndex p = rng.next_below(mem.page_count());
    switch (rng.next_below(8)) {
      case 0:
      case 1:
      case 2:
      case 3:
        mem.touch(p, rng.next_bool(0.3), ++tick);
        break;
      case 4:
        if (mem.is_swapped(p)) mem.swap_in_for_transfer(p, ++tick, rng.next_bool(0.5));
        break;
      case 5:
        mem.set_reservation(std::max<Bytes>(1_MiB, rng.next_below(cfg.size)));
        mem.enforce_reservation(rng.next_below(512));
        break;
      case 6:
        if (rng.next_bool(0.5)) {
          mem.attach_dirty_log(&dirty);
        } else {
          mem.detach_dirty_log();
        }
        break;
      case 7:
        ssd->advance(msec(10));
        break;
    }
  }
  mem.check_consistency();
  // Every allocated device slot must be referenced by exactly one page.
  std::uint64_t referenced = 0;
  for (PageIndex p = 0; p < mem.page_count(); ++p) {
    if (mem.swap_slot(p) != swap::kNoSlot) ++referenced;
  }
  EXPECT_EQ(dev.used_slots(), referenced);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuestMemoryFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- Network conservation ---------------------------------------------------

class NetworkFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkFuzz, ConservesBytesAndRespectsCapacity) {
  Rng rng(GetParam(), "net-fuzz");
  net::NetworkConfig cfg;
  cfg.protocol_efficiency = 1.0;
  net::Network net(cfg);
  const int nodes = 3 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < nodes; ++i) net.add_node("n" + std::to_string(i));

  struct FlowState {
    net::FlowId id;
    Bytes offered = 0;
    Bytes delivered = 0;
  };
  std::vector<FlowState> flows;
  flows.reserve(8);  // the delivery lambdas capture &flows.back()
  for (int i = 0; i < 6; ++i) {
    auto src = static_cast<net::NodeId>(rng.next_below(nodes));
    auto dst = static_cast<net::NodeId>(rng.next_below(nodes));
    if (src == dst) continue;
    flows.push_back({0, 0, 0});
    FlowState* fs = &flows.back();
    fs->id = net.open_flow(src, dst, [fs](Bytes b) { fs->delivered += b; });
  }
  if (flows.empty()) return;

  const double cap = net.link_bytes_per_sec() * 0.1;  // per quantum
  for (int q = 0; q < 50; ++q) {
    for (auto& f : flows) {
      if (rng.next_bool(0.5)) {
        Bytes b = rng.next_below(30'000'000);
        net.offer(f.id, b);
        f.offered += b;
      }
    }
    Bytes before_total = 0;
    for (auto& f : flows) before_total += f.delivered;
    net.advance(msec(100));
    Bytes delivered_this_quantum = 0;
    for (auto& f : flows) delivered_this_quantum += f.delivered;
    delivered_this_quantum -= before_total;
    // No quantum can deliver more than every node's capacity combined.
    EXPECT_LE(static_cast<double>(delivered_this_quantum), cap * nodes + 1);
  }
  for (auto& f : flows) {
    EXPECT_EQ(f.delivered + net.backlog(f.id), f.offered);  // conservation
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkFuzz, ::testing::Range<std::uint64_t>(1, 7));

// --- Multi-hop max–min fairness on the leaf-spine fabric ---------------------

class LeafSpineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LeafSpineFuzz, PerLinkCapacityAndNoStarvation) {
  Rng rng(GetParam(), "leaf-spine-fuzz");
  net::NetworkConfig cfg;
  cfg.protocol_efficiency = 1.0;
  cfg.topology.kind = net::TopologyKind::kLeafSpine;
  cfg.topology.racks = 2 + static_cast<std::uint32_t>(rng.next_below(3));
  cfg.topology.hosts_per_rack = 2 + static_cast<std::uint32_t>(rng.next_below(3));
  cfg.topology.oversubscription = 2.0 + static_cast<double>(rng.next_below(7));
  net::Network net(cfg);
  std::vector<net::NodeId> nodes;
  for (std::uint32_t r = 0; r < cfg.topology.racks; ++r) {
    for (std::uint32_t h = 0; h < cfg.topology.hosts_per_rack; ++h) {
      nodes.push_back(net.add_node("h", r));
    }
  }
  nodes.push_back(net.add_node("ext", net::kCoreAttached));

  struct FlowState {
    net::FlowId id;
    Bytes offered = 0;
    Bytes delivered = 0;
    Bytes last_quantum = 0;
  };
  std::vector<FlowState> flows;
  flows.reserve(12);
  for (int i = 0; i < 12 && flows.size() < 10; ++i) {
    auto src = nodes[rng.next_below(nodes.size())];
    auto dst = nodes[rng.next_below(nodes.size())];
    if (src == dst) continue;
    flows.push_back({});
    FlowState* fs = &flows.back();
    fs->id = net.open_flow(src, dst, [fs](Bytes b) {
      fs->delivered += b;
      fs->last_quantum += b;
    });
  }
  ASSERT_FALSE(flows.empty());

  for (int q = 0; q < 40; ++q) {
    for (auto& f : flows) {
      f.last_quantum = 0;
      if (rng.next_bool(0.6)) {
        Bytes b = rng.next_below(40'000'000);
        net.offer(f.id, b);
        f.offered += b;
      }
    }
    net.advance(msec(100));
    // Property 1: no link ever carries more than capacity x dt. The model
    // reports utilization clamped at 1.0, so check the raw byte growth.
    for (std::size_t t = 0; t < net::kLinkTierCount; ++t) {
      auto tier = static_cast<net::LinkTier>(t);
      EXPECT_LE(net.tier_totals(tier).peak_utilization, 1.0 + 1e-9);
    }
    // Property 2: no backlogged flow starves while every link of some flow
    // has slack — max–min progressive filling only stops a flow at a
    // saturated link. Weaker observable form: if NO link in the whole
    // fabric is saturated, every backlogged flow must have received bytes.
    double max_util = 0;
    for (std::size_t t = 0; t < net::kLinkTierCount; ++t) {
      max_util = std::max(
          max_util,
          net.tier_totals(static_cast<net::LinkTier>(t)).peak_utilization);
    }
    if (max_util < 0.999) {
      for (auto& f : flows) {
        if (net.backlog(f.id) > 0) {
          EXPECT_GT(f.last_quantum, 0u) << "flow starved below saturation";
        }
      }
    }
  }
  for (auto& f : flows) {
    EXPECT_EQ(f.delivered + net.backlog(f.id), f.offered);  // conservation
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeafSpineFuzz,
                         ::testing::Range<std::uint64_t>(1, 7));

// --- Flat topology reproduces the legacy single-switch allocator -------------
//
// The legacy model water-filled per-node egress/ingress capacities. The
// topology generalization must keep the flat shape bit-for-bit identical:
// this reference reimplements the old node-capacity progressive filling and
// compares delivered byte counts exactly (no tolerance).

class FlatLegacyFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatLegacyFuzz, FlatEqualsLegacyNodeCapacityAllocator) {
  Rng rng(GetParam(), "flat-legacy");
  net::NetworkConfig cfg;
  cfg.protocol_efficiency = 1.0;
  net::Network net(cfg);
  const std::size_t node_count = 4;
  for (std::size_t i = 0; i < node_count; ++i) net.add_node("n");

  struct FlowState {
    net::NodeId src, dst;
    net::FlowId id;
    Bytes backlog_ref = 0;  // reference model's view
    Bytes delivered_net = 0;
    Bytes quantum_net = 0;
  };
  std::vector<FlowState> flows;
  flows.reserve(8);
  for (int i = 0; i < 8; ++i) {
    auto src = static_cast<net::NodeId>(rng.next_below(node_count));
    auto dst = static_cast<net::NodeId>(rng.next_below(node_count));
    if (src == dst) continue;
    flows.push_back({src, dst, 0, 0, 0, 0});
    FlowState* fs = &flows.back();
    fs->id = net.open_flow(src, dst, [fs](Bytes b) {
      fs->delivered_net += b;
      fs->quantum_net += b;
    });
  }
  ASSERT_FALSE(flows.empty());

  const double cap = net.link_bytes_per_sec() * 0.1;  // per quantum, per dir
  for (int q = 0; q < 30; ++q) {
    for (auto& f : flows) {
      f.quantum_net = 0;
      if (rng.next_bool(0.5)) {
        Bytes b = rng.next_below(20'000'000);
        net.offer(f.id, b);
        f.backlog_ref += b;
      }
    }
    net.advance(msec(100));

    // Legacy reference: progressive filling over per-node tx/rx capacities
    // (flow order = open order, the same uniform-increment loop).
    std::vector<double> tx(node_count, cap), rx(node_count, cap);
    std::vector<double> remaining, alloc(flows.size(), 0.0);
    std::vector<bool> frozen(flows.size(), false);
    std::size_t live = 0;
    for (auto& f : flows) remaining.push_back(static_cast<double>(f.backlog_ref));
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (remaining[i] > 0) {
        ++live;
      } else {
        frozen[i] = true;
      }
    }
    constexpr double kEps = 1e-6;
    while (live > 0) {
      std::vector<int> tx_users(node_count, 0), rx_users(node_count, 0);
      for (std::size_t i = 0; i < flows.size(); ++i) {
        if (frozen[i]) continue;
        ++tx_users[flows[i].src];
        ++rx_users[flows[i].dst];
      }
      double inc = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < flows.size(); ++i) {
        if (frozen[i]) continue;
        inc = std::min(inc, remaining[i]);
        inc = std::min(inc, tx[flows[i].src] / tx_users[flows[i].src]);
        inc = std::min(inc, rx[flows[i].dst] / rx_users[flows[i].dst]);
      }
      if (!std::isfinite(inc)) break;
      inc = std::max(inc, 0.0);
      for (std::size_t i = 0; i < flows.size(); ++i) {
        if (frozen[i]) continue;
        alloc[i] += inc;
        remaining[i] -= inc;
        tx[flows[i].src] -= inc;
        rx[flows[i].dst] -= inc;
      }
      for (std::size_t i = 0; i < flows.size(); ++i) {
        if (frozen[i]) continue;
        if (remaining[i] <= kEps || tx[flows[i].src] <= kEps ||
            rx[flows[i].dst] <= kEps) {
          frozen[i] = true;
          --live;
        }
      }
      if (inc <= kEps && live > 0) break;
    }
    for (std::size_t i = 0; i < flows.size(); ++i) {
      auto expect = static_cast<Bytes>(alloc[i]);
      expect = std::min<Bytes>(expect, flows[i].backlog_ref);
      ASSERT_EQ(flows[i].quantum_net, expect)
          << "flat topology diverged from the legacy allocator at quantum "
          << q << ", flow " << i;
      flows[i].backlog_ref -= expect;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatLegacyFuzz,
                         ::testing::Range<std::uint64_t>(1, 7));

// --- Migration invariants across the matrix ---------------------------------

struct MigrationCase {
  core::Technique technique;
  bool oltp;
  std::uint64_t seed;
};

class MigrationMatrix : public ::testing::TestWithParam<MigrationCase> {};

TEST_P(MigrationMatrix, InvariantsHold) {
  const MigrationCase& c = GetParam();
  core::TestbedConfig cfg;
  cfg.cluster.seed = c.seed;
  for (host::HostConfig& host_cfg : cfg.hosts) {
    host_cfg.ram = 1_GiB;
    host_cfg.host_os_bytes = 32_MiB;
  }
  cfg.vmd_server_capacity = 2_GiB;
  core::Testbed bed(cfg);

  core::VmSpec spec;
  spec.name = "vm";
  spec.memory = 192_MiB;
  spec.reservation = 96_MiB;
  spec.swap = c.technique == core::Technique::kAgile
                  ? core::SwapBinding::kPerVmDevice
                  : core::SwapBinding::kHostPartition;
  core::VmHandle& h = bed.create_vm(spec);

  std::unique_ptr<workload::Workload> load;
  if (c.oltp) {
    workload::OltpConfig ocfg;
    ocfg.dataset_bytes = 128_MiB;
    ocfg.guest_os_bytes = 16_MiB;
    ocfg.base_txn_time = 2000;
    load = std::make_unique<workload::OltpWorkload>(
        h.machine, &bed.cluster().network(), bed.client_node(), ocfg,
        bed.make_rng("oltp"));
  } else {
    workload::YcsbConfig ycfg;
    ycfg.dataset_bytes = 150_MiB;
    ycfg.guest_os_bytes = 16_MiB;
    ycfg.active_bytes = 64_MiB;
    ycfg.read_fraction = 0.7;
    load = std::make_unique<workload::YcsbWorkload>(
        h.machine, &bed.cluster().network(), bed.client_node(), ycfg,
        bed.make_rng("ycsb"));
  }
  workload::Workload* raw = load.get();
  bed.attach_workload(h, std::move(load));
  raw->load(0);
  bed.cluster().run_for_seconds(3);

  auto mig = bed.make_migration_to(c.technique, h, bed.host_at(1));
  mig->start();
  double deadline = bed.cluster().now_seconds() + 600;
  while (!mig->completed() && bed.cluster().now_seconds() < deadline) {
    bed.cluster().run_for_seconds(1);
  }
  ASSERT_TRUE(mig->completed());
  bed.cluster().run_for_seconds(5);  // let the destination run a little

  // 1. Nothing left unresolved at the destination.
  EXPECT_EQ(h.machine->memory().remote_pages(), 0u);
  // 2. The source holds no memory at all.
  EXPECT_EQ(mig->source_memory()->resident_pages(), 0u);
  EXPECT_EQ(mig->source_memory()->swapped_pages(), 0u);
  // 3. Both page tables are internally consistent.
  h.machine->memory().check_consistency();
  mig->source_memory()->check_consistency();
  // 4. Slot conservation on the destination's swap device.
  std::uint64_t referenced = 0;
  const mem::GuestMemory& memory = h.machine->memory();
  for (PageIndex p = 0; p < memory.page_count(); ++p) {
    if (memory.state(p) != mem::PageState::kRemote &&
        memory.swap_slot(p) != swap::kNoSlot) {
      ++referenced;
    }
  }
  if (c.technique == core::Technique::kAgile) {
    EXPECT_EQ(h.per_vm_swap->used_slots(), referenced);
  } else {
    EXPECT_LE(referenced, bed.host_at(1)->swap_partition()->used_slots());
  }
  // 5. The VM still works: the workload makes progress at the destination.
  std::uint64_t ops_before = raw->ops_total();
  bed.cluster().run_for_seconds(3);
  EXPECT_GT(raw->ops_total(), ops_before);
  // 6. Execution really moved.
  EXPECT_TRUE(bed.host_at(1)->has_vm(h.machine));
  EXPECT_GE(mig->metrics().downtime, 0);
  EXPECT_GT(mig->metrics().bytes_transferred, 0u);
}

std::vector<MigrationCase> migration_cases() {
  std::vector<MigrationCase> cases;
  for (core::Technique t : {core::Technique::kPrecopy, core::Technique::kPostcopy,
                            core::Technique::kAgile}) {
    for (bool oltp : {false, true}) {
      for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
        cases.push_back({t, oltp, seed});
      }
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<MigrationCase>& info) {
  std::string s = core::technique_name(info.param.technique);
  for (char& ch : s) {
    if (ch == '-') ch = '_';
  }
  return s + (info.param.oltp ? "_oltp_" : "_ycsb_") +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Matrix, MigrationMatrix,
                         ::testing::ValuesIn(migration_cases()), case_name);

// --- Zipf distribution property ---------------------------------------------

class ZipfTheta : public ::testing::TestWithParam<double> {};

TEST_P(ZipfTheta, HeadProbabilityGrowsWithTheta) {
  Rng rng(5, "zipf-prop");
  ZipfSampler zipf(100000, GetParam());
  int head = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) head += zipf.sample(rng) < 1000;
  double frac = static_cast<double>(head) / kDraws;
  // Under uniform, P(<1000) would be 1%. For theta<1 the Zipf head mass is
  // ≈ (1000/100000)^(1-theta); check we're at least near that.
  double expected = std::pow(0.01, 1.0 - std::min(GetParam(), 0.99));
  EXPECT_GT(frac, 0.6 * expected);
  EXPECT_GT(frac, 0.015);
  EXPECT_LT(frac, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfTheta,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8, 0.99, 1.2));

}  // namespace
}  // namespace agile
