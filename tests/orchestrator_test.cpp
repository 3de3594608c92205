#include <gtest/gtest.h>

#include <algorithm>

#include "core/scenarios.hpp"
#include "workload/ycsb.hpp"

namespace agile::core {
namespace {

// Two-host orchestration bed (the PressureResponder tests, ported): N VMs
// consolidated on the source, one destination.
struct OrchestratorBed {
  TestbedConfig cfg;
  std::unique_ptr<Testbed> bed;
  std::vector<VmHandle*> handles;
  std::vector<workload::YcsbWorkload*> ycsbs;

  explicit OrchestratorBed(int vm_count, Bytes host_ram = 2_GiB,
                           Bytes dest_ram = 0) {
    for (host::HostConfig& host_cfg : cfg.hosts) {
      host_cfg.ram = host_ram;
      host_cfg.host_os_bytes = 64_MiB;
    }
    if (dest_ram != 0) cfg.hosts[1].ram = dest_ram;
    cfg.vmd_server_capacity = 8_GiB;
    bed = std::make_unique<Testbed>(cfg);
    for (int i = 0; i < vm_count; ++i) {
      VmSpec spec;
      spec.name = "vm" + std::to_string(i);
      spec.memory = 1_GiB;
      spec.reservation = 512_MiB;
      spec.swap = SwapBinding::kPerVmDevice;
      VmHandle& h = bed->create_vm(spec);
      handles.push_back(&h);
      workload::YcsbConfig ycfg;
      ycfg.dataset_bytes = 768_MiB;
      ycfg.guest_os_bytes = 32_MiB;
      ycfg.active_bytes = 128_MiB;
      auto load = std::make_unique<workload::YcsbWorkload>(
          h.machine, &bed->cluster().network(), bed->client_node(), ycfg,
          bed->make_rng(spec.name + "/y"));
      ycsbs.push_back(load.get());
      bed->attach_workload(h, std::move(load));
      ycsbs.back()->load(0);
    }
    bed->host_at(0)->ssd()->advance(sec(3600));
  }

  MigrationOrchestratorConfig brisk() {
    MigrationOrchestratorConfig cfg2;
    cfg2.wss.alpha = 0.80;
    cfg2.wss.beta = 1.15;
    return cfg2;
  }
};

TEST(MigrationOrchestrator, NoPressureNoMigration) {
  OrchestratorBed ob(2, 4_GiB);  // plenty of headroom
  MigrationOrchestrator orch(ob.bed.get(), ob.brisk());
  for (VmHandle* h : ob.handles) orch.track(h);
  orch.start();
  ob.bed->cluster().run_for_seconds(120);
  EXPECT_EQ(orch.migrations_launched(), 0u);
  EXPECT_FALSE(orch.last_decision().pressure);
  EXPECT_TRUE(orch.decisions().empty());
  EXPECT_EQ(ob.bed->host_at(1)->vm_count(), 0u);
}

TEST(MigrationOrchestrator, MigratesWhenAWorkingSetGrows) {
  OrchestratorBed ob(2, 1_GiB, /*dest_ram=*/2_GiB);
  MigrationOrchestrator orch(ob.bed.get(), ob.brisk());
  for (VmHandle* h : ob.handles) orch.track(h);
  orch.start();
  ob.bed->cluster().run_for_seconds(90);
  ASSERT_EQ(orch.migrations_launched(), 0u);
  // vm1's working set explodes; the aggregate crosses the high watermark and
  // vm1 (by far the largest estimate) must be the one evicted.
  ob.ycsbs[1]->set_active_bytes(768_MiB);
  ob.bed->cluster().run_for_seconds(250);
  ASSERT_GE(orch.migrations_launched(), 1u);
  EXPECT_TRUE(ob.bed->host_at(1)->has_vm(ob.handles[1]->machine));
  EXPECT_TRUE(ob.bed->host_at(0)->has_vm(ob.handles[0]->machine));
  EXPECT_TRUE(orch.migrations()[0]->completed());
  EXPECT_EQ(ob.bed->host_of(ob.handles[1]->machine), ob.bed->host_at(1));
}

TEST(MigrationOrchestrator, PerLinkCapSerializesWhenOne) {
  OrchestratorBed ob(3, 2_GiB, /*dest_ram=*/8_GiB);
  MigrationOrchestratorConfig cfg = ob.brisk();
  cfg.check_interval = sec(5);
  cfg.per_link_in_flight_cap = 1;
  // Hot working sets bounce off the vm_memory estimate cap and never read as
  // "stable" — evaluate on the warmup timer alone.
  cfg.wait_for_stable_estimates = false;
  MigrationOrchestrator orch(ob.bed.get(), cfg);
  for (VmHandle* h : ob.handles) orch.track(h);
  // Everyone is hot from the start, so by the end of the warmup every
  // estimate is already wide and the first decision selects several victims
  // at once; with a cap of 1 on the single source→dest link the orchestrator
  // must serialize them.
  for (auto* y : ob.ycsbs) y->set_active_bytes(768_MiB);
  orch.start();
  bool overlapped = false;
  for (int i = 0; i < 300; ++i) {
    ob.bed->cluster().run_for_seconds(1);
    if (orch.migrations_in_flight() > 1) overlapped = true;
  }
  EXPECT_FALSE(overlapped);
  EXPECT_GE(orch.migrations_launched(), 1u);
  // Deferred victims are recorded, not dropped.
  bool saw_deferral = false;
  for (const FleetDecision& d : orch.decisions()) {
    saw_deferral |= d.deferred > 0;
  }
  EXPECT_TRUE(saw_deferral);
}

TEST(MigrationOrchestrator, PerLinkCapAllowsConcurrencyWhenRaised) {
  OrchestratorBed ob(3, 2_GiB, /*dest_ram=*/8_GiB);
  MigrationOrchestratorConfig cfg = ob.brisk();
  cfg.check_interval = sec(5);
  cfg.per_link_in_flight_cap = 3;
  cfg.wait_for_stable_estimates = false;
  MigrationOrchestrator orch(ob.bed.get(), cfg);
  for (VmHandle* h : ob.handles) orch.track(h);
  for (auto* y : ob.ycsbs) y->set_active_bytes(768_MiB);
  orch.start();
  std::size_t peak = 0;
  for (int i = 0; i < 300; ++i) {
    ob.bed->cluster().run_for_seconds(1);
    peak = std::max(peak, orch.migrations_in_flight());
  }
  EXPECT_GE(peak, 2u);
}

TEST(MigrationOrchestrator, TracksEstimatesPerVm) {
  OrchestratorBed ob(2, 4_GiB);
  MigrationOrchestrator orch(ob.bed.get(), ob.brisk());
  for (VmHandle* h : ob.handles) orch.track(h);
  EXPECT_EQ(orch.tracked_count(), 2u);
  orch.start();
  ob.ycsbs[0]->set_active_bytes(640_MiB);
  ob.bed->cluster().run_for_seconds(180);
  EXPECT_GT(orch.wss_estimate(ob.handles[0]),
            orch.wss_estimate(ob.handles[1]));
}

TEST(MigrationOrchestrator, StopHaltsMonitoring) {
  OrchestratorBed ob(2, 2_GiB);
  MigrationOrchestrator orch(ob.bed.get(), ob.brisk());
  for (VmHandle* h : ob.handles) orch.track(h);
  orch.start();
  ob.bed->cluster().run_for_seconds(50);
  orch.stop();
  for (auto* y : ob.ycsbs) y->set_active_bytes(768_MiB);
  ob.bed->cluster().run_for_seconds(120);
  EXPECT_EQ(orch.migrations_launched(), 0u);
}

TEST(MigrationOrchestrator, InsufficientHostIsFlagged) {
  // The host OS alone exceeds the low watermark: evicting the only VM still
  // leaves the host over it, and the decision must say so.
  OrchestratorBed ob(0, 1_GiB, /*dest_ram=*/4_GiB);
  ob.cfg.hosts[0].host_os_bytes = 960_MiB;  // > 0.90 × 1 GiB
  ob.cfg.vmd_server_capacity = 8_GiB;
  ob.bed = std::make_unique<Testbed>(ob.cfg);
  VmSpec spec;
  spec.name = "vm0";
  spec.memory = 256_MiB;
  spec.reservation = 128_MiB;
  spec.swap = SwapBinding::kPerVmDevice;
  VmHandle& h = ob.bed->create_vm(spec);
  workload::YcsbConfig ycfg;
  ycfg.dataset_bytes = 128_MiB;
  ycfg.guest_os_bytes = 16_MiB;
  ycfg.active_bytes = 64_MiB;
  auto load = std::make_unique<workload::YcsbWorkload>(
      h.machine, &ob.bed->cluster().network(), ob.bed->client_node(), ycfg,
      ob.bed->make_rng("vm0/y"));
  workload::YcsbWorkload* y = load.get();
  ob.bed->attach_workload(h, std::move(load));
  y->load(0);
  ob.bed->host_at(0)->ssd()->advance(sec(3600));

  MigrationOrchestrator orch(ob.bed.get(), ob.brisk());
  orch.track(&h);
  orch.start();
  ob.bed->cluster().run_for_seconds(200);
  ASSERT_FALSE(orch.decisions().empty());
  EXPECT_TRUE(orch.decisions().front().trigger.insufficient);
  // The one eviction it could make still happens (best effort).
  EXPECT_GE(orch.migrations_launched(), 1u);
}

// Acceptance scenario: one watermark decision selects ≥2 victims, they
// migrate concurrently (overlapping metric windows), spread across ≥2
// destination hosts, and no destination ends over its own low watermark.
TEST(MigrationOrchestrator, MultiVictimConcurrentSpread) {
  scenarios::FleetOptions opt;
  scenarios::Fleet fleet = scenarios::make_fleet(opt);
  fleet.load_all();
  fleet.orchestrator->start();
  fleet.bed->cluster().run_for_seconds(400);
  fleet.orchestrator->stop();
  MigrationOrchestrator& orch = *fleet.orchestrator;

  // One decision launched at least two victims.
  const FleetDecision* multi = nullptr;
  for (const FleetDecision& d : orch.decisions()) {
    if (d.launches.size() >= 2) {
      multi = &d;
      break;
    }
  }
  ASSERT_NE(multi, nullptr) << "no multi-victim decision fired";
  EXPECT_GE(multi->trigger.victims.size(), 2u);

  // ...to at least two distinct destinations (placement spread them).
  std::vector<std::string> dests;
  for (const FleetLaunch& l : multi->launches) dests.push_back(l.dest);
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  EXPECT_GE(dests.size(), 2u);

  // The launched migrations of that decision ran concurrently: overlapping
  // [start_time, end_time] windows, and all completed.
  std::vector<const migration::MigrationManager*> batch;
  for (const auto& m : orch.migrations()) {
    for (const FleetLaunch& l : multi->launches) {
      if (m->machine()->name() == l.vm &&
          to_seconds(m->metrics().start_time) >= to_seconds(multi->time) - 1) {
        batch.push_back(m.get());
      }
    }
  }
  ASSERT_GE(batch.size(), 2u);
  SimTime max_start = -1, min_end = -1;
  for (const auto* m : batch) {
    ASSERT_TRUE(m->completed());
    max_start = std::max(max_start, m->metrics().start_time);
    min_end = min_end < 0 ? m->metrics().end_time
                          : std::min(min_end, m->metrics().end_time);
  }
  EXPECT_LT(max_start, min_end) << "migration windows do not overlap";

  // Admission control held: every destination stays under its own low
  // watermark, counting host OS + the tracked working sets now resident.
  for (std::size_t i = 1; i < fleet.bed->host_count(); ++i) {
    host::Host* dest = fleet.bed->host_at(i);
    Bytes committed = dest->config().host_os_bytes;
    for (VmHandle* h : fleet.handles) {
      if (dest->has_vm(h->machine)) committed += orch.wss_estimate(h);
    }
    EXPECT_LE(static_cast<double>(committed),
              opt.watermarks.low * static_cast<double>(dest->ram()))
        << dest->name() << " pushed over its low watermark";
  }

  // The source is relieved: its tracked aggregate fell under the high mark.
  Bytes source_agg = fleet.bed->host_at(0)->config().host_os_bytes;
  for (VmHandle* h : fleet.handles) {
    if (fleet.bed->host_at(0)->has_vm(h->machine)) {
      source_agg += orch.wss_estimate(h);
    }
  }
  EXPECT_LE(static_cast<double>(source_agg),
            opt.watermarks.high * static_cast<double>(opt.source_ram));
}

// Two simultaneous bulk flows leaving one host share its egress NIC max–min
// fairly: each concurrent migration takes about twice as long as the same
// migration running alone, and they finish together.
TEST(MigrationOrchestrator, SharedLinkSplitsFairly) {
  auto build = [](int vm_count) {
    TestbedConfig cfg;
    cfg.hosts.clear();
    for (int i = 0; i < 3; ++i) {
      host::HostConfig hc = named_host("host" + std::to_string(i));
      hc.ram = 4_GiB;
      hc.host_os_bytes = 64_MiB;
      cfg.hosts.push_back(hc);
    }
    cfg.vmd_server_capacity = 8_GiB;
    auto bed = std::make_unique<Testbed>(cfg);
    for (int i = 0; i < vm_count; ++i) {
      VmSpec spec;
      spec.name = "vm" + std::to_string(i);
      spec.memory = 512_MiB;
      spec.swap = SwapBinding::kPerVmDevice;
      VmHandle& h = bed->create_vm(spec);
      h.machine->memory().prefill(h.machine->page_count(), 0);
    }
    for (std::size_t i = 0; i < bed->host_count(); ++i) {
      bed->host_at(i)->ssd()->advance(sec(3600));
    }
    bed->cluster().run_for_seconds(2);
    return bed;
  };

  // Baseline: one migration, sole user of the egress NIC.
  auto solo_bed = build(1);
  auto solo = solo_bed->make_migration_to(Technique::kAgile,
                                          solo_bed->vm_at(0),
                                          solo_bed->host_at(1));
  solo->start();
  while (!solo->completed()) solo_bed->cluster().run_for_seconds(1);
  double solo_s = to_seconds(solo->metrics().total_time());
  ASSERT_GT(solo_s, 0);

  // Concurrent: two identical migrations to different destinations share
  // host0's egress.
  auto bed = build(2);
  auto m0 = bed->make_migration_to(Technique::kAgile, bed->vm_at(0),
                                   bed->host_at(1));
  auto m1 = bed->make_migration_to(Technique::kAgile, bed->vm_at(1),
                                   bed->host_at(2));
  m0->start();
  m1->start();
  while (!m0->completed() || !m1->completed()) {
    bed->cluster().run_for_seconds(1);
  }
  double t0 = to_seconds(m0->metrics().total_time());
  double t1 = to_seconds(m1->metrics().total_time());

  // Windows overlap (they started together and share the link end to end).
  EXPECT_LT(std::max(m0->metrics().start_time, m1->metrics().start_time),
            std::min(m0->metrics().end_time, m1->metrics().end_time));
  // Max–min fair halves: each takes ~2× the solo time, and neither starves.
  EXPECT_GT(t0, 1.5 * solo_s);
  EXPECT_LT(t0, 2.6 * solo_s);
  EXPECT_GT(t1, 1.5 * solo_s);
  EXPECT_LT(t1, 2.6 * solo_s);
  EXPECT_NEAR(t0, t1, 0.25 * solo_s);
  // Identical VMs move identical bytes.
  EXPECT_EQ(m0->metrics().pages_sent_full, m1->metrics().pages_sent_full);
}

}  // namespace
}  // namespace agile::core
