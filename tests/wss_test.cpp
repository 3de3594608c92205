#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "workload/ycsb.hpp"
#include "wss/reservation_controller.hpp"
#include "wss/watermark_trigger.hpp"

namespace agile::wss {
namespace {

// --- watermark / VM selection (pure logic) -------------------------------

TEST(Watermark, NoPressureBelowHighWatermark) {
  std::vector<VmPressure> vms = {{"a", 4_GiB}, {"b", 4_GiB}};
  TriggerDecision d = evaluate_watermarks(16_GiB, 200_MiB, vms, {});
  EXPECT_FALSE(d.pressure);
  EXPECT_TRUE(d.victims.empty());
  EXPECT_EQ(d.aggregate_wss, 8_GiB + 200_MiB);
}

TEST(Watermark, PressureSelectsLargestFirst) {
  std::vector<VmPressure> vms = {{"a", 5_GiB}, {"b", 8_GiB}, {"c", 3_GiB}};
  // Aggregate ~16.2 GiB on a 16 GiB host: over 90%.
  TriggerDecision d = evaluate_watermarks(16_GiB, 200_MiB, vms, {});
  ASSERT_TRUE(d.pressure);
  ASSERT_EQ(d.victims.size(), 1u);
  EXPECT_EQ(d.victims[0], 1u);  // "b", the largest
  EXPECT_LE(d.aggregate_after, static_cast<Bytes>(0.75 * 16_GiB));
}

TEST(Watermark, SelectsFewestVmsToReachLowWatermark) {
  std::vector<VmPressure> vms = {{"a", 2_GiB}, {"b", 2_GiB}, {"c", 2_GiB},
                                 {"d", 2_GiB}, {"e", 2_GiB}};
  WatermarkConfig cfg{.high = 0.80, .low = 0.50};
  TriggerDecision d = evaluate_watermarks(10_GiB, 0, vms, cfg);
  ASSERT_TRUE(d.pressure);
  // Need to go from 10 GiB to <= 5 GiB: exactly 3 × 2 GiB VMs.
  EXPECT_EQ(d.victims.size(), 3u);
}

TEST(Watermark, ExactlyAtHighWatermarkIsNotPressure) {
  std::vector<VmPressure> vms = {{"a", 9_GiB}};
  WatermarkConfig cfg{.high = 0.90, .low = 0.75};
  TriggerDecision d = evaluate_watermarks(10_GiB, 0, vms, cfg);
  EXPECT_FALSE(d.pressure);
}

TEST(Watermark, TieBreaksByInputOrder) {
  std::vector<VmPressure> vms = {{"a", 4_GiB}, {"b", 4_GiB}, {"c", 4_GiB}};
  WatermarkConfig cfg{.high = 0.80, .low = 0.70};
  TriggerDecision d = evaluate_watermarks(12_GiB, 0, vms, cfg);
  ASSERT_TRUE(d.pressure);
  ASSERT_FALSE(d.victims.empty());
  EXPECT_EQ(d.victims[0], 0u);
}

TEST(Watermark, EmptyHostNeverPressured) {
  TriggerDecision d = evaluate_watermarks(16_GiB, 200_MiB, {}, {});
  EXPECT_FALSE(d.pressure);
  EXPECT_FALSE(d.insufficient);
}

TEST(Watermark, HostOsAloneOverHighIsInsufficient) {
  // The host OS exceeds the high watermark by itself: every VM is selected
  // and the decision is explicitly flagged as insufficient.
  std::vector<VmPressure> vms = {{"a", 1_GiB}, {"b", 512_MiB}};
  TriggerDecision d = evaluate_watermarks(10_GiB, static_cast<Bytes>(9.5 * 1_GiB),
                                          vms, {});
  ASSERT_TRUE(d.pressure);
  EXPECT_EQ(d.victims.size(), vms.size());
  EXPECT_TRUE(d.insufficient);
  EXPECT_GT(d.aggregate_after, static_cast<Bytes>(0.75 * 10_GiB));
}

TEST(Watermark, ZeroVmsOverHighIsInsufficient) {
  TriggerDecision d = evaluate_watermarks(1_GiB, 1_GiB, {}, {});
  ASSERT_TRUE(d.pressure);
  EXPECT_TRUE(d.victims.empty());
  EXPECT_TRUE(d.insufficient);
}

TEST(Watermark, SufficientEvictionIsNotFlagged) {
  std::vector<VmPressure> vms = {{"a", 9_GiB}, {"b", 1_GiB}};
  TriggerDecision d = evaluate_watermarks(10_GiB, 0, vms, {});
  ASSERT_TRUE(d.pressure);
  EXPECT_FALSE(d.insufficient);
}

TEST(Watermark, LowEqualsHighIsAccepted) {
  // A degenerate band: any crossing must come back under the same line.
  std::vector<VmPressure> vms = {{"a", 5_GiB}, {"b", 4_GiB}};
  WatermarkConfig cfg{.high = 0.80, .low = 0.80};
  TriggerDecision d = evaluate_watermarks(10_GiB, 0, vms, cfg);
  ASSERT_TRUE(d.pressure);
  ASSERT_EQ(d.victims.size(), 1u);
  EXPECT_EQ(d.victims[0], 0u);
  EXPECT_LE(d.aggregate_after, static_cast<Bytes>(0.80 * 10_GiB));
  EXPECT_FALSE(d.insufficient);
}

// --- destination placement (pure logic) -----------------------------------

TEST(Placement, BestFitPicksTightestSufficientHeadroom) {
  // low = 1.0 to make headroom arithmetic transparent.
  std::vector<HostHeadroom> hosts = {{"h0", 8_GiB, 1_GiB},   // headroom 7
                                     {"h1", 4_GiB, 1_GiB},   // headroom 3
                                     {"h2", 8_GiB, 4_GiB}};  // headroom 4
  std::vector<std::size_t> p = place_victims({2_GiB}, hosts, 1.0);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], 1u);  // tightest fit that still admits 2 GiB
}

TEST(Placement, TiesBreakByInputOrder) {
  std::vector<HostHeadroom> hosts = {{"h0", 4_GiB, 0}, {"h1", 4_GiB, 0}};
  std::vector<std::size_t> p = place_victims({1_GiB}, hosts, 1.0);
  EXPECT_EQ(p[0], 0u);
}

TEST(Placement, EarlierPlacementsReserveHeadroom) {
  // Both victims fit h0 individually, but the first placement consumes its
  // headroom so the second spreads to h1.
  std::vector<HostHeadroom> hosts = {{"h0", 4_GiB, 1_GiB},
                                     {"h1", 8_GiB, 1_GiB}};
  std::vector<std::size_t> p = place_victims({2_GiB, 2_GiB}, hosts, 1.0);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], 0u);  // best fit: 3 GiB headroom < 7 GiB
  EXPECT_EQ(p[1], 1u);  // h0 only has 1 GiB left
}

TEST(Placement, RespectsLowWatermarkNotRawRam) {
  // 8 GiB host at low = 0.5 admits only up to 4 GiB committed.
  std::vector<HostHeadroom> hosts = {{"h0", 8_GiB, 3_GiB}};
  EXPECT_EQ(place_victims({2_GiB}, hosts, 0.5)[0], kNoPlacement);
  EXPECT_EQ(place_victims({1_GiB}, hosts, 0.5)[0], 0u);
}

TEST(Placement, UnplaceableVictimGetsNoPlacement) {
  std::vector<HostHeadroom> hosts = {{"h0", 2_GiB, 1_GiB}};
  std::vector<std::size_t> p = place_victims({4_GiB, 512_MiB}, hosts, 1.0);
  EXPECT_EQ(p[0], kNoPlacement);
  EXPECT_EQ(p[1], 0u);  // later victims still get their shot
}

TEST(Placement, NoCandidatesMeansNoPlacement) {
  std::vector<std::size_t> p = place_victims({1_GiB}, {}, 0.75);
  EXPECT_EQ(p[0], kNoPlacement);
}

TEST(Placement, RackAwarePrefersSourceRackEvenWhenLooser) {
  // h1 (other rack) is the tighter global best-fit, but rack-aware gives the
  // source rack first refusal.
  std::vector<HostHeadroom> hosts = {{"h0", 8_GiB, 1_GiB, /*rack=*/0},
                                     {"h1", 4_GiB, 1_GiB, /*rack=*/1}};
  std::vector<std::size_t> p = place_victims(
      {2_GiB}, hosts, 1.0, PlacementPolicy::kRackAware, /*source_rack=*/0);
  EXPECT_EQ(p[0], 0u);
  // kBestFit ignores the rack hint and keeps the global pick.
  EXPECT_EQ(place_victims({2_GiB}, hosts, 1.0, PlacementPolicy::kBestFit,
                          0)[0],
            1u);
}

TEST(Placement, RackAwareFallsBackToGlobalBestFit) {
  std::vector<HostHeadroom> hosts = {{"h0", 2_GiB, 1536_MiB, /*rack=*/0},
                                     {"h1", 8_GiB, 1_GiB, /*rack=*/1},
                                     {"h2", 4_GiB, 1_GiB, /*rack=*/1}};
  // The only rack-0 candidate cannot admit 2 GiB: fall back to best-fit over
  // the other racks (h2, the tighter of the two).
  std::vector<std::size_t> p = place_victims(
      {2_GiB}, hosts, 1.0, PlacementPolicy::kRackAware, /*source_rack=*/0);
  EXPECT_EQ(p[0], 2u);
}

TEST(Placement, RackAwareReservationsSpillAcrossRacks) {
  // Two victims; the single same-rack candidate admits only the first, so
  // the second spills to the remote rack — one decision, both semantics.
  std::vector<HostHeadroom> hosts = {{"h0", 4_GiB, 1_GiB, /*rack=*/0},
                                     {"h1", 8_GiB, 1_GiB, /*rack=*/1}};
  std::vector<std::size_t> p = place_victims(
      {2_GiB, 2_GiB}, hosts, 1.0, PlacementPolicy::kRackAware, 0);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], 0u);
  EXPECT_EQ(p[1], 1u);
}

TEST(Placement, FleetScaleCascadingTiesStayDeterministic) {
  // 300 identical candidates (a cascade of exact ties) and 40 identical
  // victims: best-fit with index tie-breaking must fill candidates strictly
  // in input order, each taking ceil-of-share victims before the next opens.
  const std::size_t candidates = 300;
  std::vector<HostHeadroom> hosts;
  hosts.reserve(candidates);
  for (std::size_t i = 0; i < candidates; ++i) {
    hosts.push_back({"h" + std::to_string(i), 4_GiB, 1_GiB, 0});
  }
  std::vector<Bytes> victims(40, 1_GiB);
  std::vector<std::size_t> p = place_victims(victims, hosts, 1.0);
  ASSERT_EQ(p.size(), victims.size());
  // Each candidate has 3 GiB headroom = room for three 1 GiB victims; the
  // first placement makes h0 the tightest fit, so it absorbs three before
  // the cascade moves to h1, and so on.
  for (std::size_t v = 0; v < p.size(); ++v) {
    EXPECT_EQ(p[v], v / 3) << "victim " << v;
  }
}

TEST(Placement, FleetScalePolicyOverloadMatchesDefault) {
  // Several hundred mixed candidates: the kBestFit policy overload must
  // reproduce the 3-arg overload exactly, whatever source_rack says.
  std::vector<HostHeadroom> hosts;
  std::vector<Bytes> victims;
  for (std::size_t i = 0; i < 257; ++i) {
    hosts.push_back({"h" + std::to_string(i), 2_GiB + (i % 7) * 512_MiB,
                     (i % 5) * 256_MiB, static_cast<std::uint32_t>(i % 8)});
  }
  for (std::size_t v = 0; v < 64; ++v) {
    victims.push_back(128_MiB + (v % 11) * 96_MiB);
  }
  std::vector<std::size_t> base = place_victims(victims, hosts, 0.9);
  for (std::uint32_t rack = 0; rack < 3; ++rack) {
    EXPECT_EQ(place_victims(victims, hosts, 0.9, PlacementPolicy::kBestFit,
                            rack),
              base);
  }
  // Rack-aware from rack 2 keeps every placement that fits inside rack 2 or
  // falls back deterministically; it must still place every victim some
  // candidate admits.
  std::vector<std::size_t> aware =
      place_victims(victims, hosts, 0.9, PlacementPolicy::kRackAware, 2);
  ASSERT_EQ(aware.size(), victims.size());
  for (std::size_t v = 0; v < victims.size(); ++v) {
    EXPECT_EQ(aware[v] == kNoPlacement, base[v] == kNoPlacement)
        << "policy changed placeability of victim " << v;
  }
}

// --- reservation controller (closed loop on a live testbed) ---------------

struct ControllerBed {
  core::TestbedConfig cfg;
  std::unique_ptr<core::Testbed> bed;
  core::VmHandle* handle = nullptr;
  workload::YcsbWorkload* ycsb = nullptr;

  ControllerBed() {
    cfg.hosts[0].ram = 8_GiB;
    cfg.vmd_server_capacity = 4_GiB;
    bed = std::make_unique<core::Testbed>(cfg);
    core::VmSpec spec;
    spec.name = "vm1";
    spec.memory = 1_GiB;
    spec.reservation = 1_GiB;  // start over-provisioned, like Fig. 9
    spec.swap = core::SwapBinding::kPerVmDevice;
    handle = &bed->create_vm(spec);
    workload::YcsbConfig ycfg;
    ycfg.dataset_bytes = 300_MiB;  // the true working set
    ycfg.guest_os_bytes = 16_MiB;
    ycfg.active_bytes = 300_MiB;
    ycfg.read_fraction = 0.9;
    auto load = std::make_unique<workload::YcsbWorkload>(
        handle->machine, &bed->cluster().network(), bed->client_node(), ycfg,
        bed->make_rng("ycsb"));
    ycsb = load.get();
    bed->attach_workload(*handle, std::move(load));
    ycsb->load(0);
  }
};

TEST(ReservationController, ShrinksTowardWorkingSet) {
  ControllerBed cb;
  WssConfig wc;
  ReservationController ctl(&cb.bed->cluster(), cb.handle->machine, wc);
  ctl.start();
  cb.bed->cluster().run_for_seconds(300);
  Bytes wss = ctl.wss_estimate();
  // True WS is ~316 MiB (dataset + guest OS); estimate must be within ~35%.
  EXPECT_GT(wss, 250_MiB);
  EXPECT_LT(wss, 450_MiB);
  EXPECT_GT(ctl.adjustments(), 10u);
}

TEST(ReservationController, StabilizesAndRelaxesCadence) {
  ControllerBed cb;
  ReservationController ctl(&cb.bed->cluster(), cb.handle->machine, {});
  ctl.start();
  cb.bed->cluster().run_for_seconds(400);
  EXPECT_TRUE(ctl.stable());
  // Fast cadence would have made ~200 adjustments in 400 s; the switch to
  // 30 s must have cut that down substantially.
  EXPECT_LT(ctl.adjustments(), 150u);
}

TEST(ReservationController, GrowsWhenWorkingSetGrows) {
  ControllerBed cb;
  ReservationController ctl(&cb.bed->cluster(), cb.handle->machine, {});
  ctl.start();
  cb.bed->cluster().run_for_seconds(300);
  Bytes before = ctl.wss_estimate();
  // The VM cannot grow beyond its dataset, so shrink the active set first,
  // let the controller follow down, then widen it again.
  cb.ycsb->set_active_bytes(100_MiB);
  cb.bed->cluster().run_for_seconds(300);
  Bytes small_ws = ctl.wss_estimate();
  EXPECT_LT(small_ws, before);
  cb.ycsb->set_active_bytes(300_MiB);
  cb.bed->cluster().run_for_seconds(300);
  EXPECT_GT(ctl.wss_estimate(), small_ws);
}

TEST(ReservationController, RecordsSeries) {
  ControllerBed cb;
  ReservationController ctl(&cb.bed->cluster(), cb.handle->machine, {});
  ctl.start();
  cb.bed->cluster().run_for_seconds(60);
  EXPECT_GT(ctl.reservation_series().size(), 5u);
  EXPECT_EQ(ctl.reservation_series().size(), ctl.swap_rate_series().size());
  ctl.stop();
  std::size_t frozen = ctl.reservation_series().size();
  cb.bed->cluster().run_for_seconds(60);
  EXPECT_EQ(ctl.reservation_series().size(), frozen);
}

TEST(ReservationController, RespectsMinimumReservation) {
  ControllerBed cb;
  WssConfig wc;
  wc.min_reservation = 200_MiB;
  ReservationController ctl(&cb.bed->cluster(), cb.handle->machine, wc);
  // Idle VM (detach workload effect: just don't run any ops): shrink forever
  // → must stop at the floor.
  cb.ycsb->set_active_bytes(4_KiB);
  ctl.start();
  cb.bed->cluster().run_for_seconds(600);
  EXPECT_GE(ctl.wss_estimate(), 200_MiB);
}

}  // namespace
}  // namespace agile::wss
