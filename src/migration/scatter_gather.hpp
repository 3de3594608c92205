// Scatter-Gather live migration (Deshpande et al., IEEE Cloud 2014 — the
// authors' companion technique, cited as related work [22] in the paper).
//
// Goal: *evict* the VM from the source as fast as possible, even when the
// destination cannot absorb it at line rate. Execution flips immediately
// (post-copy style). The source then "scatters" every page it still holds
// into the VM's portable per-VM swap device — the VMD's intermediate hosts —
// at NIC line rate, handing the destination a 16-byte descriptor per page.
// The destination "gathers": it prefetches pages back out of the VMD into
// its memory in the background, and demand faults are served from the VMD
// (or from the source, for pages not yet scattered).
//
// Compared to Agile migration: no live pre-copy round (nothing is sent in
// full on the direct channel except demand-fault responses), so the source
// is free after scattering its resident set once — the fastest
// deprovisioning of the four techniques, at the cost of a longer
// degradation tail at the destination.
#pragma once

#include "migration/migration.hpp"

namespace agile::migration {

class ScatterGatherMigration final : public MigrationManager {
 public:
  ScatterGatherMigration(host::Cluster* cluster, MigrationParams params,
                         MigrationConfig config);

  const char* technique() const override { return "scatter-gather"; }

  /// Pages the source still holds (not yet scattered or demand-resolved).
  std::uint64_t pages_owed() const override {
    return page_count() - handled_.count();
  }

  /// When the source finished scattering (its memory is fully released);
  /// -1 while still scattering. The "deprovision time" metric.
  SimTime scatter_complete_time() const { return scatter_done_; }

  /// Pages the gatherer has prefetched from the VMD so far.
  std::uint64_t pages_gathered() const { return pages_gathered_; }

 protected:
  void on_tick(SimTime now, SimTime dt, std::uint32_t tick) override;

 private:
  enum class Phase { kInit, kFlipWait, kScatter, kGatherOnly, kDone };

  /// Source-side work of scattering page `p` (eviction / slot handoff /
  /// release); the 16-byte descriptor itself travels in a batched send.
  SimTime scatter_work(PageIndex p, std::uint32_t tick);
  /// Receiver side of one scattered descriptor (batch chunk callback).
  void descriptor_delivered(PageIndex p);
  void gather(SimTime dt, std::uint32_t tick);
  SimTime handle_fault(PageIndex p, bool write, std::uint32_t tick);
  void maybe_finish_scatter();

  Phase phase_ = Phase::kInit;
  Bitmap handled_;  ///< Source no longer holds this page.
  /// Slot each scattered page occupies on the per-VM device (kNoSlot marks a
  /// zero page); resolves faults that overtake their descriptor.
  std::vector<swap::SwapSlot> scattered_slot_;
  std::uint64_t scatter_cursor_ = 0;
  std::uint64_t gather_cursor_ = 0;
  std::uint64_t pages_gathered_ = 0;
  SimTime scatter_done_ = -1;
};

}  // namespace agile::migration
