// Agile live migration — the paper's contribution.
//
// One live pre-copy round transfers the resident working set in full while
// swapped-out (cold) pages are covered by 16-byte SWAPPED descriptors (page
// index + offset on the per-VM swap device) read from the pagemap — the
// migration never touches the swap device at the source. After that single
// round the VM flips to the destination (CPU state + dirty bitmap), which
// then fills the remainder two ways:
//
//   * pages dirtied during the live round: post-copy's own active push and
//     network demand paging (`PostcopyEngine`), over a set the size of the
//     *write* working set rather than the whole VM;
//   * cold pages: demand-paged straight from the portable per-VM swap device
//     (VMD) — they never cross the source link at all. These arrive through
//     the normal swap-in path (the descriptor made them look locally
//     swapped), so no fault-engine round trip to the source is needed.
//
// Source memory is released progressively as dirty pages are delivered; at
// completion, slot ownership for the cold set is handed to the destination
// and everything else at the source is reclaimed.
#pragma once

#include <vector>

#include "migration/postcopy.hpp"

namespace agile::migration {

class AgileMigration final : public PostcopyEngine {
 public:
  AgileMigration(host::Cluster* cluster, MigrationParams params,
                 MigrationConfig config);

  const char* technique() const override { return "agile"; }

  /// Live round: pages not yet scanned; after the flip: the dirty debt.
  std::uint64_t pages_owed() const override {
    if (phase_ == Phase::kInit || phase_ == Phase::kLiveRound) {
      return page_count() - cursor_;
    }
    return push_owed();
  }

 protected:
  void on_tick(SimTime now, SimTime dt, std::uint32_t tick) override;

 private:
  enum class Phase { kInit, kLiveRound, kFlipWait, kPush, kDone };

  /// Run-batched live-round scan; consumes `budget` thread time and returns
  /// what is left (negative = overdrawn into debt).
  SimTime scan_runs(SimTime budget, std::uint32_t tick);
  void end_live_round();
  void apply_dirty_invalidations();
  void handoff_cold_slots();
  SimTime handle_fault(PageIndex p, std::uint32_t tick) override;
  void maybe_finish() override;

  Phase phase_ = Phase::kInit;
  Bitmap dirty_log_;          ///< Writes during the live round.
  Bitmap installed_swapped_;  ///< Dest pages installed from SWAPPED descriptors.
  Bitmap dirty_;              ///< Snapshot at suspension: pages owed post-flip.
  /// Swap slot of each page as read from the PTE during the live round; the
  /// batched descriptor sends deliver from this buffer (the source may have
  /// dropped the slot by delivery time).
  std::vector<swap::SwapSlot> slot_at_scan_;
  std::uint64_t cursor_ = 0;  ///< Live-round scan position.
};

}  // namespace agile::migration
