// Iterative pre-copy live migration (the QEMU baseline).
//
// Round 1 transfers every page; later rounds re-send pages dirtied during
// the previous round. Swapped-out pages must be swapped in from the host
// swap partition before they can travel — the migration thread pays that
// read latency (and contends with guest faults for the SSD), which is the
// agility problem the paper demonstrates. When the remaining dirty set can
// be sent within the downtime target (or the round cap is hit), the VM is
// suspended, the rest is flushed, the CPU state follows, and the VM resumes
// at the destination.
#pragma once

#include "migration/migration.hpp"

namespace agile::migration {

class PrecopyMigration final : public MigrationManager {
 public:
  using MigrationManager::MigrationManager;

  const char* technique() const override { return "pre-copy"; }

  /// This round's unsent dirty pages plus the dirty log accumulating for
  /// the next round.
  std::uint64_t pages_owed() const override {
    return dirty_.count() + next_dirty_.count();
  }

 protected:
  void on_tick(SimTime now, SimTime dt, std::uint32_t tick) override;

 private:
  enum class Phase { kInit, kLive, kStopCopy, kAwaitResume };

  void end_of_live_round();
  void start_stop_copy();

  Phase phase_ = Phase::kInit;
  Bitmap dirty_;       ///< Pages still to send this round.
  Bitmap next_dirty_;  ///< KVM dirty log for the running round.
  std::uint64_t cursor_ = 0;
  std::uint32_t round_ = 0;
};

}  // namespace agile::migration
