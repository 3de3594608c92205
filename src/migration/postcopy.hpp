// Post-copy live migration (the Hines/Deshpande/Gopalan baseline).
//
// The VM is suspended immediately; once the CPU state lands, execution
// resumes at the destination with *no* memory. Two mechanisms fill it:
// demand paging (guest faults trap into the fault engine, which fetches the
// page from the source over the network — the source first swapping it in
// from its SSD if it was cold) and an active push sweep from the source.
// Every page travels exactly once; duplicates from push/fault races are
// detected at the receiver and dropped. Source memory is freed progressively
// as pages are delivered, which is what relieves source memory pressure.
//
// `PostcopyEngine` is that post-flip push + demand-paging path over an owed
// set of pages; post-copy owes the whole guest, Agile its live-round dirty
// set (see agile.hpp).
#pragma once

#include "migration/migration.hpp"

namespace agile::migration {

class PostcopyEngine : public MigrationManager {
 public:
  using MigrationManager::MigrationManager;

 protected:
  /// Arms push/receive over the pages `owed` marks (nullptr: every page);
  /// the bitmap must outlive the migration.
  void begin_owed(const Bitmap* owed);

  /// Flip-message delivery: moves the VM, closes `flip_span`, opens the
  /// "push" span and routes remote faults to handle_fault().
  void flip_to_push(const char* flip_span);

  /// Run-batched push of the unsent owed pages; returns the `budget` left
  /// (negative = overdrawn) and adds source swap-ins to `swap_ins`.
  SimTime push_runs(SimTime budget, std::uint32_t tick,
                    std::uint64_t& swap_ins);

  virtual SimTime handle_fault(PageIndex p, std::uint32_t tick) {
    return serve_remote_fault(p, tick);
  }
  SimTime serve_remote_fault(PageIndex p, std::uint32_t tick);

  /// Called after every delivered or demand-served page.
  virtual void maybe_finish() = 0;
  /// Owed pages the destination does not hold yet.
  std::uint64_t push_owed() const { return owed_total_ - received_.count(); }
  bool push_drained() const { return push_owed() == 0; }
  /// Shared completion: closes the "push" span and finishes. The engine sets
  /// its "done" phase first.
  void finish_push();

  Bitmap received_;  ///< Destination holds the authoritative copy.

 private:
  void deliver_pushed(PageIndex p);

  const Bitmap* owed_ = nullptr;  ///< nullptr: every page is owed.
  std::uint64_t owed_total_ = 0;
  Bitmap sent_;  ///< Enqueued on the stream or served via a fault.
  std::uint64_t push_cursor_ = 0;
};

class PostcopyMigration final : public PostcopyEngine {
 public:
  using PostcopyEngine::PostcopyEngine;

  const char* technique() const override { return "post-copy"; }

  /// Everything the destination does not yet hold (push + demand debt).
  std::uint64_t pages_owed() const override {
    return page_count() - received_.count();
  }

 protected:
  void on_tick(SimTime now, SimTime dt, std::uint32_t tick) override;

 private:
  enum class Phase { kInit, kFlipWait, kPush, kDone };

  void maybe_finish() override;

  Phase phase_ = Phase::kInit;
};

}  // namespace agile::migration
