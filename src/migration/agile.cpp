#include "migration/agile.hpp"

#include "trace/trace.hpp"
#include "util/log.hpp"

namespace agile::migration {

AgileMigration::AgileMigration(host::Cluster* cluster, MigrationParams params,
                               MigrationConfig config)
    : PostcopyEngine(cluster, params, config) {
  // Agile requires the *same* portable per-VM swap device on both sides:
  // that is what makes the SWAPPED descriptors meaningful at the destination.
  AGILE_CHECK_MSG(params.dest_swap == params.machine->memory().swap_device(),
                  "Agile migration needs the portable per-VM swap device");
}

void AgileMigration::on_tick(SimTime, SimTime dt, std::uint32_t tick) {
  if (phase_ == Phase::kInit) {
    dirty_log_.reset(page_count(), false);
    installed_swapped_.reset(page_count(), false);
    slot_at_scan_.assign(page_count(), swap::kNoSlot);
    source_mem_->attach_dirty_log(&dirty_log_);
    cursor_ = 0;
    phase_ = Phase::kLiveRound;
    set_phase(1, "live-round");
    AGILE_TRACE_SPAN_BEGIN("migration", "live_round", trace_id());
  }
  if (phase_ == Phase::kFlipWait) return;

  SimTime budget = take_budget(dt);
  if (budget <= 0) return;
  if (phase_ == Phase::kLiveRound) {
    budget = scan_runs(budget, tick);
  } else if (phase_ == Phase::kPush) {
    // A dirty page re-evicted before its push is read back from the per-VM
    // device, a remote-memory hit rather than a source SSD read, so those
    // swap-ins are not counted as pages swapped in at the source.
    std::uint64_t vmd_reads = 0;
    budget = push_runs(budget, tick, vmd_reads);
  }
  carry_debt(budget);
}

SimTime AgileMigration::scan_runs(SimTime budget, std::uint32_t) {
  // The live-round scan mutates nothing at the source, so a PTE run read at
  // the top of the tick stays valid for the whole batch: one class run
  // collapses into one batch send.
  mem::Pagemap pagemap(*source_mem_);
  mem::GuestMemory* dest = dest_mem_;
  while (budget > 0) {
    const Bytes backlog = stream_->backlog();
    if (backlog >= config_.send_window) break;
    if (cursor_ >= page_count()) {
      end_live_round();
      break;
    }
    const PageIndex p = cursor_;  // lambdas re-capture a mutable copy below
    PageIndex limit = pagemap.entry_run_end(p, page_count());
    const mem::PagemapEntry e = pagemap.entry(p);
    bool zero_run = false;
    if (e.present && source_mem_->zero_tracking()) {
      // Sub-split present runs on zero-content boundaries: an all-zero
      // stretch collapses into a descriptor batch. Gated on tracking so
      // default memories keep the O(1)-per-run scan. Swapped zero pages need
      // no elision — they already travel as 16-byte SWAPPED descriptors.
      zero_run = source_mem_->is_zero_page(p);
      PageIndex z = p + 1;
      while (z < limit && source_mem_->is_zero_page(z) == zero_run) ++z;
      limit = z;
    }
    // Full pages cost the copy loop; descriptor assembly is nearly free.
    const SimTime cost =
        e.present ? (zero_run ? config_.page_copy_cost : page_send_cost()) : 1;
    const Bytes item = e.present && !zero_run ? wire_page_bytes()
                                              : config_.descriptor_bytes;
    std::uint64_t n = limit - p;
    n = std::min(n, (static_cast<std::uint64_t>(budget) +
                     static_cast<std::uint64_t>(cost) - 1) /
                        static_cast<std::uint64_t>(cost));
    n = std::min(n, (config_.send_window - backlog + item - 1) / item);
    cursor_ = p + n;
    budget -= static_cast<SimTime>(n) * cost;
    if (e.swapped) {
      // The whole point: ship the 16-byte offsets, not the 4 KiB pages. The
      // slots are captured at scan time — the source drops a slot the moment
      // the guest writes to its page, but the descriptor on the wire keeps
      // the value the PTE held when it was read.
      for (PageIndex q = p; q < p + n; ++q) {
        slot_at_scan_[q] = static_cast<swap::SwapSlot>(pagemap.entry(q).swap_offset);
      }
      metrics_.pages_sent_descriptor += n;
      metrics_.bytes_transferred += n * config_.descriptor_bytes;
      Bitmap* installed = &installed_swapped_;
      const swap::SwapSlot* slots = slot_at_scan_.data();
      stream_->send_batch(n, config_.descriptor_bytes,
                          [dest, installed, slots, p = p](std::uint64_t k) mutable {
                            dest->install_swapped_batch(p, {slots + p, k});
                            installed->set_range(p, p + k);
                            p += k;
                          });
    } else if (!e.present || zero_run) {  // untouched or zero-elided pages
      metrics_.pages_sent_descriptor += n;
      metrics_.bytes_transferred += n * config_.descriptor_bytes;
      if (zero_run) metrics_.pages_zero_elided += n;
      stream_->send_batch(n, config_.descriptor_bytes,
                          [dest, p = p](std::uint64_t k) mutable {
                            for (std::uint64_t i = 0; i < k; ++i) {
                              dest->install_untouched(p++);
                            }
                          });
    } else {
      account_full_pages(n);
      host::Cluster* cluster = cluster_;
      stream_->send_batch(n, wire_page_bytes(),
                          [dest, p = p, cluster](std::uint64_t k) mutable {
                            dest->receive_overwrite_range(p, p + k,
                                                          cluster->tick_index());
                            p += k;
                          });
    }
  }
  return budget;
}

void AgileMigration::end_live_round() {
  metrics_.precopy_rounds = 1;
  begin_suspend();
  source_mem_->detach_dirty_log();
  // Snapshot the dirty set; nothing can dirty pages while suspended.
  dirty_ = dirty_log_;
  begin_owed(&dirty_);

  if (audit::enabled()) {
    // Every page was classified exactly once during the live round: the
    // cursor sweep visits each PTE once, so full-page and swap-offset
    // (descriptor) accounting must sum to exactly the guest size, and the
    // byte total must decompose into those two message classes.
    AGILE_CHECK_S(metrics_.pages_sent_full + metrics_.pages_sent_descriptor ==
                  page_count())
        << "live round classified " << metrics_.pages_sent_full << " full + "
        << metrics_.pages_sent_descriptor << " descriptor pages, guest has "
        << page_count();
    AGILE_CHECK_S(metrics_.bytes_transferred ==
                  metrics_.pages_sent_full * wire_page_bytes() +
                      metrics_.pages_sent_descriptor * config_.descriptor_bytes)
        << "live-round byte total does not decompose into page classes";
    dirty_.deep_audit();
  }

  const std::uint64_t owed = push_owed();
  AGILE_LOG_INFO("agile %s: live round done, %llu dirty pages owed post-flip",
                 params_.machine->name().c_str(),
                 static_cast<unsigned long long>(owed));
  AGILE_TRACE_SPAN_END("migration", "live_round", trace_id());
  AGILE_TRACE_SPAN_BEGIN("migration", "flip_wait", trace_id());
  AGILE_TRACE_INSTANT("migration", "round_dirty_left", trace_id(),
                      static_cast<double>(owed));

  // CPU state + the dirty bitmap travel behind every queued page message.
  // Fenced: with multiple streams the flip may not run until every lane has
  // drained the live-round copies queued before it.
  Bytes flip_bytes = config_.cpu_state_bytes + (page_count() + 7) / 8;
  metrics_.bytes_transferred += flip_bytes;
  stream_->send_fenced(flip_bytes, [this] {
    apply_dirty_invalidations();
    handoff_cold_slots();
    flip_to_push("flip_wait");
    phase_ = Phase::kPush;
    set_phase(3, "push");
    maybe_finish();  // a write-free live round leaves nothing owed
  });
  phase_ = Phase::kFlipWait;
  set_phase(2, "flip-wait");
}

void AgileMigration::apply_dirty_invalidations() {
  // Pages the source dirtied after their live-round copy went out are stale
  // at the destination. Descriptor-installed pages lost their slot when the
  // source wrote to them (swap-cache drop), so the destination must not free
  // those slots; pages it evicted itself own their slots. Dirty runs are
  // sub-split on slot-ownership boundaries so each sub-run invalidates with
  // a uniform free_slot policy.
  for (Bitmap::Run r = dirty_.next_set_run(0); !r.empty();
       r = dirty_.next_set_run(r.end)) {
    PageIndex p = r.begin;
    while (p < r.end) {
      const bool installed = installed_swapped_.test(p);
      PageIndex q = p + 1;
      while (q < r.end && installed_swapped_.test(q) == installed) ++q;
      dest_mem_->invalidate_range_to_remote(p, q, /*free_slot=*/!installed);
      p = q;
    }
  }
}

SimTime AgileMigration::handle_fault(PageIndex p, std::uint32_t tick) {
  // Only pages dirtied during the live round can still be kRemote at the
  // destination; cold pages were installed as locally-swapped and take the
  // ordinary swap-in path against the per-VM device.
  AGILE_CHECK_MSG(dirty_.test(p), "remote fault outside the dirty set");
  return serve_remote_fault(p, tick);
}

void AgileMigration::handoff_cold_slots() {
  // The source "disconnects" from the per-VM swap device here (paper §IV-B):
  // every slot the destination now references — the live cold set — stops
  // being the source's to manage, so a later guest write at the destination
  // can drop the swap copy without the source double-freeing it at teardown.
  // The source keeps managing only slots the destination never learned about
  // (its own swap-cache copies and post-scan re-evictions of dirty pages).
  std::uint64_t handed_over = 0;
  for (std::size_t p = installed_swapped_.find_next_set(0); p != Bitmap::npos;
       p = installed_swapped_.find_next_set(p + 1)) {
    if (dest_mem_->state(p) == mem::PageState::kSwapped) {
      source_mem_->forget_slot(p);
      ++handed_over;
    }
  }
  AGILE_LOG_INFO("agile %s: handed %llu cold-page slots to the destination",
                 params_.machine->name().c_str(),
                 static_cast<unsigned long long>(handed_over));
  AGILE_TRACE_INSTANT("migration", "slot_handoff", trace_id(),
                      static_cast<double>(handed_over));
}

void AgileMigration::maybe_finish() {
  if (phase_ != Phase::kPush || !push_drained()) return;
  phase_ = Phase::kDone;
  set_phase(4, "done");
  finish_push();
}

}  // namespace agile::migration
