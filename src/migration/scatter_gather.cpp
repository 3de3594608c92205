#include "migration/scatter_gather.hpp"

#include <vector>

#include "trace/trace.hpp"
#include "util/log.hpp"

namespace agile::migration {

ScatterGatherMigration::ScatterGatherMigration(host::Cluster* cluster,
                                               MigrationParams params,
                                               MigrationConfig config)
    : MigrationManager(cluster, params, config) {
  AGILE_CHECK_MSG(params.dest_swap == params.machine->memory().swap_device(),
                  "scatter-gather needs the portable per-VM swap device");
}

void ScatterGatherMigration::on_tick(SimTime now, SimTime dt,
                                     std::uint32_t tick) {
  if (phase_ == Phase::kInit) {
    handled_.reset(page_count(), false);
    scattered_slot_.assign(page_count(), swap::kNoSlot);
    begin_suspend();
    AGILE_TRACE_SPAN_BEGIN("migration", "flip_wait", trace_id());
    metrics_.bytes_transferred += config_.cpu_state_bytes;
    // Fenced for uniformity: the CPU state is the first message of the
    // migration, so the fence is trivially satisfied on delivery.
    stream_->send_fenced(config_.cpu_state_bytes, [this] {
      complete_switchover(cluster_->tick_index());
      AGILE_TRACE_SPAN_END("migration", "flip_wait", trace_id());
      AGILE_TRACE_SPAN_BEGIN("migration", "scatter", trace_id());
      route_remote_faults([this](PageIndex p, bool write, std::uint32_t t) {
        return handle_fault(p, write, t);
      });
      phase_ = Phase::kScatter;
      set_phase(2, "scatter");
    });
    phase_ = Phase::kFlipWait;
    set_phase(1, "flip-wait");
    return;
  }
  if (phase_ == Phase::kFlipWait || phase_ == Phase::kDone) return;

  if (phase_ == Phase::kGatherOnly) maybe_finish_scatter();
  if (phase_ == Phase::kDone) return;

  if (phase_ == Phase::kScatter) {
    SimTime budget = take_budget(dt);
    if (budget > 0) {
      // Scatter near NIC line rate: evicting a page moves it over the
      // network to an intermediate host, so pace by bytes per quantum —
      // leaving headroom so the descriptor stream to the destination is not
      // starved by our own background traffic.
      double byte_budget = cluster_->network().link_bytes_per_sec() *
                           to_seconds(dt) * 0.9;
      while (budget > 0 && byte_budget > 0) {
        const Bytes backlog = stream_->backlog();
        if (backlog >= config_.send_window) break;
        Bitmap::Run run = handled_.next_clear_run(scatter_cursor_);
        if (run.empty()) {
          maybe_finish_scatter();
          break;
        }
        // The per-page source work (targeted eviction, slot handoff,
        // release) is inherently page-at-a-time, but every wire message is
        // an identical 16-byte descriptor: accumulate the run's worth and
        // flush one batch. The window check counts descriptors not yet
        // offered to the flow.
        const PageIndex p = run.begin;
        PageIndex q = p;
        std::uint64_t n = 0;
        while (q < run.end && budget > 0 && byte_budget > 0 &&
               backlog + n * config_.descriptor_bytes < config_.send_window) {
          Bytes before = metrics_.bytes_scattered;
          budget -= scatter_work(q, tick);
          // Pace by what actually hit the network: evictions cost a page,
          // descriptor-only pages (already in the VMD / untouched) only
          // their 16-byte message.
          byte_budget -= static_cast<double>(metrics_.bytes_scattered -
                                             before + config_.descriptor_bytes);
          ++n;
          ++q;
        }
        scatter_cursor_ = q;
        metrics_.pages_sent_descriptor += n;
        metrics_.bytes_transferred += n * config_.descriptor_bytes;
        stream_->send_batch(n, config_.descriptor_bytes,
                            [this, p = p](std::uint64_t k) mutable {
                              for (std::uint64_t i = 0; i < k; ++i) {
                                descriptor_delivered(p++);
                              }
                            });
      }
      carry_debt(budget);
    }
  }
  gather(dt, tick);
  (void)now;
}

SimTime ScatterGatherMigration::scatter_work(PageIndex p, std::uint32_t tick) {
  (void)tick;
  mem::PageState st = source_mem_->state(p);
  AGILE_CHECK_MSG(st != mem::PageState::kRemote, "scattering a released page");
  handled_.set(p);
  SimTime spent = config_.page_copy_cost;
  swap::SwapSlot slot = swap::kNoSlot;
  if (st != mem::PageState::kUntouched && zero_elidable(p)) {
    // All-zero content: the descriptor says "untouched" (slot stays kNoSlot)
    // and the destination installs the canonical zero page. Resident zero
    // pages skip the eviction entirely; swapped ones keep their VMD slot at
    // the source, which frees it at teardown — the destination never learns
    // about it.
    ++metrics_.pages_zero_elided;
    scattered_slot_[p] = swap::kNoSlot;
    source_mem_->release_page(p);
    return spent;
  }
  switch (st) {
    case mem::PageState::kResident: {
      // Targeted eviction: the page travels source -> intermediary (free if
      // a clean swap copy already exists there).
      bool had_copy = source_mem_->swap_slot(p) != swap::kNoSlot;
      source_mem_->evict_page(p);
      if (!had_copy) metrics_.bytes_scattered += kPageSize;
      slot = source_mem_->swap_slot(p);
      break;
    }
    case mem::PageState::kSwapped:
      // Already on the portable device: only the descriptor moves.
      slot = source_mem_->swap_slot(p);
      break;
    case mem::PageState::kUntouched:
    case mem::PageState::kRemote:
      break;
  }
  scattered_slot_[p] = slot;
  if (st == mem::PageState::kSwapped || st == mem::PageState::kResident) {
    // Ownership passes to the destination now; the source must not free the
    // slot at teardown.
    source_mem_->forget_slot(p);
  }
  if (source_mem_->state(p) != mem::PageState::kRemote) {
    source_mem_->release_page(p);
  }
  return spent;
}

void ScatterGatherMigration::descriptor_delivered(PageIndex p) {
  // `scattered_slot_[p]` was fixed when the page was scattered (handled_ is
  // already set, so a later fault cannot rewrite it) — reading it here is
  // equivalent to the descriptor carrying the slot on the wire.
  if (dest_mem_->state(p) != mem::PageState::kRemote) return;  // fault overtook us
  if (scattered_slot_[p] == swap::kNoSlot) {
    dest_mem_->install_untouched(p);
  } else {
    dest_mem_->install_swapped(p, scattered_slot_[p]);
  }
}

void ScatterGatherMigration::gather(SimTime dt, std::uint32_t tick) {
  // Background prefetch out of the VMD into destination memory, up to the
  // reservation and a bandwidth share (it competes with the scatter stream
  // at the intermediaries, which the network model accounts for).
  double byte_budget =
      cluster_->network().link_bytes_per_sec() * to_seconds(dt) * 0.5;
  mem::GuestMemory* dest = dest_mem_;
  const std::uint64_t gathered_before = pages_gathered_;
  while (byte_budget > 0) {
    if (dest->resident_pages() + 1 > dest->reservation_pages()) break;
    // Next gatherable page (installed as swapped at the dest): word-scan the
    // destination's swapped bitmap instead of walking the state array.
    std::size_t candidate = dest->swapped_bitmap().find_next_set(gather_cursor_);
    if (candidate == Bitmap::npos) break;
    gather_cursor_ = candidate + 1;
    dest->swap_in_for_transfer(candidate, tick);
    ++pages_gathered_;
    byte_budget -= kPageSize;
  }
  if (pages_gathered_ != gathered_before) {
    AGILE_TRACE_COUNTER("migration", "gathered_pages", trace_id(),
                        pages_gathered_);
  }
}

SimTime ScatterGatherMigration::handle_fault(PageIndex p, bool,
                                             std::uint32_t tick) {
  SimTime latency = config_.fault_overhead;
  if (handled_.test(p)) {
    // Scattered, descriptor still in flight: resolve from the slot table; the
    // subsequent touch() pays the actual VMD read.
    descriptor_delivered(p);
    return latency;
  }
  // Source still authoritative for this page.
  handled_.set(p);
  mem::PageState st = source_mem_->state(p);
  AGILE_CHECK(st != mem::PageState::kRemote);
  if (st != mem::PageState::kUntouched && zero_elidable(p)) {
    // Zero content resolves like an untouched page: descriptor-only, no data
    // read. The source keeps any VMD slot it still holds (freed at teardown).
    ++metrics_.pages_zero_elided;
    st = mem::PageState::kUntouched;
  }
  switch (st) {
    case mem::PageState::kUntouched:
      scattered_slot_[p] = swap::kNoSlot;
      dest_mem_->install_untouched(p);
      break;
    case mem::PageState::kSwapped:
      // Point the destination at the existing VMD copy.
      scattered_slot_[p] = source_mem_->swap_slot(p);
      dest_mem_->install_swapped(p, scattered_slot_[p]);
      source_mem_->forget_slot(p);
      break;
    case mem::PageState::kResident:
      latency += fault_rpc(full_page_bytes());
      ++metrics_.pages_demand_served;
      AGILE_TRACE_INSTANT("migration", "demand_fault", trace_id(),
                          static_cast<double>(p));
      dest_mem_->install_resident(p, tick);
      break;
    case mem::PageState::kRemote:
      break;  // unreachable
  }
  if (source_mem_->state(p) != mem::PageState::kRemote) {
    source_mem_->release_page(p);
  }
  maybe_finish_scatter();
  return latency;
}

void ScatterGatherMigration::maybe_finish_scatter() {
  if (phase_ == Phase::kDone) return;
  if (handled_.count() != page_count() || !stream_->idle()) {
    if (handled_.count() == page_count() && !stream_->idle() &&
        phase_ == Phase::kScatter) {
      phase_ = Phase::kGatherOnly;
      set_phase(3, "gather");  // descriptors still draining
      AGILE_TRACE_SPAN_END("migration", "scatter", trace_id());
      AGILE_TRACE_SPAN_BEGIN("migration", "drain", trace_id());
    }
    return;
  }
  if (audit::enabled()) {
    // Scatter completion: every page was handled exactly once (scattered or
    // demand-resolved), and only handled pages can carry a slot descriptor.
    AGILE_CHECK_S(metrics_.pages_sent_descriptor <= page_count())
        << "more descriptors (" << metrics_.pages_sent_descriptor
        << ") than guest pages";
    handled_.deep_audit();
  }
  AGILE_TRACE_SPAN_END(
      "migration", phase_ == Phase::kGatherOnly ? "drain" : "scatter",
      trace_id());
  phase_ = Phase::kDone;
  set_phase(4, "done");
  scatter_done_ = cluster_->simulation().now();
  AGILE_LOG_INFO("scatter-gather %s: source deprovisioned in %.1f s "
                 "(%.0f MiB scattered, %llu gathered so far)",
                 params_.machine->name().c_str(),
                 to_seconds(scatter_done_ - metrics_.start_time),
                 to_mib(metrics_.bytes_scattered),
                 static_cast<unsigned long long>(pages_gathered_));
  finish();
}

}  // namespace agile::migration
