#include "migration/postcopy.hpp"

#include "trace/trace.hpp"
#include "util/log.hpp"

namespace agile::migration {

void PostcopyEngine::begin_owed(const Bitmap* owed) {
  owed_ = owed;
  received_.reset(page_count(), false);
  push_cursor_ = 0;
  if (owed == nullptr) {
    sent_.reset(page_count(), false);
    owed_total_ = page_count();
  } else {
    // Pre-mark pages that are not owed as sent, so the push sweep only
    // visits the owed set.
    sent_.reset(page_count(), true);
    for (Bitmap::Run r = owed->next_set_run(0); !r.empty();
         r = owed->next_set_run(r.end)) {
      sent_.clear_range(r.begin, r.end);
    }
    owed_total_ = owed->count();
  }
  if (audit::enabled()) sent_.deep_audit();
}

void PostcopyEngine::flip_to_push(const char* flip_span) {
  complete_switchover(cluster_->tick_index());
  AGILE_TRACE_SPAN_END("migration", flip_span, trace_id());
  AGILE_TRACE_SPAN_BEGIN("migration", "push", trace_id());
  route_remote_faults([this](PageIndex p, bool, std::uint32_t t) {
    return handle_fault(p, t);
  });
}

SimTime PostcopyEngine::push_runs(SimTime budget, std::uint32_t tick,
                                  std::uint64_t& swap_ins) {
  while (budget > 0) {
    const Bytes backlog = stream_->backlog();
    if (backlog >= config_.send_window) break;
    // Every page not owed is pre-marked sent, so a clear run is a run of
    // owed pages still to push.
    const Bitmap::Run run = sent_.next_clear_run(push_cursor_);
    if (run.empty()) break;  // all enqueued; finish fires on delivery
    const PageIndex p = run.begin;
    const Stretch s = take_stretch(p, run.end, budget, backlog, tick);
    swap_ins += s.swap_ins;
    sent_.set_range(p, s.end);
    push_cursor_ = s.end;
    stream_->send_batch(s.end - p,
                        s.full ? wire_page_bytes() : config_.descriptor_bytes,
                        [this, p = p](std::uint64_t k) mutable {
                          for (std::uint64_t i = 0; i < k; ++i) {
                            deliver_pushed(p++);
                          }
                        });
  }
  return budget;
}

void PostcopyEngine::deliver_pushed(PageIndex p) {
  AGILE_DCHECK(owed_ == nullptr || owed_->test(p))
      << "push delivered page " << p << " outside the owed set";
  if (received_.test(p)) {
    // A demand fault overtook this pushed copy; the receiver discards it.
    ++metrics_.duplicate_pages;
  } else {
    received_.set(p);
    // Untouched and zero-elided pages both install as the canonical zero
    // page; the source still holds `p` here (release below), so the zero
    // mark is readable and stable (the source is suspended post-flip).
    if (source_mem_->state(p) == mem::PageState::kUntouched || zero_elidable(p)) {
      dest_mem_->install_untouched(p);
    } else {
      dest_mem_->install_resident(p, cluster_->tick_index());
    }
  }
  source_mem_->release_page(p);  // progressive source memory relief
  maybe_finish();
}

SimTime PostcopyEngine::serve_remote_fault(PageIndex p, std::uint32_t tick) {
  AGILE_CHECK(!received_.test(p));
  SimTime latency = config_.fault_overhead;
  mem::PageState st = source_mem_->state(p);
  AGILE_CHECK_MSG(st != mem::PageState::kRemote, "fault on a released page");
  const bool zero = zero_elidable(p);  // answered by descriptor, no data read
  if (st == mem::PageState::kSwapped && !zero) {
    // A memory-constrained source must read the page off its swap device
    // before it can answer — the paper's post-copy degradation mechanism.
    latency += source_mem_->swap_in_for_transfer(p, tick, /*sequential=*/false);
    st = mem::PageState::kResident;
  }
  if (st == mem::PageState::kUntouched || zero) {
    latency += fault_rpc(config_.descriptor_bytes);
    if (zero) ++metrics_.pages_zero_elided;
    dest_mem_->install_untouched(p);
  } else {
    latency += fault_rpc(full_page_bytes());
    dest_mem_->install_resident(p, tick);
  }
  sent_.set(p);
  received_.set(p);
  ++metrics_.pages_demand_served;
  AGILE_TRACE_INSTANT("migration", "demand_fault", trace_id(),
                      static_cast<double>(p));
  AGILE_LOG_EVERY_N(kDebug, 1000, "%s %s: %llu demand faults served",
                    technique(), params_.machine->name().c_str(),
                    static_cast<unsigned long long>(metrics_.pages_demand_served));
  source_mem_->release_page(p);
  maybe_finish();
  return latency;
}

void PostcopyEngine::finish_push() {
  if (audit::enabled()) {
    // Completion implies the owed set drained exactly: every page is marked
    // sent and every received page was owed.
    AGILE_CHECK_S(sent_.count() == page_count())
        << "finishing with " << page_count() - sent_.count() << " unsent pages";
    received_.deep_audit();
  }
  AGILE_TRACE_SPAN_END("migration", "push", trace_id());
  finish();
}

void PostcopyMigration::on_tick(SimTime, SimTime dt, std::uint32_t tick) {
  if (phase_ == Phase::kInit) {
    // "Upon beginning the migration, the VM is immediately suspended."
    begin_owed(nullptr);
    begin_suspend();
    AGILE_TRACE_SPAN_BEGIN("migration", "flip", trace_id());
    metrics_.bytes_transferred += config_.cpu_state_bytes;
    // Fenced for uniformity: the CPU state is the first message of the
    // migration, so the fence is trivially satisfied on delivery.
    stream_->send_fenced(config_.cpu_state_bytes, [this] {
      flip_to_push("flip");
      phase_ = Phase::kPush;
      set_phase(2, "push");
    });
    phase_ = Phase::kFlipWait;
    set_phase(1, "flip-wait");
    return;
  }
  if (phase_ != Phase::kPush) return;

  const SimTime budget = take_budget(dt);
  if (budget <= 0) return;
  carry_debt(push_runs(budget, tick, metrics_.pages_swapped_in_at_source));
}

void PostcopyMigration::maybe_finish() {
  if (phase_ == Phase::kDone || !push_drained()) return;
  if (audit::enabled()) {
    // Every page reached the destination exactly once, counting the push /
    // demand-fault race explicitly: pushes + demand serves = guest size +
    // duplicates (a duplicate is a page that travelled both ways).
    AGILE_CHECK_S(metrics_.pages_sent_full + metrics_.pages_sent_descriptor +
                      metrics_.pages_demand_served ==
                  page_count() + metrics_.duplicate_pages)
        << "page classification does not cover the guest exactly once: full "
        << metrics_.pages_sent_full << " + desc "
        << metrics_.pages_sent_descriptor << " + demand "
        << metrics_.pages_demand_served << " vs " << page_count() << " + dup "
        << metrics_.duplicate_pages;
  }
  phase_ = Phase::kDone;
  set_phase(3, "done");
  finish_push();
}

}  // namespace agile::migration
