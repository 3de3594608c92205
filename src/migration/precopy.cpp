#include "migration/precopy.hpp"

#include <algorithm>

#include "trace/trace.hpp"
#include "util/log.hpp"

namespace agile::migration {

void PrecopyMigration::on_tick(SimTime, SimTime dt, std::uint32_t tick) {
  if (phase_ == Phase::kInit) {
    dirty_.reset(page_count(), /*initial=*/true);  // round 1: everything
    next_dirty_.reset(page_count(), false);
    source_mem_->attach_dirty_log(&next_dirty_);
    round_ = 1;
    phase_ = Phase::kLive;
    set_phase(1, "live");
    AGILE_TRACE_SPAN_BEGIN("migration", "round", trace_id(), 1);
  }
  if (phase_ == Phase::kAwaitResume) return;  // CPU state in flight

  SimTime budget = take_budget(dt);
  if (budget <= 0) return;

  mem::GuestMemory* dest = dest_memory();
  while (budget > 0 &&
         (phase_ == Phase::kLive || phase_ == Phase::kStopCopy)) {
    const Bytes backlog = stream_->backlog();
    if (backlog >= config_.send_window) break;  // TCP window full
    Bitmap::Run run = dirty_.next_set_run(cursor_);
    if (run.empty()) {
      if (phase_ == Phase::kLive) {
        end_of_live_round();
      } else {
        start_stop_copy();  // stop-copy scan finished: ship CPU state
        break;
      }
      continue;
    }
    const PageIndex p = run.begin;
    const Stretch s = take_stretch(p, run.end, budget, backlog, tick);
    metrics_.pages_swapped_in_at_source += s.swap_ins;
    dirty_.clear_range(p, s.end);
    cursor_ = s.end;
    host::Cluster* cluster = cluster_;
    stream_->send_batch(
        s.end - p, s.full ? wire_page_bytes() : config_.descriptor_bytes,
        [dest, p = p, cluster, full = s.full](std::uint64_t k) mutable {
          if (full) {
            dest->receive_overwrite_range(p, p + k, cluster->tick_index());
          } else {
            dest->install_untouched_range(p, p + k);
          }
          p += k;
        });
  }
  carry_debt(budget);
}

void PrecopyMigration::end_of_live_round() {
  metrics_.precopy_rounds = round_;
  if (audit::enabled()) {
    // A round ends only when its scan cleared every dirty bit — each owed
    // page was classified (and sent) exactly once this round.
    AGILE_CHECK_S(dirty_.none())
        << "round " << round_ << " ended with " << dirty_.count()
        << " unvisited dirty pages";
    if (round_ == 1) {
      // Round 1 scans the whole guest: full + descriptor accounting must sum
      // to the guest size, and the byte total must decompose into the two
      // message classes.
      AGILE_CHECK_S(metrics_.pages_sent_full + metrics_.pages_sent_descriptor ==
                    page_count())
          << "round 1 classified " << metrics_.pages_sent_full << " full + "
          << metrics_.pages_sent_descriptor << " descriptor pages, guest has "
          << page_count();
      AGILE_CHECK_S(metrics_.bytes_transferred ==
                    metrics_.pages_sent_full * wire_page_bytes() +
                        metrics_.pages_sent_descriptor * config_.descriptor_bytes)
          << "round 1 byte total does not decompose into page classes";
    }
    next_dirty_.deep_audit();
  }
  std::uint64_t remaining = next_dirty_.count();
  AGILE_TRACE_SPAN_END("migration", "round", trace_id());
  AGILE_TRACE_INSTANT("migration", "round_dirty_left", trace_id(),
                      static_cast<double>(remaining));
  // Achievable stop-copy rate: the NIC pair, or — under a per-flow cap —
  // what `num_streams` parallel connections can carry together. Pages travel
  // at the compressed wire size. Defaults reduce to remaining * full page
  // size over the link rate, exactly the pre-multi-stream estimate.
  const net::Network& network = cluster_->network();
  double rate = std::min(network.link_bytes_per_sec(),
                         network.flow_bytes_per_sec() *
                             static_cast<double>(config_.num_streams));
  double est_seconds = static_cast<double>(remaining * wire_page_bytes()) / rate;
  bool converged = est_seconds * 1e6 <= static_cast<double>(config_.downtime_target);
  if (converged || round_ >= config_.max_rounds) {
    AGILE_LOG_INFO("pre-copy %s: round %u done, %llu dirty left -> stop-and-copy",
                   params_.machine->name().c_str(), round_,
                   static_cast<unsigned long long>(remaining));
    begin_suspend();
    source_mem_->detach_dirty_log();
    std::swap(dirty_, next_dirty_);
    next_dirty_.clear_all();
    cursor_ = 0;
    phase_ = Phase::kStopCopy;
    set_phase(2, "stop-copy");
    AGILE_TRACE_SPAN_BEGIN("migration", "stop_copy", trace_id());
    return;
  }
  ++round_;
  AGILE_TRACE_SPAN_BEGIN("migration", "round", trace_id(), round_);
  std::swap(dirty_, next_dirty_);
  next_dirty_.clear_all();
  cursor_ = 0;
}

void PrecopyMigration::start_stop_copy() {
  phase_ = Phase::kAwaitResume;
  set_phase(3, "await-resume");
  AGILE_TRACE_SPAN_END("migration", "stop_copy", trace_id());
  AGILE_TRACE_SPAN_BEGIN("migration", "await_resume", trace_id());
  metrics_.bytes_transferred += config_.cpu_state_bytes;
  stream_->send_fenced(config_.cpu_state_bytes, [this] {
    // The fence guarantees every lane drained everything queued before the
    // CPU state (with one stream: plain FIFO order), so the destination
    // memory is complete when this fires.
    complete_switchover(cluster_->tick_index());
    AGILE_TRACE_SPAN_END("migration", "await_resume", trace_id());
    finish();
  });
}

}  // namespace agile::migration
