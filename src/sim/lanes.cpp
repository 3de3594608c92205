#include "sim/lanes.hpp"

#include <algorithm>
#include <future>

namespace agile::sim {

namespace {

// Context of the lane event currently executing on this thread. Null coord
// means the thread is not inside a lane event (coordinator context).
struct LaneCtx {
  LaneCoordinator* coord = nullptr;
  std::size_t lane = 0;
  std::size_t channel = 0;
  SimTime time = 0;
  bool dirty = false;  ///< The event scheduled new lane-local work.
};
thread_local LaneCtx t_lane_ctx;

bool due_order(SimTime at, std::size_t ac, std::uint64_t as, SimTime bt,
               std::size_t bc, std::uint64_t bs) {
  if (at != bt) return at < bt;
  if (ac != bc) return ac < bc;
  return as < bs;
}

}  // namespace

LaneCoordinator::LaneCoordinator(Config config)
    : lanes_(config.lanes), pool_(config.pool) {
  AGILE_CHECK(lanes_ >= 1);
  if (lanes_ > 1) {
    AGILE_CHECK_MSG(pool_ != nullptr && pool_->worker_count() >= lanes_ - 1,
                    "lanes > 1 requires a pool of at least lanes-1 workers");
  }
  lane_runs_.resize(lanes_);
}

LaneCoordinator::~LaneCoordinator() = default;

void LaneCoordinator::ensure_channels(std::size_t count) {
  AGILE_CHECK(window_horizon_ < 0);
  while (channels_.size() < count) {
    Channel ch;
    ch.lane = static_cast<std::uint32_t>(channels_.size() % lanes_);
    channels_.push_back(std::move(ch));
  }
}

void LaneCoordinator::set_plan(const std::vector<std::uint32_t>& lane_of_channel) {
  AGILE_CHECK(window_horizon_ < 0);
  AGILE_CHECK_MSG(lane_of_channel.size() == channels_.size(),
                  "lane plan must cover every channel");
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    AGILE_CHECK(lane_of_channel[c] < lanes_);
    channels_[c].lane = lane_of_channel[c];
  }
}

void LaneCoordinator::set_thread_hooks(
    std::function<void(std::size_t)> enter,
    std::function<void(std::size_t)> exit) {
  // Lane threads invoke the hooks unsynchronized; swapping them mid-window
  // would race every running lane.
  AGILE_CHECK_MSG(window_horizon_ < 0,
                  "set_thread_hooks() inside a window races the lanes");
  enter_hook_ = std::move(enter);
  exit_hook_ = std::move(exit);
}

SimTime LaneCoordinator::thread_event_time(SimTime fallback) {
  return t_lane_ctx.coord != nullptr ? t_lane_ctx.time : fallback;
}

std::size_t LaneCoordinator::thread_lane(const LaneCoordinator* owner) {
  if (t_lane_ctx.coord == nullptr) return 0;
  AGILE_CHECK_MSG(t_lane_ctx.coord == owner,
                  "lane-sharded sum written from another coordinator's lane");
  AGILE_CHECK(t_lane_ctx.lane < owner->lanes_);
  return t_lane_ctx.lane;
}

void LaneCoordinator::push_channel_event(Channel& ch, SimTime t, EventFn fn) {
  ch.heap.push_back(LaneEvent{t, ch.next_seq++, std::move(fn)});
  std::push_heap(ch.heap.begin(), ch.heap.end(), LaneEventOrder{});
}

void LaneCoordinator::schedule(std::size_t channel, SimTime t, EventFn fn) {
  AGILE_CHECK(channel < channels_.size());
  Channel& target = channels_[channel];
  if (t_lane_ctx.coord == this) {
    // Lane-local scheduling from inside a running event: the target channel
    // must belong to the same lane (its heap is owned by this thread for the
    // duration of the window); cross-lane work must go through post().
    AGILE_CHECK_MSG(target.lane == channels_[t_lane_ctx.channel].lane,
                    "cross-lane schedule() from a lane event; use post()");
    AGILE_CHECK(t >= t_lane_ctx.time);
    push_channel_event(target, t, std::move(fn));
    if (t <= window_horizon_) t_lane_ctx.dirty = true;
    return;
  }
  AGILE_CHECK_MSG(window_horizon_ < 0,
                  "schedule() raced a window from a non-lane thread");
  AGILE_CHECK_MSG(t >= barrier_time_, "cannot schedule behind the barrier");
  push_channel_event(target, t, std::move(fn));
}

void LaneCoordinator::post(std::size_t channel, SimTime t, EventFn fn) {
  AGILE_CHECK(channel < channels_.size());
  if (t_lane_ctx.coord == this) {
    // Conservative lookahead: a message may not arrive before the horizon
    // the peer lanes were allowed to advance to.
    AGILE_CHECK_MSG(t >= window_horizon_,
                    "post() delivery before the window horizon violates "
                    "conservative lookahead");
    Channel& source = channels_[t_lane_ctx.channel];
    lane_runs_[t_lane_ctx.lane].outbox.push_back(
        MailboxEntry{t, t_lane_ctx.channel, source.next_post_seq++, channel,
                     std::move(fn)});
    return;
  }
  AGILE_CHECK_MSG(window_horizon_ < 0,
                  "post() raced a window from a non-lane thread");
  AGILE_CHECK_MSG(t >= barrier_time_, "cannot post behind the barrier");
  push_channel_event(channels_[channel], t, std::move(fn));
}

bool LaneCoordinator::collect_due(LaneRun& run, SimTime horizon,
                                  std::vector<DueEvent>& batch) {
  for (std::size_t c : run.channels) {
    Channel& ch = channels_[c];
    while (!ch.heap.empty() && ch.heap.front().time <= horizon) {
      std::pop_heap(ch.heap.begin(), ch.heap.end(), LaneEventOrder{});
      LaneEvent ev = std::move(ch.heap.back());
      ch.heap.pop_back();
      batch.push_back(DueEvent{ev.time, c, ev.seq, std::move(ev.fn)});
    }
  }
  if (batch.empty()) return false;
  std::sort(batch.begin(), batch.end(),
            [](const DueEvent& a, const DueEvent& b) {
              return due_order(a.time, a.channel, a.seq, b.time, b.channel,
                               b.seq);
            });
  return true;
}

void LaneCoordinator::run_lane(std::size_t lane, SimTime horizon,
                               bool buffer_effects) {
  LaneRun& run = lane_runs_[lane];
  std::vector<DueEvent> batch;
  if (!collect_due(run, horizon, batch)) return;

  if (enter_hook_) enter_hook_(lane);
  trace::TraceRecorder* prev_recorder = nullptr;
  if (buffer_effects) {
    if (!run.recorder) run.recorder = std::make_unique<trace::TraceRecorder>();
    prev_recorder = trace::set_recorder(run.recorder.get());
  }

  LaneCtx saved = t_lane_ctx;
  std::size_t i = 0;
  while (i < batch.size()) {
    DueEvent& ev = batch[i];
    t_lane_ctx = LaneCtx{this, lane, ev.channel, ev.time, false};
    std::size_t rec_begin =
        buffer_effects ? run.recorder->event_count() : 0;
    ev.fn();
    if (buffer_effects && run.recorder->event_count() > rec_begin) {
      run.segments.push_back(TraceSegment{ev.time, ev.channel, ev.seq,
                                          rec_begin,
                                          run.recorder->event_count(), lane});
    }
    ++run.executed;
    ++i;
    if (t_lane_ctx.dirty) {
      // The event scheduled lane-local work that may still be due in this
      // window: merge the newly due events into the remaining batch so the
      // (time, channel, seq) execution order stays exact.
      std::vector<DueEvent> remaining(std::make_move_iterator(batch.begin() +
                                                              static_cast<std::ptrdiff_t>(i)),
                                      std::make_move_iterator(batch.end()));
      batch.erase(batch.begin() + static_cast<std::ptrdiff_t>(i), batch.end());
      collect_due(run, horizon, remaining);
      std::sort(remaining.begin(), remaining.end(),
                [](const DueEvent& a, const DueEvent& b) {
                  return due_order(a.time, a.channel, a.seq, b.time, b.channel,
                                   b.seq);
                });
      for (DueEvent& r : remaining) batch.push_back(std::move(r));
    }
  }
  t_lane_ctx = saved;

  if (buffer_effects) trace::set_recorder(prev_recorder);
  if (exit_hook_) exit_hook_(lane);
}

void LaneCoordinator::drain_mailbox(SimTime horizon) {
  std::vector<MailboxEntry> inbox;
  for (LaneRun& run : lane_runs_) {
    for (MailboxEntry& e : run.outbox) inbox.push_back(std::move(e));
    run.outbox.clear();
  }
  if (inbox.empty()) return;
  std::sort(inbox.begin(), inbox.end(),
            [](const MailboxEntry& a, const MailboxEntry& b) {
              return due_order(a.time, a.source, a.seq, b.time, b.source,
                               b.seq);
            });
  for (MailboxEntry& e : inbox) {
    AGILE_CHECK(e.time >= horizon);
    push_channel_event(channels_[e.target], e.time, std::move(e.fn));
  }
}

void LaneCoordinator::advance_to(SimTime horizon) {
  AGILE_CHECK_MSG(horizon >= barrier_time_,
                  "lane horizon must not move backwards");
  AGILE_CHECK_MSG(window_horizon_ < 0, "advance_to() is not reentrant");

  bool any_due = false;
  for (const Channel& ch : channels_) {
    if (!ch.heap.empty() && ch.heap.front().time <= horizon) {
      any_due = true;
      break;
    }
  }
  if (!any_due) {
    barrier_time_ = horizon;
    return;
  }

  window_horizon_ = horizon;
  for (LaneRun& run : lane_runs_) {
    run.channels.clear();
    run.segments.clear();
    run.executed = 0;
    if (run.recorder) run.recorder->clear();
  }

  const bool parallel = lanes_ > 1 && pool_ != nullptr;
  if (!parallel) {
    // Sequential fallback: one merged pass over every channel — the merge
    // loop *is* the (time, channel, seq) contract, with effects applied
    // directly (no buffering).
    LaneRun& run = lane_runs_[0];
    for (std::size_t c = 0; c < channels_.size(); ++c) {
      run.channels.push_back(c);
    }
    run_lane(0, horizon, /*buffer_effects=*/false);
  } else {
    for (std::size_t c = 0; c < channels_.size(); ++c) {
      lane_runs_[channels_[c].lane].channels.push_back(c);
    }
    trace::TraceRecorder* main_recorder = trace::recorder();
    const bool buffer = main_recorder != nullptr;

    // Fork: lanes with due work run concurrently — the first busy lane
    // inline on this thread, the rest on the pool. future::get() is the
    // barrier (and the happens-before edge for every lane's effects).
    std::vector<std::size_t> busy;
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      bool has_due = false;
      for (std::size_t c : lane_runs_[lane].channels) {
        const Channel& ch = channels_[c];
        if (!ch.heap.empty() && ch.heap.front().time <= horizon) {
          has_due = true;
          break;
        }
      }
      if (has_due) busy.push_back(lane);
    }
    std::vector<std::future<void>> joins;
    joins.reserve(busy.size());
    for (std::size_t i = 1; i < busy.size(); ++i) {
      std::size_t lane = busy[i];
      joins.push_back(pool_->submit(
          [this, lane, horizon, buffer] { run_lane(lane, horizon, buffer); }));
    }
    if (!busy.empty()) run_lane(busy[0], horizon, buffer);
    for (std::future<void>& j : joins) j.get();

    // Merge buffered trace effects in (time, channel, seq) order — exactly
    // the order the sequential fallback would have recorded them in.
    if (buffer) {
      std::vector<TraceSegment> segments;
      for (const LaneRun& run : lane_runs_) {
        segments.insert(segments.end(), run.segments.begin(),
                        run.segments.end());
      }
      std::sort(segments.begin(), segments.end(),
                [](const TraceSegment& a, const TraceSegment& b) {
                  return due_order(a.time, a.channel, a.seq, b.time, b.channel,
                                   b.seq);
                });
      for (const TraceSegment& seg : segments) {
        main_recorder->append_events(*lane_runs_[seg.lane].recorder, seg.begin,
                                     seg.end);
      }
      for (const LaneRun& run : lane_runs_) {
        if (run.recorder) main_recorder->merge_entity_names(*run.recorder);
      }
    }
  }

  for (const LaneRun& run : lane_runs_) events_executed_ += run.executed;
  if (audit::enabled()) {
    // Post-window invariant: every event at or before the horizon ran; only
    // future work (and, after the drain below, mailbox deliveries at exactly
    // the horizon) may remain queued.
    for (const Channel& ch : channels_) {
      AGILE_CHECK(ch.heap.empty() || ch.heap.front().time > horizon);
    }
  }
  drain_mailbox(horizon);
  window_horizon_ = -1;
  barrier_time_ = horizon;
}

SimTime LaneCoordinator::next_event_time() const {
  // Between-windows only: during a window the heaps belong to the lane
  // threads, and this coordinator-side sweep would race their pops.
  AGILE_CHECK_MSG(window_horizon_ < 0,
                  "next_event_time() inside a window races the lanes");
  SimTime best = -1;
  for (const Channel& ch : channels_) {
    if (ch.heap.empty()) continue;
    if (best < 0 || ch.heap.front().time < best) best = ch.heap.front().time;
  }
  return best;
}

std::size_t LaneCoordinator::pending_events() const {
  AGILE_CHECK_MSG(window_horizon_ < 0,
                  "pending_events() inside a window races the lanes");
  std::size_t n = 0;
  for (const Channel& ch : channels_) n += ch.heap.size();
  return n;
}

}  // namespace agile::sim
