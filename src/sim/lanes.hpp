// Sharded event lanes: conservative parallel intra-scenario execution.
//
// A `LaneCoordinator` shards per-host (lane-local) work out of the global
// `Simulation` heap. It owns one event queue per *channel* (channel = host
// in the cluster; tests may use arbitrary channels) and a deterministic
// channel→lane plan. Between two coordinator events the driver opens a
// *window*: `advance_to(H)` runs every lane event with `time <= H`, lanes in
// parallel on a `util::ThreadPool`, then barriers and drains the inter-lane
// mailbox. `H` is the conservative lookahead horizon — in the cluster it is
// the next coordinator event time (usually the network quantum edge), i.e.
// the earliest instant at which cross-lane state can legally interact.
//
// Determinism contract (what makes output byte-identical at any lane count):
//  * Lane events execute, and their buffered effects merge, in
//    (time, channel, seq) order — exactly the order the sequential fallback
//    uses. `seq` is a per-channel monotonic counter.
//  * Cross-channel sends from inside a running lane event must go through
//    `post` and carry a delivery time >= the window horizon (conservative
//    lookahead; violating it aborts). Posts are drained at the barrier in
//    (time, source-channel, per-source seq) order and only then inserted
//    into the target channels, so insertion order — and therefore execution
//    order next window — is independent of lane interleaving.
//  * Trace events recorded during a window land in per-lane buffers and are
//    re-emitted into the main recorder at the barrier, segment by segment in
//    (time, channel, seq) order of the emitting event: byte-identical to the
//    sequential recording order.
//
// With `lanes == 1` (or no pool) everything runs inline on the calling
// thread in the same (time, channel, seq) order, with no buffering — the
// sequential fallback is literally the merge loop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulation.hpp"
#include "trace/trace.hpp"
#include "util/thread_pool.hpp"

namespace agile::sim {

class LaneCoordinator {
 public:
  struct Config {
    std::size_t lanes = 1;
    /// Required when lanes > 1. The coordinator runs one busy lane inline,
    /// so a pool of `lanes - 1` workers saturates `lanes` cores.
    util::ThreadPool* pool = nullptr;
  };

  explicit LaneCoordinator(Config config);
  ~LaneCoordinator();

  LaneCoordinator(const LaneCoordinator&) = delete;
  LaneCoordinator& operator=(const LaneCoordinator&) = delete;

  std::size_t lane_count() const { return lanes_; }
  std::size_t channel_count() const { return channels_.size(); }

  /// Grows the channel set (new channels default to lane `index % lanes`).
  /// Only callable between windows.
  void ensure_channels(std::size_t count);

  /// Installs the channel→lane plan for subsequent windows. Must cover every
  /// channel with values < lane_count(). Only callable between windows.
  void set_plan(const std::vector<std::uint32_t>& lane_of_channel);

  /// Schedules `fn` on `channel` at absolute time `t`. From the coordinator
  /// (between windows): `t` must be >= the last barrier time. From inside a
  /// running lane event: only channels of the *same* lane may be targeted
  /// (lane-local scheduling), with `t` >= the running event's time; anything
  /// cross-lane must use `post`.
  void schedule(std::size_t channel, SimTime t, EventFn fn);

  /// Cross-channel send. From inside a window the delivery time must be >=
  /// the window horizon (conservative lookahead — enforced); the entry is
  /// buffered and drained at the barrier in (time, source-channel, seq)
  /// order. From the coordinator between windows this is `schedule`.
  void post(std::size_t channel, SimTime t, EventFn fn);

  /// Runs every lane event with time <= `horizon` (lanes in parallel when a
  /// pool is configured), barriers, then drains the mailbox. `horizon` must
  /// be monotonically non-decreasing across calls.
  void advance_to(SimTime horizon);

  /// Earliest pending lane event time over all channels, or -1 when idle.
  /// Only callable between windows (checked): during a window the channel
  /// heaps belong to their lane threads and a coordinator-side sweep would
  /// race them.
  SimTime next_event_time() const;
  /// Total queued lane events; between windows only (checked), like
  /// next_event_time().
  std::size_t pending_events() const;
  std::uint64_t events_executed() const { return events_executed_; }
  SimTime barrier_time() const { return barrier_time_; }

  /// Per-lane-execution thread environment (e.g. the cluster installs its
  /// simulation as the thread's time source). `enter` runs on the executing
  /// thread before a lane's first event of a window, `exit` after its last.
  /// Only callable between windows (checked): lane threads read the hooks
  /// unsynchronized, which is safe precisely because the coordinator never
  /// swaps them while a window is open.
  void set_thread_hooks(std::function<void(std::size_t lane)> enter,
                        std::function<void(std::size_t lane)> exit);

  /// Time of the lane event currently executing on this thread, or
  /// `fallback` when the calling thread is not inside a lane event. Lets a
  /// cluster-level time source stamp lane-event effects with the event's own
  /// time rather than the coordinator clock.
  static SimTime thread_event_time(SimTime fallback);

  /// Row of a lane-sharded sum (util::LaneSums) the calling thread may
  /// write: the lane of the lane event running on this thread, or 0 in
  /// coordinator context (no lane event running — between windows, or a
  /// cluster without lanes). `owner` is the coordinator the sum's rows were
  /// shaped for (null when its cluster runs sequentially); a lane event of
  /// any other coordinator aborts, as does a lane beyond `owner`'s count.
  static std::size_t thread_lane(const LaneCoordinator* owner);

 private:
  struct LaneEvent {
    SimTime time;
    std::uint64_t seq;  ///< Per-channel monotonic.
    EventFn fn;
  };
  struct LaneEventOrder {
    // Max-heap comparator: earliest (time, seq) at the root.
    bool operator()(const LaneEvent& a, const LaneEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Channel {
    std::vector<LaneEvent> heap;
    std::uint64_t next_seq = 0;       ///< Orders events within the channel.
    std::uint64_t next_post_seq = 0;  ///< Orders this channel's posts.
    std::uint32_t lane = 0;
  };
  /// One due event lifted out of its channel heap for window execution.
  struct DueEvent {
    SimTime time;
    std::size_t channel;
    std::uint64_t seq;
    EventFn fn;
  };
  struct MailboxEntry {
    SimTime time;
    std::size_t source;
    std::uint64_t seq;
    std::size_t target;
    EventFn fn;
  };
  /// Trace span of one lane event inside a lane's window recorder.
  struct TraceSegment {
    SimTime time;
    std::size_t channel;
    std::uint64_t seq;
    std::size_t begin;
    std::size_t end;
    std::size_t lane;
  };
  /// Everything one lane produces during a window.
  struct LaneRun {
    std::vector<std::size_t> channels;  ///< Channels assigned to this lane.
    std::vector<MailboxEntry> outbox;
    std::vector<TraceSegment> segments;
    std::unique_ptr<trace::TraceRecorder> recorder;  ///< Lazily created.
    std::uint64_t executed = 0;
  };

  void push_channel_event(Channel& ch, SimTime t, EventFn fn);
  /// Pops every event with time <= horizon from the lane's channels into a
  /// (time, channel, seq)-sorted batch. Returns false when none were due.
  bool collect_due(LaneRun& run, SimTime horizon, std::vector<DueEvent>& batch);
  void run_lane(std::size_t lane, SimTime horizon, bool buffer_effects);
  void drain_mailbox(SimTime horizon);

  // Concurrency contract (see DESIGN.md "Concurrency contract"): nothing
  // here is mutex-guarded because nothing is ever *shared* mutably —
  // ownership moves with the window fork/join instead.
  //  * channels_[c] is lane-confined: during a window, only the thread
  //    running lane `channels_[c].lane` touches its heap; between windows
  //    only the coordinator thread does. The pool's submit/join pair is the
  //    happens-before edge at each ownership transfer.
  //  * lane_runs_[l] (outbox, trace buffer, executed) is written only by
  //    lane `l`'s thread during a window and only by the coordinator at the
  //    barrier.
  //  * window_horizon_ / barrier_time_ / hooks are written by the
  //    coordinator strictly outside windows; lane threads read them inside a
  //    window, after the fork edge.
  //  * events_executed_ is coordinator-only.
  // tools/lane_lint.py checks the call-site side of this contract (no
  // cross-lane Simulation::schedule_*, no raw Simulation*/TraceRecorder*
  // captured into pool tasks); the AGILE_CHECKs in lanes.cpp enforce the
  // window-state transitions at runtime.
  std::size_t lanes_;
  util::ThreadPool* pool_;
  std::vector<Channel> channels_;
  std::vector<LaneRun> lane_runs_;
  std::function<void(std::size_t)> enter_hook_;
  std::function<void(std::size_t)> exit_hook_;
  SimTime barrier_time_ = 0;
  SimTime window_horizon_ = -1;  ///< -1 outside a window.
  std::uint64_t events_executed_ = 0;
};

}  // namespace agile::sim
