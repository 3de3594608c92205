// Relaxed atomic counter cell for commutative cross-lane accumulation.
//
// Parallel event lanes (sim/lanes.hpp) let per-host work from different
// lanes touch a handful of shared integer accumulators concurrently — the
// stats registry's counters, gauges and histogram cells. All of those are
// *commutative sums*: the final value after a lane barrier is independent of
// interleaving, so relaxed atomics preserve byte-identical output while
// making the access race-free under TSan. The barrier's fork/join provides
// the ordering for every subsequent read.
//
// The cell is copyable/movable (value snapshot, like a plain integer) so it
// can live in vectors that grow, unlike a raw std::atomic.
//
// A counter that lanes may touch concurrently is never a plain integer. It
// is either this type — one shared atomic, fine where bumps are occasional
// (the stats cells, bumped per scrape or per control decision) — or, on a
// per-page path where every lane bumps it constantly, a util::LaneSums
// (util/lane_sums.hpp), whose per-lane rows keep the locked
// read-modify-write off a shared cache line. tools/lane_lint.py keeps a
// registry of such members with the type each must have (rule LL004); when
// adding a new cross-lane counter, add it to the registry in the same
// change.
#pragma once

#include <atomic>

namespace agile::util {

template <typename T>
class RelaxedCell {
 public:
  RelaxedCell() = default;
  // Implicit both ways: the cell stands in for a plain integer counter.
  RelaxedCell(T v) : v_(v) {}  // NOLINT(google-explicit-constructor)
  RelaxedCell(const RelaxedCell& o) : v_(o.load()) {}
  RelaxedCell& operator=(const RelaxedCell& o) {
    store(o.load());
    return *this;
  }
  RelaxedCell& operator=(T v) {
    store(v);
    return *this;
  }

  T load() const { return v_.load(std::memory_order_relaxed); }
  void store(T v) { v_.store(v, std::memory_order_relaxed); }
  void add(T d) { v_.fetch_add(d, std::memory_order_relaxed); }
  void sub(T d) { v_.fetch_sub(d, std::memory_order_relaxed); }

  operator T() const { return load(); }

 private:
  std::atomic<T> v_{};
};

}  // namespace agile::util
