#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <vector>

#include "util/bitmap.hpp"
#include "util/lane_sums.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/thread_annotations.hpp"
#include "util/units.hpp"

namespace agile {
namespace {

// --- log rate limiting -------------------------------------------------

// Restores the global log level when a test exits (pass or fail).
class ScopedLogLevel {
 public:
  explicit ScopedLogLevel(LogLevel lvl) : previous_(log::level()) {
    log::set_level(lvl);
  }
  ~ScopedLogLevel() { log::set_level(previous_); }

 private:
  LogLevel previous_;
};

TEST(LogEveryN, EmitsFirstAndEveryNth) {
  ScopedLogLevel quiet(LogLevel::kInfo);
  testing::internal::CaptureStderr();
  for (int i = 0; i < 10; ++i) AGILE_LOG_EVERY_N(kInfo, 4, "hit=%d;", i);
  std::string out = testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("hit=0;"), std::string::npos);
  EXPECT_EQ(out.find("hit=1;"), std::string::npos);
  EXPECT_EQ(out.find("hit=3;"), std::string::npos);
  EXPECT_NE(out.find("hit=4;"), std::string::npos);
  EXPECT_NE(out.find("hit=8;"), std::string::npos);
  EXPECT_EQ(out.find("hit=9;"), std::string::npos);
}

TEST(LogEveryN, CallSitesCountIndependently) {
  ScopedLogLevel quiet(LogLevel::kInfo);
  testing::internal::CaptureStderr();
  for (int i = 0; i < 3; ++i) {
    AGILE_LOG_EVERY_N(kInfo, 100, "site_a=%d;", i);
    AGILE_LOG_EVERY_N(kInfo, 100, "site_b=%d;", i);
  }
  std::string out = testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("site_a=0;"), std::string::npos);
  EXPECT_NE(out.find("site_b=0;"), std::string::npos);
  EXPECT_EQ(out.find("site_a=1;"), std::string::npos);
  EXPECT_EQ(out.find("site_b=2;"), std::string::npos);
}

TEST(LogEveryN, RespectsLevelThreshold) {
  ScopedLogLevel quiet(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  for (int i = 0; i < 5; ++i) AGILE_LOG_EVERY_N(kDebug, 1, "debug=%d;", i);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

// --- units -------------------------------------------------------------

TEST(Units, ByteLiterals) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(1_MiB, 1024u * 1024u);
  EXPECT_EQ(10_GiB, 10ull * 1024 * 1024 * 1024);
}

TEST(Units, PagesForRoundsUp) {
  EXPECT_EQ(pages_for(0), 0u);
  EXPECT_EQ(pages_for(1), 1u);
  EXPECT_EQ(pages_for(kPageSize), 1u);
  EXPECT_EQ(pages_for(kPageSize + 1), 2u);
  EXPECT_EQ(pages_for(1_GiB), 262144u);
}

TEST(Units, TimeHelpers) {
  EXPECT_EQ(sec(1.5), 1'500'000);
  EXPECT_EQ(msec(2), 2000);
  EXPECT_DOUBLE_EQ(to_seconds(sec(42)), 42.0);
  EXPECT_DOUBLE_EQ(to_mib(5_MiB), 5.0);
  EXPECT_DOUBLE_EQ(to_gib(3_GiB), 3.0);
}

// --- status ------------------------------------------------------------

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = not_found("page 42");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.to_string(), "NOT_FOUND: page 42");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(status_code_name(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsError) {
  Result<int> r(invalid_argument("bad"));
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// --- rng ---------------------------------------------------------------

TEST(Rng, DeterministicForSameSeedAndTag) {
  Rng a(42, "x"), b(42, "x");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentTagsDecorrelate) {
  Rng a(42, "x"), b(42, "y");
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowInBounds) {
  Rng rng(1, "bounds");
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(7), 7u);
  }
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(2, "cover");
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3, "d");
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(4, "b");
  EXPECT_FALSE(rng.next_bool(0.0));
  EXPECT_TRUE(rng.next_bool(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.next_bool(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(5, "e");
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.next_exponential(3.0);
  EXPECT_NEAR(sum / 20000.0, 3.0, 0.15);
}

TEST(Zipf, SkewsTowardLowIndices) {
  Rng rng(6, "z");
  ZipfSampler zipf(1000, 0.99);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  // Rank 0 should dominate rank 100 heavily under theta=0.99.
  EXPECT_GT(counts[0], 20 * std::max(1, counts[100]));
  for (auto& [k, v] : counts) EXPECT_LT(k, 1000u);
}

TEST(Zipf, LargeDomainStaysInBounds) {
  Rng rng(7, "zl");
  ZipfSampler zipf(2'500'000, 0.99);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.sample(rng), 2'500'000u);
}

// --- bitmap ------------------------------------------------------------

TEST(Bitmap, StartsEmpty) {
  Bitmap bm(100);
  EXPECT_EQ(bm.size(), 100u);
  EXPECT_EQ(bm.count(), 0u);
  EXPECT_TRUE(bm.none());
}

TEST(Bitmap, SetClearCount) {
  Bitmap bm(130);
  bm.set(0);
  bm.set(64);
  bm.set(129);
  EXPECT_EQ(bm.count(), 3u);
  bm.set(64);  // idempotent
  EXPECT_EQ(bm.count(), 3u);
  bm.clear(64);
  EXPECT_EQ(bm.count(), 2u);
  bm.clear(64);  // idempotent
  EXPECT_EQ(bm.count(), 2u);
  EXPECT_TRUE(bm.test(0));
  EXPECT_FALSE(bm.test(64));
  EXPECT_TRUE(bm.test(129));
}

TEST(Bitmap, InitialAllSetMasksTail) {
  Bitmap bm(70, true);
  EXPECT_EQ(bm.count(), 70u);
  EXPECT_EQ(bm.find_next_clear(0), Bitmap::npos);
}

TEST(Bitmap, FindNextSet) {
  Bitmap bm(200);
  bm.set(3);
  bm.set(64);
  bm.set(199);
  EXPECT_EQ(bm.find_next_set(0), 3u);
  EXPECT_EQ(bm.find_next_set(3), 3u);
  EXPECT_EQ(bm.find_next_set(4), 64u);
  EXPECT_EQ(bm.find_next_set(65), 199u);
  EXPECT_EQ(bm.find_next_set(200), Bitmap::npos);
}

TEST(Bitmap, FindNextClear) {
  Bitmap bm(130, true);
  bm.clear(5);
  bm.clear(128);
  EXPECT_EQ(bm.find_next_clear(0), 5u);
  EXPECT_EQ(bm.find_next_clear(6), 128u);
  EXPECT_EQ(bm.find_next_clear(129), Bitmap::npos);
}

TEST(Bitmap, SetAllClearAll) {
  Bitmap bm(100);
  bm.set_all();
  EXPECT_EQ(bm.count(), 100u);
  bm.clear_all();
  EXPECT_EQ(bm.count(), 0u);
}

TEST(Bitmap, OrWith) {
  Bitmap a(128), b(128);
  a.set(1);
  a.set(100);
  b.set(100);
  b.set(2);
  a.or_with(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_TRUE(a.test(1));
  EXPECT_TRUE(a.test(2));
  EXPECT_TRUE(a.test(100));
}

TEST(Bitmap, SetRunCrossesWordBoundary) {
  Bitmap bm(256);
  for (std::size_t i = 60; i < 70; ++i) bm.set(i);  // straddles word 0/1
  Bitmap::Run r = bm.next_set_run(0);
  EXPECT_EQ(r.begin, 60u);
  EXPECT_EQ(r.end, 70u);
  EXPECT_EQ(r.length(), 10u);
  EXPECT_TRUE(bm.next_set_run(r.end).empty());
  // Starting mid-run returns the remainder.
  r = bm.next_set_run(65);
  EXPECT_EQ(r.begin, 65u);
  EXPECT_EQ(r.end, 70u);
}

TEST(Bitmap, SingleBitRunsAtWordEdges) {
  Bitmap bm(256);
  bm.set(63);
  bm.set(64);  // adjacent across the boundary: one run of two
  Bitmap::Run r = bm.next_set_run(0);
  EXPECT_EQ(r.begin, 63u);
  EXPECT_EQ(r.end, 65u);
  bm.clear(64);
  r = bm.next_set_run(0);
  EXPECT_EQ(r.begin, 63u);
  EXPECT_EQ(r.end, 64u);
  bm.clear(63);
  bm.set(64);
  r = bm.next_set_run(0);
  EXPECT_EQ(r.begin, 64u);
  EXPECT_EQ(r.end, 65u);
}

TEST(Bitmap, AllSetAndAllClearRuns) {
  Bitmap all(130, true);
  Bitmap::Run r = all.next_set_run(0);
  EXPECT_EQ(r.begin, 0u);
  EXPECT_EQ(r.end, 130u);
  EXPECT_TRUE(all.next_clear_run(0).empty());

  Bitmap none(130);
  EXPECT_TRUE(none.next_set_run(0).empty());
  r = none.next_clear_run(0);
  EXPECT_EQ(r.begin, 0u);
  EXPECT_EQ(r.end, 130u);
}

TEST(Bitmap, ClearRunMirrorsSetRun) {
  Bitmap bm(200, true);
  for (std::size_t i = 100; i < 140; ++i) bm.clear(i);
  Bitmap::Run r = bm.next_clear_run(0);
  EXPECT_EQ(r.begin, 100u);
  EXPECT_EQ(r.end, 140u);
  EXPECT_TRUE(bm.next_clear_run(140).empty());
}

TEST(Bitmap, SetRangeClearRangeMaintainCount) {
  Bitmap bm(300);
  bm.set_range(50, 200);  // spans three words
  EXPECT_EQ(bm.count(), 150u);
  EXPECT_FALSE(bm.test(49));
  EXPECT_TRUE(bm.test(50));
  EXPECT_TRUE(bm.test(199));
  EXPECT_FALSE(bm.test(200));
  bm.set_range(60, 70);  // overlap is idempotent
  EXPECT_EQ(bm.count(), 150u);
  bm.clear_range(100, 100);  // empty range is a no-op
  EXPECT_EQ(bm.count(), 150u);
  bm.clear_range(60, 190);
  EXPECT_EQ(bm.count(), 20u);
  Bitmap::Run r = bm.next_set_run(0);
  EXPECT_EQ(r.begin, 50u);
  EXPECT_EQ(r.end, 60u);
  r = bm.next_set_run(r.end);
  EXPECT_EQ(r.begin, 190u);
  EXPECT_EQ(r.end, 200u);
}

TEST(Bitmap, RunIterationMatchesPerBitScan) {
  // Randomized cross-check: iterating runs must visit exactly the bits that
  // per-bit find_next_set visits, in order.
  Rng rng(0xb17b17);
  for (int trial = 0; trial < 20; ++trial) {
    std::size_t size = 1 + rng.next_below(400);
    Bitmap bm(size);
    std::uint64_t density = 1 + rng.next_below(99);
    for (std::size_t i = 0; i < size; ++i) {
      if (rng.next_below(100) < density) bm.set(i);
    }
    std::vector<std::size_t> from_runs;
    std::size_t covered = 0;
    for (Bitmap::Run r = bm.next_set_run(0); !r.empty();
         r = bm.next_set_run(r.end)) {
      ASSERT_LT(r.begin, r.end);
      // Maximality: the bits flanking the run are clear (or out of range).
      if (r.begin > 0) {
        EXPECT_FALSE(bm.test(r.begin - 1));
      }
      if (r.end < size) {
        EXPECT_FALSE(bm.test(r.end));
      }
      for (std::size_t i = r.begin; i < r.end; ++i) from_runs.push_back(i);
      covered += r.length();
    }
    std::vector<std::size_t> from_bits;
    for (std::size_t i = bm.find_next_set(0); i != Bitmap::npos;
         i = bm.find_next_set(i + 1)) {
      from_bits.push_back(i);
    }
    EXPECT_EQ(from_runs, from_bits);
    EXPECT_EQ(covered, bm.count());
  }
}

TEST(Bitmap, ResetResizes) {
  Bitmap bm(10);
  bm.set(9);
  bm.reset(1000);
  EXPECT_EQ(bm.size(), 1000u);
  EXPECT_EQ(bm.count(), 0u);
}

TEST(Bitmap, EmptyBitmapScans) {
  Bitmap bm;
  EXPECT_EQ(bm.find_next_set(0), Bitmap::npos);
  EXPECT_EQ(bm.find_next_clear(0), Bitmap::npos);
}

TEST(Bitmap, EmptyBitmapRunIteration) {
  Bitmap bm;
  EXPECT_TRUE(bm.next_set_run(0).empty());
  EXPECT_TRUE(bm.next_clear_run(0).empty());
  bm.deep_audit();
}

TEST(Bitmap, SingleBitRunsAtWordBoundaries) {
  // A lone set bit at each corner of a 64-bit word must come back as a
  // one-bit run, with the clear runs splitting around it.
  for (std::size_t pos : {std::size_t{0}, std::size_t{63}, std::size_t{64},
                          std::size_t{127}}) {
    Bitmap bm(128);
    bm.set(pos);
    Bitmap::Run r = bm.next_set_run(0);
    EXPECT_EQ(r.begin, pos);
    EXPECT_EQ(r.end, pos + 1);
    EXPECT_TRUE(bm.next_set_run(r.end).empty());
    Bitmap::Run c = bm.next_clear_run(0);
    if (pos == 0) {
      EXPECT_EQ(c.begin, 1u);
      EXPECT_EQ(c.end, 128u);
    } else {
      EXPECT_EQ(c.begin, 0u);
      EXPECT_EQ(c.end, pos);
      c = bm.next_clear_run(c.end);
      if (pos < 127) {
        EXPECT_EQ(c.begin, pos + 1);
        EXPECT_EQ(c.end, 128u);
      } else {
        EXPECT_TRUE(c.empty());
      }
    }
    bm.deep_audit();
  }
}

TEST(Bitmap, FullWordRunsSpanWords) {
  // A run covering whole words plus ragged edges on both sides must come
  // back as one maximal run, not per-word fragments.
  Bitmap bm(256);
  bm.set_range(60, 200);  // tail of word 0, words 1–2 whole, head of word 3
  Bitmap::Run r = bm.next_set_run(0);
  EXPECT_EQ(r.begin, 60u);
  EXPECT_EQ(r.end, 200u);
  EXPECT_TRUE(bm.next_set_run(r.end).empty());
  // Starting mid-run still reports the remainder of the same run.
  r = bm.next_set_run(128);
  EXPECT_EQ(r.begin, 128u);
  EXPECT_EQ(r.end, 200u);
  bm.deep_audit();
}

TEST(Bitmap, RangeOpsAtSizeBoundary) {
  Bitmap bm(65);
  bm.set_range(64, 65);  // final bit, alone in the last word
  EXPECT_EQ(bm.count(), 1u);
  EXPECT_TRUE(bm.test(64));
  Bitmap::Run r = bm.next_set_run(0);
  EXPECT_EQ(r.begin, 64u);
  EXPECT_EQ(r.end, 65u);
  bm.deep_audit();

  bm.set_range(0, 65);  // whole bitmap
  EXPECT_EQ(bm.count(), 65u);
  r = bm.next_set_run(0);
  EXPECT_EQ(r.begin, 0u);
  EXPECT_EQ(r.end, 65u);
  EXPECT_TRUE(bm.next_clear_run(0).empty());
  bm.deep_audit();

  bm.clear_range(64, 65);  // drop the final bit again
  EXPECT_EQ(bm.count(), 64u);
  EXPECT_FALSE(bm.test(64));
  r = bm.next_clear_run(0);
  EXPECT_EQ(r.begin, 64u);
  EXPECT_EQ(r.end, 65u);
  bm.deep_audit();

  bm.clear_range(0, 65);
  EXPECT_EQ(bm.count(), 0u);
  EXPECT_TRUE(bm.next_set_run(0).empty());
  bm.deep_audit();

  // Empty ranges are no-ops, including at the very end.
  bm.set_range(65, 65);
  bm.clear_range(0, 0);
  EXPECT_EQ(bm.count(), 0u);
  bm.deep_audit();
}

// --- annotated mutex primitives (util/thread_annotations.hpp) ----------
//
// The AGILE_* attributes themselves are exercised by clang in
// tools/check_thread_safety.sh; these tests pin the *runtime* behaviour of
// the wrappers on every compiler, annotations or not.

TEST(ThreadAnnotations, MutexLockSerializesWriters) {
  util::Mutex mu;
  int counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        util::MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  util::MutexLock lock(mu);
  EXPECT_EQ(counter, 4000);
}

TEST(ThreadAnnotations, TryLockReflectsOwnership) {
  util::Mutex mu;
  ASSERT_TRUE(mu.try_lock());
  // A different thread must see the mutex as held (try_lock on the owning
  // thread would be UB for std::mutex).
  std::thread other([&] { EXPECT_FALSE(mu.try_lock()); });
  other.join();
  mu.unlock();
  ASSERT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(ThreadAnnotations, CondVarWaitReleasesAndReacquires) {
  util::Mutex mu;
  util::CondVar cv;
  bool ready = false;
  // The consumer below holds `mu` while waiting; the producer can only set
  // `ready` if cv.wait() genuinely released the mutex, and the consumer can
  // only read it safely if wait() reacquired before returning.
  std::thread producer([&] {
    util::MutexLock lock(mu);
    ready = true;
    cv.notify_one();
  });
  {
    util::MutexLock lock(mu);
    while (!ready) cv.wait(mu);
    EXPECT_TRUE(ready);
  }
  producer.join();
}

TEST(LaneSums, RowsFromSeveralThreadsSumExactly) {
  constexpr std::size_t kRows = 4;
  constexpr std::int64_t kAdds = 200000;
  util::LaneSums<std::int64_t> sums(kRows, 3);
  std::vector<std::thread> writers;
  for (std::size_t row = 0; row < kRows; ++row) {
    // Single writer per row, as a lane's thread is.
    writers.emplace_back([&sums, row] {
      for (std::int64_t i = 0; i < kAdds; ++i) {
        sums.add(row, 0, 1);
        sums.add(row, 2, static_cast<std::int64_t>(row) + 1);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(sums.sum(0), static_cast<std::int64_t>(kRows) * kAdds);
  EXPECT_EQ(sums.sum(1), 0);
  EXPECT_EQ(sums.sum(2), kAdds * (1 + 2 + 3 + 4));
}

TEST(LaneSums, StoreOnOneLaneDroppedOnAnother) {
  util::LaneSums<std::int64_t> pages(4, 2);
  pages.add(1, 0, 1);   // stored on lane 1
  pages.add(2, 0, -1);  // dropped on lane 2: that row goes negative
  EXPECT_EQ(pages.sum(0), 0);
  pages.add(1, 1, 5);
  pages.add(3, 1, -2);
  EXPECT_EQ(pages.sum(1), 3);
  pages.reset();
  EXPECT_EQ(pages.sum(0), 0);
  EXPECT_EQ(pages.sum(1), 0);
}

TEST(LaneSums, ReshapeKeepsColumnTotals) {
  util::LaneSums<std::int64_t> sums;  // one row, no columns
  EXPECT_EQ(sums.rows(), 1u);
  EXPECT_EQ(sums.columns(), 0u);
  sums.reshape(1, 9);  // columns span two cache lines
  sums.add(0, 8, 7);
  sums.reshape(4, 9);
  sums.add(3, 8, 2);
  sums.add(2, 0, 1);
  // Grow the columns (the network adds links as nodes join): totals move to
  // row 0 and the new column starts at zero.
  sums.reshape(4, 10);
  EXPECT_EQ(sums.rows(), 4u);
  EXPECT_EQ(sums.sum(8), 9);
  EXPECT_EQ(sums.sum(0), 1);
  EXPECT_EQ(sums.sum(9), 0);
  sums.add(1, 8, -9);
  EXPECT_EQ(sums.sum(8), 0);
}

}  // namespace
}  // namespace agile
