// Clang thread-safety annotations + annotated synchronization primitives.
//
// The repo's concurrency contract (DESIGN.md "Concurrency contract") is
// enforced in layers; this header is the *type-system* layer. Every
// mutex-guarded structure declares which lock protects it via
// AGILE_GUARDED_BY, and every function that expects a lock held says so with
// AGILE_REQUIRES — Clang's `-Wthread-safety` analysis (the `analyze` preset,
// tools/check_thread_safety.sh) then rejects any unguarded access at compile
// time, independent of which interleavings a test happens to exercise.
//
// Under GCC (the everyday toolchain) every macro expands to nothing, so the
// annotations are free. The `Mutex`/`MutexLock`/`CondVar` wrappers exist
// because the analysis only tracks *annotated* capabilities: a raw
// `std::mutex` is invisible to it. They are thin, header-only shims over the
// std primitives with zero behavioral difference.
//
// State that is intentionally *not* lock-guarded falls into two documented
// classes the analysis cannot express (the AST layer, tools/lane_lint.py,
// covers them instead):
//   * lane-confined  — owned by exactly one lane thread between barriers
//     (LaneCoordinator channel heaps, per-lane outboxes, TraceRecorder);
//   * relaxed cells  — commutative cross-lane sums (util::RelaxedCell, or
//     util::LaneSums with one single-writer row per lane).
#pragma once

#include <condition_variable>
#include <mutex>

// Thread-safety attributes are a Clang extension. GCC parses
// __has_attribute, but only Clang implements the analysis, so gate on both.
#if defined(__clang__) && defined(__has_attribute)
#define AGILE_TSA(x) __attribute__((x))
#else
#define AGILE_TSA(x)  // no-op outside Clang
#endif

/// Marks a type as a capability ("mutex" in diagnostics).
#define AGILE_CAPABILITY(x) AGILE_TSA(capability(x))

/// Marks an RAII type that acquires a capability in its constructor and
/// releases it in its destructor (MutexLock below).
#define AGILE_SCOPED_CAPABILITY AGILE_TSA(scoped_lockable)

/// Declares that a member is protected by the given capability.
#define AGILE_GUARDED_BY(x) AGILE_TSA(guarded_by(x))

/// Declares that the data *pointed to* by a member is protected.
#define AGILE_PT_GUARDED_BY(x) AGILE_TSA(pt_guarded_by(x))

/// The function may only be called with the capabilities held.
#define AGILE_REQUIRES(...) AGILE_TSA(requires_capability(__VA_ARGS__))

/// The function acquires / releases the capabilities.
#define AGILE_ACQUIRE(...) AGILE_TSA(acquire_capability(__VA_ARGS__))
#define AGILE_RELEASE(...) AGILE_TSA(release_capability(__VA_ARGS__))
#define AGILE_TRY_ACQUIRE(...) AGILE_TSA(try_acquire_capability(__VA_ARGS__))

/// The function may only be called with the capabilities *not* held
/// (deadlock guard for functions that acquire internally).
#define AGILE_EXCLUDES(...) AGILE_TSA(locks_excluded(__VA_ARGS__))

/// Lock-ordering declarations.
#define AGILE_ACQUIRED_BEFORE(...) AGILE_TSA(acquired_before(__VA_ARGS__))
#define AGILE_ACQUIRED_AFTER(...) AGILE_TSA(acquired_after(__VA_ARGS__))

/// The function returns a reference to the given capability.
#define AGILE_RETURN_CAPABILITY(x) AGILE_TSA(lock_returned(x))

/// Escape hatch; every use needs a comment saying why the analysis is wrong.
#define AGILE_NO_THREAD_SAFETY_ANALYSIS AGILE_TSA(no_thread_safety_analysis)

namespace agile::util {

class CondVar;

/// std::mutex with the capability attribute the analysis needs. Use with
/// MutexLock for scopes and CondVar for waits; prefer MutexLock over manual
/// lock()/unlock() pairs.
class AGILE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() AGILE_ACQUIRE() { mu_.lock(); }
  void unlock() AGILE_RELEASE() { mu_.unlock(); }
  bool try_lock() AGILE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped lock over a Mutex (std::lock_guard shape, but visible to the
/// analysis: members guarded by the mutex are accessible inside the scope).
class AGILE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) AGILE_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() AGILE_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to Mutex. wait() requires the mutex held (the
/// analysis checks callers); internally it adopts the already-held
/// std::mutex for the duration of the wait and releases the adoption before
/// returning, so ownership bookkeeping stays with the caller's MutexLock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and sleeps; `mu` is re-held on return.
  /// Spurious wakeups happen: always wait in a predicate loop.
  void wait(Mutex& mu) AGILE_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's MutexLock still owns the mutex
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace agile::util
