// Invariant-checking tiers for the simulator.
//
// Three tiers, ordered by cost:
//
//   AGILE_CHECK / AGILE_CHECK_MSG — always compiled, always on. Cheap O(1)
//       preconditions on every path, including the hottest ones (a broken
//       simulation must die, not publish corrupt metrics). The failure path
//       is a single out-of-line [[noreturn]] call, so the macro costs one
//       predictable branch at the call site.
//
//   AGILE_CHECK_S(expr) << "context " << v — always compiled, always on,
//       with streamed context. A passing check costs what AGILE_CHECK does:
//       the message stream is built, and the streamed operands evaluated,
//       only when the check fails — so streamed operands must not have side
//       effects. Cheap enough for the deep auditors' per-bit sweeps.
//
//   AGILE_DCHECK / AGILE_DCHECK_EQ / _NE / _LT / _LE / _GT / _GE — compiled
//       only when the build defines AGILE_AUDIT (the `asan-ubsan` and `tsan`
//       presets do; `cmake -DAGILE_AUDIT=ON` for a plain build). Streamed
//       context; the _OP forms print both operand values. Zero cost — the
//       condition is not even evaluated — in ordinary builds. Use freely on
//       hot paths.
//
// Deep auditors (the O(n) cross-structure sweeps: GuestMemory::deep_audit,
// Bitmap::deep_audit, the wire/migration conservation checks) are *runtime*
// gated on audit::enabled() instead, so a stock binary can run fully audited
// with `AGILE_AUDIT=1` in the environment — that is how the golden-metrics
// audit ctest proves the auditors don't perturb behavior without a rebuild.
// Inside an `if (audit::enabled())` block, use the always-compiled tiers
// (AGILE_CHECK / AGILE_CHECK_S), never AGILE_DCHECK, or the audit would
// silently vanish from non-AGILE_AUDIT builds.
#pragma once

#include <sstream>
#include <string>

namespace agile {

namespace detail {

[[noreturn]] void check_failed(const char* file, int line, const char* expr,
                               const std::string& msg);

/// Failure-message accumulator behind the streamed check tiers. Holds no
/// buffer when the check passed; aborts from the destructor when it failed,
/// after the caller's streamed context has been collected. AGILE_CHECK_S only
/// constructs one on failure; the _OP forms construct a passing one too.
class CheckStream {
 public:
  CheckStream() = default;
  CheckStream(const char* file, int line, const char* expr)
      : failed_(true), file_(file), line_(line), expr_(expr) {}

  CheckStream(CheckStream&& other) noexcept
      : failed_(other.failed_),
        file_(other.file_),
        line_(other.line_),
        expr_(other.expr_),
        os_(std::move(other.os_)) {
    other.failed_ = false;
  }
  CheckStream(const CheckStream&) = delete;
  CheckStream& operator=(const CheckStream&) = delete;
  CheckStream& operator=(CheckStream&&) = delete;

  ~CheckStream() {
    if (failed_) check_failed(file_, line_, expr_, os_.str());
  }

  template <typename T>
  CheckStream& operator<<(const T& v) {
    if (failed_) os_ << v;
    return *this;
  }

 private:
  bool failed_ = false;
  const char* file_ = nullptr;
  int line_ = 0;
  const char* expr_ = nullptr;
  std::ostringstream os_;
};

/// Evaluates both operands exactly once; on failure the message leads with
/// their values ("(3 vs 5) ").
template <typename A, typename B, typename Op>
CheckStream make_check_op(const A& a, const B& b, Op op, const char* file,
                          int line, const char* expr) {
  if (op(a, b)) return CheckStream();
  CheckStream s(file, line, expr);
  s << "(" << a << " vs " << b << ") ";
  return s;
}

/// Swallows streamed operands of compiled-out AGILE_DCHECKs.
struct NullStream {
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace detail

namespace audit {

/// True when the deep (O(n)) auditors should run. Forced on by building with
/// AGILE_AUDIT defined (the sanitizer presets); otherwise enabled at process
/// start by `AGILE_AUDIT=1` in the environment. Cached after the first call.
bool enabled();

/// Test-only override (takes effect immediately, bypassing the cache).
void set_enabled_for_test(bool on);

}  // namespace audit
}  // namespace agile

/// Fail-fast invariant check; always on (simulation correctness > speed of a
/// broken run).
#define AGILE_CHECK(expr)                                                \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::agile::detail::check_failed(__FILE__, __LINE__, #expr, "");      \
    }                                                                    \
  } while (0)

#define AGILE_CHECK_MSG(expr, msg)                                       \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::agile::detail::check_failed(__FILE__, __LINE__, #expr, (msg));   \
    }                                                                    \
  } while (0)

/// Always-on check with streamed context:
///   AGILE_CHECK_S(a == b) << "while installing page " << p;
/// The streamed operands bind to the `else` branch, so a passing check
/// neither evaluates them nor builds a CheckStream. The `switch` wrapper
/// makes the macro one statement: an `else` after it binds to the caller's
/// `if`, not to the one inside.
#define AGILE_CHECK_S(expr)                                   \
  switch (0)                                                  \
  case 0:                                                     \
  default:                                                    \
    if (static_cast<bool>(expr)) {                            \
    } else                                                    \
      ::agile::detail::CheckStream(__FILE__, __LINE__, #expr)

#ifdef AGILE_AUDIT

#define AGILE_DCHECK(expr) AGILE_CHECK_S(expr)
#define AGILE_DCHECK_OP_(a, b, opname, opstr)                                \
  ::agile::detail::make_check_op(                                            \
      (a), (b), [](const auto& x, const auto& y) { return x opname y; },     \
      __FILE__, __LINE__, #a " " opstr " " #b)

#else  // !AGILE_AUDIT

// Compiled out: operands are parsed (so they can't rot) but never evaluated,
// and the whole statement folds to nothing.
#define AGILE_DCHECK(expr) \
  while (false && static_cast<bool>(expr)) ::agile::detail::NullStream()
#define AGILE_DCHECK_OP_(a, b, opname, opstr) \
  while (false && ((a) opname (b))) ::agile::detail::NullStream()

#endif  // AGILE_AUDIT

#define AGILE_DCHECK_EQ(a, b) AGILE_DCHECK_OP_(a, b, ==, "==")
#define AGILE_DCHECK_NE(a, b) AGILE_DCHECK_OP_(a, b, !=, "!=")
#define AGILE_DCHECK_LT(a, b) AGILE_DCHECK_OP_(a, b, <, "<")
#define AGILE_DCHECK_LE(a, b) AGILE_DCHECK_OP_(a, b, <=, "<=")
#define AGILE_DCHECK_GT(a, b) AGILE_DCHECK_OP_(a, b, >, ">")
#define AGILE_DCHECK_GE(a, b) AGILE_DCHECK_OP_(a, b, >=, ">=")
