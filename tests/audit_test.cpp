// Tests for the invariant subsystem (util/check.hpp) and the deep auditors:
// the checking tiers behave as documented, and a seeded corruption is
// actually caught (death tests) — an auditor that never fires is worse than
// none, because it buys false confidence.

#include <cstdint>

#include <gtest/gtest.h>

#include "util/bitmap.hpp"
#include "util/check.hpp"

namespace agile {
namespace {

TEST(CheckTest, PassingChecksAreSilent) {
  AGILE_CHECK(1 + 1 == 2);
  AGILE_CHECK_MSG(true, "never printed");
  AGILE_CHECK_S(2 > 1) << "never evaluated into a message";
  AGILE_DCHECK(true) << "fine";
  AGILE_DCHECK_EQ(3, 3) << "fine";
  AGILE_DCHECK_LE(3, 4);
}

TEST(CheckTest, PassingStreamedCheckEvaluatesNoStreamedOperand) {
  int evaluations = 0;
  auto context = [&evaluations] {
    ++evaluations;
    return "context";
  };
  AGILE_CHECK_S(2 > 1) << context() << " " << ++evaluations;
  EXPECT_EQ(evaluations, 0);
}

TEST(CheckTest, StreamedCheckIsOneStatement) {
  // An `else` after the macro must bind to the caller's `if`.
  bool took_else = false;
  const bool outer = false;
  if (outer)
    AGILE_CHECK_S(false) << "outer branch not taken";
  else
    took_else = true;
  EXPECT_TRUE(took_else);
}

TEST(CheckDeathTest, CheckAborts) {
  EXPECT_DEATH(AGILE_CHECK(1 == 2), "AGILE_CHECK failed");
}

TEST(CheckDeathTest, CheckMsgCarriesMessage) {
  EXPECT_DEATH(AGILE_CHECK_MSG(false, "the context string"),
               "the context string");
}

TEST(CheckDeathTest, StreamedCheckCarriesStreamedContext) {
  const std::uint64_t page = 42;
  EXPECT_DEATH(AGILE_CHECK_S(page == 0) << "offending page " << page,
               "offending page 42");
}

#ifdef AGILE_AUDIT
TEST(CheckDeathTest, DcheckOpPrintsBothOperands) {
  EXPECT_DEATH(AGILE_DCHECK_EQ(3, 5), "\\(3 vs 5\\)");
}
#else
TEST(CheckTest, CompiledOutDcheckEvaluatesNothing) {
  int evaluations = 0;
  auto bump = [&evaluations] {
    ++evaluations;
    return false;  // would fail if evaluated
  };
  AGILE_DCHECK(bump()) << "never built";
  AGILE_DCHECK_EQ(++evaluations, 99);
  EXPECT_EQ(evaluations, 0);
}
#endif

TEST(AuditTest, RuntimeToggleOverridesEnvironment) {
  audit::set_enabled_for_test(true);
  EXPECT_TRUE(audit::enabled());
  audit::set_enabled_for_test(false);
  EXPECT_FALSE(audit::enabled());
  audit::set_enabled_for_test(true);
  EXPECT_TRUE(audit::enabled());
}

TEST(BitmapAuditTest, DeepAuditAcceptsHealthyBitmaps) {
  Bitmap empty;
  empty.reset(0, false);
  empty.deep_audit();

  Bitmap b;
  b.reset(200, false);
  b.deep_audit();
  b.set(0);
  b.set(63);
  b.set_range(64, 130);
  b.set(199);
  b.deep_audit();
  b.clear_range(100, 128);
  b.deep_audit();
  b.set_range(0, 200);
  b.deep_audit();
}

// The seeded-fault demonstrations: plant each corruption class the auditor
// exists to catch and require the abort.

TEST(BitmapAuditDeathTest, CatchesPopulationCountDrift) {
  Bitmap b;
  b.reset(128, false);
  b.set(3);
  // Flip extra bits behind the cached count's back — the classic
  // incremental-update bug the popcount cross-check exists for.
  b.corrupt_word_for_test(1, 0xFFull);
  EXPECT_DEATH(b.deep_audit(), "AGILE_CHECK failed");
}

TEST(BitmapAuditDeathTest, CatchesBitsBeyondSize) {
  Bitmap b;
  b.reset(70, false);  // word 1 holds bits 64..69; 70..127 must stay zero
  b.set_range(0, 70);
  b.corrupt_word_for_test(1, ~0ull);  // plant garbage in the tail
  EXPECT_DEATH(b.deep_audit(), "AGILE_CHECK failed");
}

TEST(BitmapAuditDeathTest, CatchesClearedWordWithStaleCount) {
  Bitmap b;
  b.reset(256, false);
  b.set_range(64, 128);
  b.corrupt_word_for_test(1, 0);  // lose a whole word of set bits
  EXPECT_DEATH(b.deep_audit(), "AGILE_CHECK failed");
}

}  // namespace
}  // namespace agile
