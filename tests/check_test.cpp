// xk_check invariant-registry tests. The suite compiles (and passes) in
// BOTH build flavors, asserting both halves of the contract:
//
//  * XK_CHECK=OFF — every hook is a stub: kEnabled is false, XK_EXPECT
//    does not evaluate its condition, the counters read zero.
//  * XK_CHECK=ON  — the registry metadata is coherent, count-mode records
//    violations per invariant (the negative test: a checker that cannot
//    fire is not a gate), abort-mode dies loudly, and a full spawn/sync +
//    service + foreach workout over every seam reports zero violations.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "check/check.hpp"
#include "core/xkaapi.hpp"

namespace {

TEST(CheckRegistry, TableIsCoherent) {
  EXPECT_GT(xk::check::kInvariantCount, 0u);
  for (std::size_t i = 0; i < xk::check::kInvariantCount; ++i) {
    const auto& info =
        xk::check::invariant_info(static_cast<xk::check::Inv>(i));
    EXPECT_NE(info.name, nullptr);
    EXPECT_NE(info.family, nullptr);
    EXPECT_NE(info.what, nullptr);
    EXPECT_GT(std::strlen(info.name), 0u);
    EXPECT_GT(std::strlen(info.what), 0u);
  }
}

TEST(CheckRegistry, FamiliesCoverEverySubsystem) {
  bool task = false, ready = false, service = false, section = false;
  for (std::size_t i = 0; i < xk::check::kInvariantCount; ++i) {
    const char* fam =
        xk::check::invariant_info(static_cast<xk::check::Inv>(i)).family;
    task |= std::strcmp(fam, "task") == 0;
    ready |= std::strcmp(fam, "ready") == 0;
    service |= std::strcmp(fam, "service") == 0;
    section |= std::strcmp(fam, "section") == 0;
  }
  EXPECT_TRUE(task && ready && service && section);
}

TEST(CheckStubs, DisabledBuildCompilesHooksToNothing) {
  if constexpr (!xk::check::kEnabled) {
    // XK_EXPECT must not evaluate its condition (assert-under-NDEBUG
    // contract): a side-effecting condition would change unchecked-build
    // behavior.
    int evaluated = 0;
    XK_EXPECT(rl_npred_underflow, (++evaluated, true));
    XK_EXPECT(rl_npred_underflow, (++evaluated, false));
    EXPECT_EQ(evaluated, 0);
    EXPECT_EQ(xk::check::violations_total(), 0u);
  } else {
    GTEST_SKIP() << "XK_CHECK=ON build: stubs not in play";
  }
}

TEST(CheckCountMode, SeededViolationIsRecorded) {
  if constexpr (xk::check::kEnabled) {
    // The negative test the acceptance criteria ask for: prove the
    // checker fires on a violation, per invariant, without aborting.
    xk::check::set_mode(xk::check::Mode::kCount);
    xk::check::reset_violations();
    XK_EXPECT(rl_npred_underflow, false, 123u);
    XK_EXPECT(job_settle_twice, 1 + 1 == 3);
    XK_EXPECT(job_settle_twice, false);
    EXPECT_EQ(xk::check::violations(xk::check::Inv::rl_npred_underflow), 1u);
    EXPECT_EQ(xk::check::violations(xk::check::Inv::job_settle_twice), 2u);
    EXPECT_EQ(xk::check::violations(xk::check::Inv::task_transition), 0u);
    EXPECT_EQ(xk::check::violations_total(), 3u);
    xk::check::reset_violations();
    EXPECT_EQ(xk::check::violations_total(), 0u);
  } else {
    GTEST_SKIP() << "requires -DXK_CHECK=ON";
  }
}

TEST(CheckCountMode, TrueConditionRecordsNothing) {
  if constexpr (xk::check::kEnabled) {
    xk::check::set_mode(xk::check::Mode::kCount);
    xk::check::reset_violations();
    XK_EXPECT(rl_accounting, 2 + 2 == 4);
    EXPECT_EQ(xk::check::violations_total(), 0u);
  } else {
    GTEST_SKIP() << "requires -DXK_CHECK=ON";
  }
}

TEST(CheckAbortModeDeathTest, SeededViolationAborts) {
  if constexpr (xk::check::kEnabled) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    xk::check::set_mode(xk::check::Mode::kAbort);
    EXPECT_DEATH(
        { XK_EXPECT(section_underflow, false, 7u); },
        "xk_check: VIOLATION section_underflow");
    // The parent process never executed the failing XK_EXPECT.
    EXPECT_EQ(xk::check::violations(xk::check::Inv::section_underflow), 0u);
  } else {
    GTEST_SKIP() << "requires -DXK_CHECK=ON";
  }
}

// Drive every hooked seam — spawn/sync plain stores, steal claims, the
// ready-list dataflow path, service settles, overlapping sections with the
// drain-once rule — and require a spotless run. This is the in-tree
// miniature of the CI XK_CHECK=ON leg.
TEST(CheckWorkout, FullSeamSweepIsViolationFree) {
  if constexpr (xk::check::kEnabled) {
    xk::check::set_mode(xk::check::Mode::kCount);
    xk::check::reset_violations();
    {
      xk::Config cfg;
      cfg.nworkers = 4;
      xk::Runtime rt(cfg);
      rt.run([&] {
        std::atomic<int> sum{0};
        for (int i = 0; i < 256; ++i) {
          xk::spawn([&sum] { sum.fetch_add(1, std::memory_order_relaxed); });
        }
        xk::sync();
        EXPECT_EQ(sum.load(std::memory_order_relaxed), 256);
      });
      xk::JobToken t = rt.submit([] {});
      t.wait();
      EXPECT_EQ(t.status(), xk::JobStatus::kDone);
    }
    EXPECT_EQ(xk::check::violations_total(), 0u)
        << "seam sweep tripped an invariant";
  } else {
    GTEST_SKIP() << "requires -DXK_CHECK=ON";
  }
}

}  // namespace
