// Env-knob parsing hardening: malformed, out-of-range and hostile values
// in the environment must degrade to compiled-in defaults (with a stderr
// note), never to UB. The interesting regressions this suite pins:
//
//  * Config::from_env used to static_cast env_int() straight into
//    unsigned/size_t fields, so XK_SECTIONS=-1 became 4294967295 master
//    slots and XK_SVC_QUEUE_CAP=-1 an effectively unbounded admission
//    queue — sign-wraps a fuzzer (or a typo) reaches trivially.
//  * XK_SVC_WEIGHTS entries above 2^32 narrowed to 0, silently starving
//    the tenant the operator meant to boost.
//
// The CI UBSan leg runs this suite: the bad casts themselves are the kind
// of implementation-defined narrowing -fsanitize=undefined flags.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/runtime.hpp"
#include "support/env.hpp"

namespace {

/// setenv/unsetenv with restore-on-destruction, so a failing assertion
/// cannot leak a hostile value into later suites in the same process.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_ = true;
      old_ = old;
    }
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_ = false;
};

const xk::Config kDefaults{};  // compiled-in fallbacks

// ---- support/env.cpp primitives -------------------------------------------

TEST(EnvParse, IntGarbageFallsBack) {
  ScopedEnv e("XK_TEST_INT", "not-a-number");
  EXPECT_EQ(xk::env_int("XK_TEST_INT", 17), 17);
}

TEST(EnvParse, IntTrailingGarbageFallsBack) {
  ScopedEnv e("XK_TEST_INT", "12abc");
  EXPECT_EQ(xk::env_int("XK_TEST_INT", 17), 17);
}

TEST(EnvParse, IntEmptyFallsBack) {
  ScopedEnv e("XK_TEST_INT", "");
  EXPECT_EQ(xk::env_int("XK_TEST_INT", 17), 17);
}

TEST(EnvParse, IntOverflowFallsBack) {
  // Past INT64_MAX: std::stoll throws out_of_range, env_int catches.
  ScopedEnv e("XK_TEST_INT", "99999999999999999999999999");
  EXPECT_EQ(xk::env_int("XK_TEST_INT", 17), 17);
}

TEST(EnvParse, IntNegativeIsAValue) {
  // env_int itself is signed; range policy lives in Config::from_env.
  ScopedEnv e("XK_TEST_INT", "-5");
  EXPECT_EQ(xk::env_int("XK_TEST_INT", 17), -5);
}

TEST(EnvParse, BoolVariants) {
  for (const char* yes : {"1", "true", "YES", "On"}) {
    ScopedEnv e("XK_TEST_BOOL", yes);
    EXPECT_TRUE(xk::env_bool("XK_TEST_BOOL", false)) << yes;
  }
  for (const char* no : {"0", "false", "NO", "off"}) {
    ScopedEnv e("XK_TEST_BOOL", no);
    EXPECT_FALSE(xk::env_bool("XK_TEST_BOOL", true)) << no;
  }
  ScopedEnv e("XK_TEST_BOOL", "maybe");
  EXPECT_TRUE(xk::env_bool("XK_TEST_BOOL", true));
  EXPECT_FALSE(xk::env_bool("XK_TEST_BOOL", false));
}

TEST(EnvParse, DoubleGarbageFallsBack) {
  ScopedEnv e("XK_TEST_DBL", "1.5x");
  EXPECT_EQ(xk::env_double("XK_TEST_DBL", 2.5), 2.5);
}

// ---- Config::from_env range policy ----------------------------------------

TEST(ConfigFromEnv, NegativeSectionsFallsBack) {
  ScopedEnv e("XK_SECTIONS", "-1");
  EXPECT_EQ(xk::Config::from_env().sections, kDefaults.sections);
}

TEST(ConfigFromEnv, HugeSectionsFallsBack) {
  // Every section past the first allocates a Worker; 10^9 of them is a
  // wrap/typo, not a tuning.
  ScopedEnv e("XK_SECTIONS", "1000000000");
  EXPECT_EQ(xk::Config::from_env().sections, kDefaults.sections);
}

TEST(ConfigFromEnv, GarbageSectionsFallsBack) {
  ScopedEnv e("XK_SECTIONS", "two");
  EXPECT_EQ(xk::Config::from_env().sections, kDefaults.sections);
}

TEST(ConfigFromEnv, ValidSectionsParses) {
  ScopedEnv e("XK_SECTIONS", "3");
  EXPECT_EQ(xk::Config::from_env().sections, 3u);
}

TEST(ConfigFromEnv, NegativeQueueCapFallsBack) {
  ScopedEnv e("XK_SVC_QUEUE_CAP", "-1");
  EXPECT_EQ(xk::Config::from_env().svc_queue_cap, kDefaults.svc_queue_cap);
}

TEST(ConfigFromEnv, NegativeNcpuFallsBack) {
  ScopedEnv e("XK_NCPU", "-3");
  EXPECT_EQ(xk::Config::from_env().nworkers, kDefaults.nworkers);
}

TEST(ConfigFromEnv, NegativeTraceCapFallsBack) {
  ScopedEnv e("XK_TRACE_CAP", "-1");
  EXPECT_EQ(xk::Config::from_env().trace_cap, kDefaults.trace_cap);
}

TEST(ConfigFromEnv, NegativeTraceCapFallsBackInPlainConfigRuntime) {
#ifdef XK_OBS_OFF
  GTEST_SKIP() << "XK_OBS=OFF build: no trace rings";
#else
  // A plain Config (trace_cap = 0) defers the capacity to XK_TRACE_CAP
  // at construction; that read must take the same clamped parse as
  // from_env, not cast -1 to SIZE_MAX and hang rounding the ring size.
  const std::string path =
      (std::filesystem::temp_directory_path() / "xk_env_test_trace.json")
          .string();
  ScopedEnv trace("XK_TRACE", path.c_str());
  ScopedEnv cap("XK_TRACE_CAP", "-1");
  xk::Config cfg;
  cfg.nworkers = 1;
  xk::Runtime rt(cfg);
  ASSERT_TRUE(rt.tracing());
  EXPECT_EQ(rt.trace_ring(0)->capacity(), 16384u);
#endif
}

// ---- XK_SVC_WEIGHTS (parsed at first submit, in the ServiceState ctor) ----

TEST(ConfigFromEnv, MalformedWeightsAreSkippedNotFatal) {
  // Tenant 1's "x", tenant 2's "-2" and tenant 3's 2^33 (which a bare
  // narrowing would wrap to weight 0) must all be skipped; the runtime
  // still dispatches jobs for every tenant afterwards.
  ScopedEnv e("XK_SVC_WEIGHTS", "4,x,-2,8589934592,2");
  xk::Config cfg = xk::Config::from_env();
  cfg.nworkers = 2;
  xk::Runtime rt(cfg);
  for (unsigned tenant = 0; tenant < 5; ++tenant) {
    xk::SubmitOptions opts;
    opts.tenant = tenant;
    xk::JobToken t = rt.submit([] {}, opts);
    t.wait();
    EXPECT_EQ(t.status(), xk::JobStatus::kDone) << "tenant " << tenant;
  }
}

TEST(ConfigFromEnv, EmptyWeightSpecIsDefault) {
  ScopedEnv e("XK_SVC_WEIGHTS", ",,,");
  xk::Config cfg = xk::Config::from_env();
  cfg.nworkers = 1;
  xk::Runtime rt(cfg);
  xk::JobToken t = rt.submit([] {});
  t.wait();
  EXPECT_EQ(t.status(), xk::JobStatus::kDone);
}

}  // namespace
