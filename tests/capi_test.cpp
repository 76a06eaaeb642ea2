// kaapic-flavor C API tests (core/capi.h).
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/capi.h"
#include "core/xkaapi.hpp"

namespace {

std::atomic<int> g_counter{0};

void bump(void*) { g_counter.fetch_add(1); }

void fill_range(int64_t lo, int64_t hi, int32_t /*tid*/, void* arg) {
  auto* v = static_cast<std::vector<int>*>(arg);
  for (int64_t i = lo; i < hi; ++i) (*v)[static_cast<std::size_t>(i)] = 1;
}

TEST(CApi, LifecycleAndErrors) {
  EXPECT_EQ(kaapic_get_concurrency(), 0);
  EXPECT_NE(kaapic_spawn(bump, nullptr), 0);  // not initialized
  EXPECT_NE(kaapic_finalize(), 0);

  ASSERT_EQ(kaapic_init(2), 0);
  EXPECT_EQ(kaapic_get_concurrency(), 2);
  EXPECT_NE(kaapic_init(2), 0);  // double init rejected
  ASSERT_EQ(kaapic_finalize(), 0);
  EXPECT_EQ(kaapic_get_concurrency(), 0);
}

TEST(CApi, SpawnAndSync) {
  ASSERT_EQ(kaapic_init(2), 0);
  g_counter.store(0);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(kaapic_spawn(bump, nullptr), 0);
  EXPECT_EQ(kaapic_sync(), 0);
  EXPECT_EQ(g_counter.load(), 64);
  ASSERT_EQ(kaapic_finalize(), 0);
}

TEST(CApi, DataflowChain) {
  ASSERT_EQ(kaapic_init(2), 0);
  double value = 1.0;
  auto doubler = [](void* p) { *static_cast<double*>(p) *= 2.0; };
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(kaapic_spawn_1(doubler, &value, sizeof(value), KAAPIC_MODE_RW),
              0);
  }
  EXPECT_EQ(kaapic_sync(), 0);
  EXPECT_DOUBLE_EQ(value, 1024.0);
  ASSERT_EQ(kaapic_finalize(), 0);
}

// Cumulative-write bodies on one region: counted while inside, so any
// overlap of two bodies shows as a second occupant.
struct CwProbe {
  std::atomic<int> inside{0};
  std::atomic<int> overlaps{0};
  long total = 0;  // plain: only serialized bodies may touch it
};
CwProbe g_cw;

void cw_body(void* p) {
  if (g_cw.inside.fetch_add(1) != 0) g_cw.overlaps.fetch_add(1);
  volatile int spin = 0;
  for (int i = 0; i < 2000; ++i) spin = spin + i;
  *static_cast<long*>(p) += 1;
  g_cw.inside.fetch_sub(1);
}

TEST(CApi, CumulativeWriteBodiesSerializeAcrossFrontEnds) {
  // CW tasks on one region are independent in the dependence graph, so
  // thieves may run them concurrently; the runtime must still serialize the
  // bodies whether the task came from kaapic_spawn_1 or from xk::cw.
  ASSERT_EQ(kaapic_init(4), 0);
  g_cw.overlaps.store(0);
  g_cw.total = 0;
  constexpr int kTasks = 400;
  for (int i = 0; i < kTasks; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(kaapic_spawn_1(cw_body, &g_cw.total, sizeof(g_cw.total),
                               KAAPIC_MODE_CW),
                0);
    } else {
      xk::spawn([](long* t) { cw_body(t); }, xk::cw(&g_cw.total));
    }
  }
  EXPECT_EQ(kaapic_sync(), 0);
  EXPECT_EQ(g_cw.overlaps.load(), 0);
  EXPECT_EQ(g_cw.total, kTasks);
  ASSERT_EQ(kaapic_finalize(), 0);
}

TEST(CApi, Foreach) {
  ASSERT_EQ(kaapic_init(4), 0);
  std::vector<int> v(100000, 0);
  EXPECT_EQ(kaapic_foreach(0, static_cast<int64_t>(v.size()), &v, fill_range),
            0);
  for (int x : v) ASSERT_EQ(x, 1);
  ASSERT_EQ(kaapic_finalize(), 0);
}

}  // namespace
