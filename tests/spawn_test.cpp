// Fork-join task tests: recursion (fib), nesting, sync semantics, argument
// passing, exceptions, stress under oversubscription.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/xkaapi.hpp"

namespace {

xk::Config cfg(unsigned n) {
  xk::Config c;
  c.nworkers = n;
  c.bind_threads = false;
  return c;
}

std::uint64_t fib_seq(int n) {
  return n < 2 ? static_cast<std::uint64_t>(n)
               : fib_seq(n - 1) + fib_seq(n - 2);
}

// The paper's figure-1 program shape: one spawned child + one inline call.
void fib_task(std::uint64_t* result, int n) {
  if (n < 2) {
    *result = static_cast<std::uint64_t>(n);
    return;
  }
  std::uint64_t r1 = 0, r2 = 0;
  xk::spawn(fib_task, xk::write(&r1), n - 1);
  fib_task(&r2, n - 2);
  xk::sync();
  *result = r1 + r2;
}

class SpawnFibTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SpawnFibTest, FibMatchesSequential) {
  xk::Runtime rt(cfg(GetParam()));
  std::uint64_t result = 0;
  rt.run([&] {
    fib_task(&result, 20);
    xk::sync();
  });
  EXPECT_EQ(result, fib_seq(20));
}

INSTANTIATE_TEST_SUITE_P(Workers, SpawnFibTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(Spawn, ValueArgumentsAreCopied) {
  xk::Runtime rt(cfg(2));
  std::atomic<long> sum{0};
  rt.run([&] {
    for (int i = 0; i < 100; ++i) {
      xk::spawn([&sum](int v) { sum.fetch_add(v); }, i);
    }
    xk::sync();
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(Spawn, LambdaCapturesByValueSurviveCaller) {
  xk::Runtime rt(cfg(2));
  std::atomic<int> total{0};
  rt.run([&] {
    for (int i = 0; i < 32; ++i) {
      std::vector<int> payload(64, i);  // moved/copied into the task
      xk::spawn([payload, &total] {
        total.fetch_add(std::accumulate(payload.begin(), payload.end(), 0));
      });
    }
    xk::sync();
  });
  int expected = 0;
  for (int i = 0; i < 32; ++i) expected += 64 * i;
  EXPECT_EQ(total.load(), expected);
}

TEST(Spawn, DeepNesting) {
  xk::Runtime rt(cfg(2));
  std::atomic<int> depth_sum{0};
  std::function<void(int)> nest = [&](int d) {
    depth_sum.fetch_add(1);
    if (d > 0) {
      xk::spawn([&, d] { nest(d - 1); });
      xk::sync();
    }
  };
  rt.run([&] {
    nest(100);
    xk::sync();
  });
  EXPECT_EQ(depth_sum.load(), 101);
}

TEST(Spawn, WideFanout) {
  xk::Runtime rt(cfg(4));
  constexpr int kTasks = 20000;  // crosses many frame chunks
  std::vector<std::uint8_t> hit(kTasks, 0);
  rt.run([&] {
    for (int i = 0; i < kTasks; ++i) {
      xk::spawn([&hit, i] { hit[static_cast<std::size_t>(i)] = 1; });
    }
    xk::sync();
  });
  EXPECT_EQ(std::accumulate(hit.begin(), hit.end(), 0), kTasks);
}

TEST(Spawn, SyncInsideBodyThenMoreSpawns) {
  xk::Runtime rt(cfg(2));
  std::vector<int> order;
  rt.run([&] {
    xk::spawn([&] {
      std::vector<int> local;
      xk::spawn([&local] { local.push_back(1); });
      xk::sync();  // child 1 done
      local.push_back(2);
      xk::spawn([&local] { local.push_back(3); });
      xk::sync();  // child 2 done
      order = local;
    });
    xk::sync();
  });
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
}

TEST(Spawn, ImplicitSyncAtBodyEnd) {
  // A task's children complete before the task is Term: the parent's sync
  // must observe grandchildren effects.
  xk::Runtime rt(cfg(3));
  std::atomic<int> leaves{0};
  rt.run([&] {
    for (int i = 0; i < 8; ++i) {
      xk::spawn([&] {
        for (int j = 0; j < 8; ++j) {
          xk::spawn([&] { leaves.fetch_add(1); });
        }
        // no explicit sync: body end is an implicit one
      });
    }
    xk::sync();
    EXPECT_EQ(leaves.load(), 64);
  });
}

TEST(Spawn, ExceptionPropagatesToSync) {
  xk::Runtime rt(cfg(2));
  rt.run([&] {
    xk::spawn([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(xk::sync(), std::runtime_error);
  });
}

TEST(Spawn, FirstExceptionWinsAndAllTasksComplete) {
  xk::Runtime rt(cfg(4));
  std::atomic<int> completed{0};
  rt.run([&] {
    for (int i = 0; i < 20; ++i) {
      xk::spawn([&completed, i] {
        completed.fetch_add(1);
        if (i % 5 == 0) throw std::runtime_error("boom");
      });
    }
    EXPECT_THROW(xk::sync(), std::runtime_error);
    // Exceptions don't cancel siblings (propagate-after-drain semantics).
    EXPECT_EQ(completed.load(), 20);
  });
}

TEST(Spawn, ExceptionFromStolenTaskReachesParent) {
  xk::Runtime rt(cfg(4));
  EXPECT_THROW(rt.run([&] {
    for (int i = 0; i < 200; ++i) {
      xk::spawn([i] {
        if (i == 137) throw std::logic_error("stolen-boom");
        volatile int x = 0;
        for (int j = 0; j < 1000; ++j) x = x + j;
      });
    }
    xk::sync();
  }),
               std::logic_error);
}

// A closure whose copy always throws; big enough that an abandoned record
// left behind per spawn would add up fast.
struct ThrowingCopy {
  std::array<char, 2048> pad{};
  ThrowingCopy() = default;
  ThrowingCopy(const ThrowingCopy&) { throw std::runtime_error("copy failed"); }
  ThrowingCopy& operator=(const ThrowingCopy&) = delete;
  void operator()() const {}
};

TEST(Spawn, ThrowingClosureCopyLeavesFrameUsable) {
  // The closure is copied into the frame arena after the spawn record is
  // allocated. When the copy throws, nothing is published: the frame stays
  // pristine, its pop rewinds the arena over the abandoned record, and the
  // same task can still spawn and sync.
  xk::Runtime rt(cfg(1));
  constexpr int kTasks = 1000;
  std::atomic<int> caught{0}, ran{0};
  std::size_t max_arena = 0;
  rt.run([&] {
    for (int i = 0; i < kTasks; ++i) {
      xk::spawn([&, i] {
        const ThrowingCopy thrower;
        EXPECT_THROW(xk::spawn(thrower), std::runtime_error);
        caught.fetch_add(1);
        xk::Frame& f = xk::this_worker()->current_frame();
        EXPECT_TRUE(f.pristine());
        max_arena = std::max(max_arena, f.arena.bytes_allocated());
        if (i % 100 == 99) {
          xk::spawn([&ran] { ran.fetch_add(1); });
          xk::sync();
        }
      });
      xk::sync();
    }
  });
  EXPECT_EQ(caught.load(), kTasks);
  EXPECT_EQ(ran.load(), kTasks / 100);
  // Every task runs in the same recycled frame. Without the rewind, the
  // abandoned 2 KiB records of the pristine pops in between two full
  // resets would pile up to ~200 KiB instead of one block.
  EXPECT_LE(max_arena, std::size_t{64 * 1024});
}

TEST(Spawn, OversubscriptionStress) {
  // Many more workers than cores: correctness must not depend on parallelism.
  xk::Runtime rt(cfg(16));
  std::uint64_t result = 0;
  rt.run([&] {
    fib_task(&result, 18);
    xk::sync();
  });
  EXPECT_EQ(result, fib_seq(18));
}

TEST(Spawn, StealsHappenWithMultipleWorkers) {
  xk::Runtime rt(cfg(4));
  rt.reset_stats();
  std::uint64_t result = 0;
  rt.run([&] {
    fib_task(&result, 22);
    xk::sync();
  });
  EXPECT_EQ(result, fib_seq(22));
  const auto s = rt.stats_snapshot();
  EXPECT_GT(s.tasks_spawned, 0u);
  // On a 1-core CI box thieves may rarely win races, so only require the
  // machinery to have engaged when any steal succeeded.
  EXPECT_EQ(s.tasks_run_owner + s.tasks_run_thief, s.tasks_spawned);
}

}  // namespace
