// Unit tests for the support layer: padding, env parsing, RNG determinism,
// timing statistics, barrier, table rendering.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

#include <atomic>
#include <chrono>

#include "support/barrier.hpp"
#include "support/cache.hpp"
#include "support/env.hpp"
#include "support/parker.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/timing.hpp"

namespace {

TEST(Cache, PaddedElementsDontShareCacheLines) {
  std::vector<xk::Padded<int>> v(4);
  for (std::size_t i = 1; i < v.size(); ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&v[i - 1].value);
    const auto b = reinterpret_cast<std::uintptr_t>(&v[i].value);
    EXPECT_GE(b - a, xk::kCacheLine);
  }
}

TEST(Cache, RoundUp) {
  EXPECT_EQ(xk::round_up(0, 64), 0u);
  EXPECT_EQ(xk::round_up(1, 64), 64u);
  EXPECT_EQ(xk::round_up(64, 64), 64u);
  EXPECT_EQ(xk::round_up(65, 64), 128u);
  EXPECT_EQ(xk::round_up(13, 8), 16u);
}

TEST(Env, IntParsingAndFallback) {
  ::setenv("XK_TEST_INT", "42", 1);
  EXPECT_EQ(xk::env_int("XK_TEST_INT", 7), 42);
  ::setenv("XK_TEST_INT", "not-a-number", 1);
  EXPECT_EQ(xk::env_int("XK_TEST_INT", 7), 7);
  ::setenv("XK_TEST_INT", "12abc", 1);
  EXPECT_EQ(xk::env_int("XK_TEST_INT", 7), 7);
  ::unsetenv("XK_TEST_INT");
  EXPECT_EQ(xk::env_int("XK_TEST_INT", 7), 7);
}

TEST(Env, BoolParsing) {
  ::setenv("XK_TEST_BOOL", "true", 1);
  EXPECT_TRUE(xk::env_bool("XK_TEST_BOOL", false));
  ::setenv("XK_TEST_BOOL", "OFF", 1);
  EXPECT_FALSE(xk::env_bool("XK_TEST_BOOL", true));
  ::setenv("XK_TEST_BOOL", "banana", 1);
  EXPECT_TRUE(xk::env_bool("XK_TEST_BOOL", true));
  ::unsetenv("XK_TEST_BOOL");
}

TEST(Env, DoubleParsing) {
  ::setenv("XK_TEST_DBL", "2.5", 1);
  EXPECT_DOUBLE_EQ(xk::env_double("XK_TEST_DBL", 1.0), 2.5);
  ::unsetenv("XK_TEST_DBL");
  EXPECT_DOUBLE_EQ(xk::env_double("XK_TEST_DBL", 1.0), 1.0);
}

TEST(Rng, DeterministicAcrossInstances) {
  xk::Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  xk::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  xk::Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  xk::Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ---------------------------------------------------------------------------
// Parker (timed eventcount for idle parking).
// ---------------------------------------------------------------------------

TEST(Parker, NotifyBetweenPrepareAndParkIsNotLost) {
  // A notification landing after prepare() must make park() return
  // immediately as "notified" — the no-lost-wakeup core of the protocol.
  xk::Parker p;
  const std::uint32_t e = p.prepare();
  p.notify_one();
  p.announce();
  EXPECT_TRUE(p.park(e, std::chrono::seconds(10)));
  p.retract();
}

TEST(Parker, TimeoutExpiresWithoutNotify) {
  xk::Parker p;
  const std::uint32_t e = p.prepare();
  p.announce();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(p.park(e, std::chrono::milliseconds(5)));
  p.retract();
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(4));
}

TEST(Parker, NoLostWakeupUnderSpawnParkRace) {
  // The spawn/park race: a publisher that observes the announce must wake
  // the sleeper. The announce is published before `armed` flips, so every
  // notify_one here happens-after the waiter registered — no round may
  // sleep out the (long) timeout. A lost wake is judged by the time the
  // round slept, not by park()'s return value: park() also returns false
  // on a stale futex wake (a notify preempted between its seq bump and
  // its FUTEX_WAKE wakes the next sleep), so each round re-parks until seq
  // actually moves. Such a stale wake is what used to leave wake_pending_
  // set across rounds and drop the next notify.
  xk::Parker p;
  constexpr int kRounds = 200;
  constexpr auto kLost = std::chrono::seconds(5);
  // Round-stamped handshake (a plain bool would let the fast side lap the
  // slow one and desynchronize the phases): `armed` == i+1 means the
  // round-i waiter has announced; `acked` == i+1 means it woke.
  std::atomic<int> armed{0};
  std::atomic<int> acked{0};
  int lost = 0;

  std::thread waiter([&] {
    for (int i = 0; i < kRounds; ++i) {
      const std::uint32_t e = p.prepare();
      p.announce();
      armed.store(i + 1, std::memory_order_release);
      const auto t0 = std::chrono::steady_clock::now();
      auto slept = std::chrono::steady_clock::duration::zero();
      while (p.prepare() == e && slept < kLost) {
        p.park(e, kLost - slept);
        slept = std::chrono::steady_clock::now() - t0;
      }
      p.retract();
      if (slept >= kLost) ++lost;
      acked.store(i + 1, std::memory_order_release);
    }
  });
  std::thread publisher([&] {
    for (int i = 0; i < kRounds; ++i) {
      while (armed.load(std::memory_order_acquire) < i + 1) {
        std::this_thread::yield();
      }
      p.notify_one();
      // Wait until the round-i waiter actually woke before the next round.
      while (acked.load(std::memory_order_acquire) < i + 1) {
        std::this_thread::yield();
      }
    }
  });
  waiter.join();
  publisher.join();
  EXPECT_EQ(lost, 0);
}

TEST(Parker, NotifyAllWakesEveryWaiter) {
  xk::Parker p;
  constexpr int kWaiters = 4;
  std::atomic<int> woken{0};
  std::atomic<int> announced{0};
  std::vector<std::thread> threads;
  threads.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&] {
      const std::uint32_t e = p.prepare();
      p.announce();
      announced.fetch_add(1);
      if (p.park(e, std::chrono::seconds(30))) woken.fetch_add(1);
      p.retract();
    });
  }
  while (announced.load() < kWaiters) std::this_thread::yield();
  p.notify_all();
  for (auto& t : threads) t.join();
  EXPECT_EQ(woken.load(), kWaiters);
  EXPECT_EQ(p.waiters(), 0u);
}

TEST(Stats, FromSamples) {
  const auto s = xk::RunStats::from_samples({1.0, 2.0, 3.0});
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_NEAR(s.stddev, 1.0, 1e-12);
}

TEST(Stats, EmptyAndSingle) {
  EXPECT_EQ(xk::RunStats::from_samples({}).count, 0u);
  const auto s = xk::RunStats::from_samples({5.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Barrier, ManyThreadsManyRounds) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  xk::SenseBarrier barrier(kThreads);
  std::vector<int> counters(kThreads, 0);
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        counters[t] = r + 1;
        barrier.arrive_and_wait();
        // Everyone must observe all counters at r+1 between barriers.
        for (int u = 0; u < kThreads; ++u) {
          if (counters[u] != r + 1) mismatches.fetch_add(1);
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Table, PrettyAndCsv) {
  xk::Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333"});
  std::ostringstream pretty;
  t.print(pretty);
  EXPECT_NE(pretty.str().find("333"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "a,bb\n1,2\n333,\n");
  EXPECT_EQ(xk::Table::num(1.23456, 2), "1.23");
}

}  // namespace
