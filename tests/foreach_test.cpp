// Parallel loop (adaptive task, §II-E) tests: exactly-once coverage under
// random parameters, reductions, nesting, exceptions, splitter stats.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/xkaapi.hpp"

namespace {

xk::Config cfg(unsigned n) {
  xk::Config c;
  c.nworkers = n;
  c.bind_threads = false;
  return c;
}

TEST(Foreach, EmptyAndTinyRanges) {
  xk::Runtime rt(cfg(4));
  rt.run([&] {
    int hits = 0;
    xk::parallel_for(0, 0, [&](std::int64_t, std::int64_t) { ++hits; });
    EXPECT_EQ(hits, 0);
    std::atomic<int> one{0};
    xk::parallel_for(5, 6, [&](std::int64_t lo, std::int64_t hi) {
      one += static_cast<int>(hi - lo);
    });
    EXPECT_EQ(one.load(), 1);
  });
}

TEST(Foreach, NegativeRangeIsNoop) {
  xk::Runtime rt(cfg(2));
  rt.run([&] {
    int hits = 0;
    xk::parallel_for(10, 3, [&](std::int64_t, std::int64_t) { ++hits; });
    EXPECT_EQ(hits, 0);
  });
}

struct CoverParams {
  std::uint64_t workers;  // 64-bit: an unsigned here would leave 4 padding
                          // bytes, and gtest names the cases by raw bytes
  std::int64_t n;
  std::int64_t grain;
};
static_assert(std::has_unique_object_representations_v<CoverParams>);

class ForeachCoverage : public ::testing::TestWithParam<CoverParams> {};

TEST_P(ForeachCoverage, EveryIndexExactlyOnce) {
  const auto p = GetParam();
  xk::Runtime rt(cfg(static_cast<unsigned>(p.workers)));
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(p.n));
  for (auto& h : hits) h.store(0);
  rt.run([&] {
    xk::ForeachOptions opt;
    opt.grain = p.grain;
    xk::parallel_for(
        0, p.n,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                        std::memory_order_relaxed);
          }
        },
        opt);
  });
  for (std::int64_t i = 0; i < p.n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ForeachCoverage,
    ::testing::Values(CoverParams{1, 1000, 0}, CoverParams{2, 1000, 1},
                      CoverParams{2, 100000, 0}, CoverParams{4, 99991, 7},
                      CoverParams{4, 1 << 17, 64}, CoverParams{8, 12345, 0},
                      CoverParams{3, 17, 1}, CoverParams{16, 50000, 16}));

TEST(Foreach, NonZeroBasedRange) {
  xk::Runtime rt(cfg(4));
  std::atomic<std::int64_t> sum{0};
  rt.run([&] {
    xk::parallel_for(1000, 2000, [&](std::int64_t lo, std::int64_t hi) {
      std::int64_t local = 0;
      for (std::int64_t i = lo; i < hi; ++i) local += i;
      sum.fetch_add(local);
    });
  });
  EXPECT_EQ(sum.load(), (1000 + 1999) * 1000 / 2);
}

TEST(Foreach, WorkerIdWithinBounds) {
  xk::Runtime rt(cfg(4));
  std::atomic<bool> bad{false};
  rt.run([&] {
    xk::parallel_for(0, 50000,
                     [&](std::int64_t, std::int64_t, unsigned wid) {
                       if (wid >= 4) bad.store(true);
                     });
  });
  EXPECT_FALSE(bad.load());
}

TEST(Foreach, SerialFallbackOutsideRuntime) {
  long sum = 0;
  xk::parallel_for(0, 100, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum, 4950);
}

TEST(Foreach, ParallelForIndex) {
  xk::Runtime rt(cfg(4));
  std::vector<int> v(10000, 0);
  rt.run([&] {
    xk::parallel_for_index(0, static_cast<std::int64_t>(v.size()),
                           [&](std::int64_t i) {
                             v[static_cast<std::size_t>(i)] =
                                 static_cast<int>(i % 7);
                           });
  });
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(v[i], static_cast<int>(i % 7));
  }
}

TEST(Foreach, SequentialLoopsBackToBack) {
  xk::Runtime rt(cfg(4));
  std::vector<double> a(50000, 1.0);
  rt.run([&] {
    for (int pass = 0; pass < 5; ++pass) {
      xk::parallel_for(0, static_cast<std::int64_t>(a.size()),
                       [&](std::int64_t lo, std::int64_t hi) {
                         for (std::int64_t i = lo; i < hi; ++i) {
                           a[static_cast<std::size_t>(i)] *= 2.0;
                         }
                       });
    }
  });
  for (double v : a) ASSERT_DOUBLE_EQ(v, 32.0);
}

TEST(Foreach, NestedParallelFor) {
  xk::Runtime rt(cfg(4));
  constexpr std::int64_t kOuter = 8, kInner = 1000;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0);
  rt.run([&] {
    xk::parallel_for(0, kOuter, [&](std::int64_t olo, std::int64_t ohi) {
      for (std::int64_t o = olo; o < ohi; ++o) {
        xk::parallel_for(0, kInner, [&, o](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            hits[static_cast<std::size_t>(o * kInner + i)].fetch_add(1);
          }
        });
      }
    });
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(Foreach, ExceptionCancelsAndRethrows) {
  xk::Runtime rt(cfg(4));
  rt.run([&] {
    std::atomic<std::int64_t> before{0};
    EXPECT_THROW(
        xk::parallel_for(0, 1 << 20,
                         [&](std::int64_t lo, std::int64_t hi) {
                           if (lo == 0) throw std::runtime_error("loop-fail");
                           before.fetch_add(hi - lo);
                         }),
        std::runtime_error);
    // Cancellation is cooperative: far fewer iterations than the range ran.
    EXPECT_LT(before.load(), (std::int64_t{1} << 20));
  });
}

TEST(Foreach, RuntimeUsableAfterLoopException) {
  xk::Runtime rt(cfg(4));
  rt.run([&] {
    EXPECT_THROW(xk::parallel_for(0, 10000,
                                  [&](std::int64_t, std::int64_t) {
                                    throw std::logic_error("x");
                                  }),
                 std::logic_error);
    std::atomic<std::int64_t> n{0};
    xk::parallel_for(0, 10000, [&](std::int64_t lo, std::int64_t hi) {
      n.fetch_add(hi - lo);
    });
    EXPECT_EQ(n.load(), 10000);
  });
}

TEST(Reduce, SumMatchesClosedForm) {
  xk::Runtime rt(cfg(4));
  rt.run([&] {
    const auto sum = xk::parallel_reduce(
        0, 1000000, std::int64_t{0},
        [](std::int64_t lo, std::int64_t hi, std::int64_t& acc) {
          for (std::int64_t i = lo; i < hi; ++i) acc += i;
        },
        [](std::int64_t a, std::int64_t b) { return a + b; });
    EXPECT_EQ(sum, 999999LL * 1000000 / 2);
  });
}

TEST(Reduce, MaxReduction) {
  xk::Runtime rt(cfg(4));
  std::vector<int> v(100000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<int>((i * 2654435761u) % 1000003);
  }
  const int expected = *std::max_element(v.begin(), v.end());
  rt.run([&] {
    const int got = xk::parallel_reduce(
        0, static_cast<std::int64_t>(v.size()), 0,
        [&](std::int64_t lo, std::int64_t hi, int& acc) {
          for (std::int64_t i = lo; i < hi; ++i) {
            acc = std::max(acc, v[static_cast<std::size_t>(i)]);
          }
        },
        [](int a, int b) { return std::max(a, b); });
    EXPECT_EQ(got, expected);
  });
}

TEST(Reduce, ParallelSumHelper) {
  xk::Runtime rt(cfg(3));
  rt.run([&] {
    const auto s = xk::parallel_sum<long>(
        0, 10000, [](std::int64_t i) { return static_cast<long>(i % 10); });
    EXPECT_EQ(s, 45000L);
  });
}

TEST(Foreach, ChunkStatsRecorded) {
  xk::Runtime rt(cfg(2));
  rt.reset_stats();
  rt.run([&] {
    xk::parallel_for(0, 100000, [](std::int64_t, std::int64_t) {});
  });
  EXPECT_GT(rt.stats_snapshot().foreach_chunks, 0u);
}

TEST(Foreach, DomainPartitionCoversExactlyOnce) {
  // Domain-partitioned deal on a synthetic two-domain machine: every index
  // is still visited exactly once, for every explicit partition mode.
  xk::Config c = cfg(4);
  c.topo = "2x2";
  xk::Runtime rt(c);
  ASSERT_EQ(rt.ndomains(), 2u);
  for (xk::ForeachPartition mode :
       {xk::ForeachPartition::kAuto, xk::ForeachPartition::kFlat,
        xk::ForeachPartition::kDomain}) {
    const std::int64_t n = 100000;
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    xk::ForeachOptions opt;
    opt.partition = mode;
    opt.grain = 64;  // small grain: force splits and slice claims
    rt.run([&] {
      xk::parallel_for(
          0, n,
          [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t i = lo; i < hi; ++i) {
              hits[static_cast<std::size_t>(i)].fetch_add(
                  1, std::memory_order_relaxed);
            }
          },
          opt);
    });
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "mode " << static_cast<int>(mode) << " index " << i;
    }
  }
}

TEST(Foreach, LastPieceWakesItsParkedWaiter) {
  // Targeted retirement wake: the worker waiting for a loop's last live
  // piece sleeps on its own parker, and that piece's retirement must end
  // the sleep by notification, not by the park timeout. The master's
  // slice (index 0) ends as soon as the other slice was picked up
  // elsewhere, so the master cannot claim it; that stolen piece spins
  // ~20 ms, long enough for the master to run dry and park.
  xk::Config c = cfg(2);
  c.topo = "1x2";
  xk::Runtime rt(c);
  xk::ForeachOptions opt;
  opt.grain = 1;
  int shaped = 0;  // attempts where the master ran its slice and parked
  for (int attempt = 0; attempt < 40; ++attempt) {
    std::atomic<bool> piece_started{false};
    std::atomic<unsigned> slice_wid{~0u}, piece_wid{~0u};
    unsigned master = 0;
    xk::WorkerStats before, after;
    rt.run([&] {
      xk::Worker& self = *xk::this_worker();
      master = self.id();
      before = self.stats();
      xk::parallel_for(
          0, 2,
          [&](std::int64_t lo, std::int64_t, unsigned wid) {
            const auto now = [] { return std::chrono::steady_clock::now(); };
            if (lo == 0) {
              slice_wid.store(wid);
              const auto until = now() + std::chrono::milliseconds(50);
              while (!piece_started.load() && now() < until) {
                std::this_thread::yield();
              }
            } else {
              piece_wid.store(wid);
              piece_started.store(true);
              const auto until = now() + std::chrono::milliseconds(20);
              while (now() < until) {
              }
            }
          },
          opt);
      after = self.stats();
    });
    // A stolen root or a piece run by the master itself is another shape:
    // the master's parks would then include join waits. Retry.
    if (slice_wid.load() != master || piece_wid.load() == master) continue;
    if (after.parks == before.parks) continue;
    ++shaped;
    // The notification can miss a park only when the piece retires while
    // the master is between two parks; one notified park is the proof.
    if (after.park_wakes > before.park_wakes) return;
  }
  // On a 1-core box the master may never get to park while the piece runs;
  // completing every loop is then all this machine can demonstrate.
  EXPECT_EQ(shaped, 0) << "the master parked in " << shaped
                       << " attempts, and no park ended by notification";
}

}  // namespace
