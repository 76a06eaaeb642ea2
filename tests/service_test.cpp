// Service-mode tests: the submit/token lifecycle (completion waiting,
// cancellation before and during execution, result and exception
// propagation, admission rejection), overlapping sections, and the
// deterministic seeded admission/priority battery over the tenant
// scheduler. Everything here runs in ctest tier-1 (label "unit"); the
// oversubscribed racing variants live in service_hammer.cpp.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/xkaapi.hpp"

namespace {

xk::Config cfg(unsigned nworkers, unsigned sections = 2) {
  xk::Config c;
  c.nworkers = nworkers;
  c.sections = sections;
  c.bind_threads = false;  // CI boxes are small; don't fight the scheduler
  return c;
}

}  // namespace

// ---- token lifecycle ------------------------------------------------------

TEST(Service, SubmitFromNonWorkerThreadCompletes) {
  xk::Runtime rt(cfg(2));
  std::atomic<int> ran{0};
  xk::JobToken t = rt.submit([&] { ran.fetch_add(1); });
  ASSERT_TRUE(t.valid());
  t.wait();
  EXPECT_EQ(t.status(), xk::JobStatus::kDone);
  EXPECT_EQ(ran.load(), 1);
}

TEST(Service, ResultPropagatesThroughCapture) {
  xk::Runtime rt(cfg(2));
  std::atomic<std::uint64_t> result{0};
  xk::JobToken t = rt.submit([&] {
    std::uint64_t acc = 0;
    for (int i = 1; i <= 100; ++i) acc += static_cast<std::uint64_t>(i);
    result.store(acc);
  });
  t.get();  // kDone => no throw
  EXPECT_EQ(result.load(), 5050u);
}

TEST(Service, ManyJobsAllComplete) {
  xk::Runtime rt(cfg(4));
  constexpr int kJobs = 500;
  std::atomic<int> ran{0};
  std::vector<xk::JobToken> tokens;
  tokens.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    tokens.push_back(rt.submit([&] { ran.fetch_add(1); }));
  }
  for (auto& t : tokens) t.wait();
  EXPECT_EQ(ran.load(), kJobs);
  const xk::ServiceStats s = rt.service_stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(s.rejected, 0u);
}

TEST(Service, SubmittersOnManyExternalThreads) {
  xk::Runtime rt(cfg(2));
  constexpr int kThreads = 4, kPer = 50;
  std::atomic<int> ran{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int s = 0; s < kThreads; ++s) {
    threads.emplace_back([&] {
      std::vector<xk::JobToken> tokens;
      tokens.reserve(kPer);
      for (int i = 0; i < kPer; ++i) {
        tokens.push_back(rt.submit([&] { ran.fetch_add(1); }));
      }
      for (auto& t : tokens) t.wait();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ran.load(), kThreads * kPer);
}

TEST(Service, ExceptionPropagatesThroughGet) {
  xk::Runtime rt(cfg(2));
  xk::JobToken t =
      rt.submit([] { throw std::runtime_error("job body failed"); });
  t.wait();
  EXPECT_EQ(t.status(), xk::JobStatus::kFailed);
  EXPECT_THROW(t.get(), std::runtime_error);
  // A failed job must not leak its exception into the section of the
  // worker that ran it: later jobs run normally.
  xk::JobToken ok = rt.submit([] {});
  ok.get();
  EXPECT_EQ(ok.status(), xk::JobStatus::kDone);
}

// A job is its body plus its children: the token settles only after
// every task the body spawned finished, and a child's exception fails the
// job instead of escaping into the executing worker's section.
TEST(Service, JobSettlesAfterItsChildren) {
  std::atomic<int> child_done{0};
  xk::Runtime rt(cfg(2));
  xk::JobToken t = rt.submit([&child_done] {
    xk::spawn([&child_done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      child_done.store(1, std::memory_order_release);
    });
  });
  t.wait();
  EXPECT_EQ(child_done.load(std::memory_order_acquire), 1);
  EXPECT_EQ(t.status(), xk::JobStatus::kDone);
}

TEST(Service, ChildExceptionFailsTheJob) {
  xk::Runtime rt(cfg(2));
  xk::JobToken t = rt.submit([] {
    xk::spawn([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      throw std::runtime_error("child boom");
    });
  });
  t.wait();
  EXPECT_EQ(t.status(), xk::JobStatus::kFailed);
  try {
    t.get();
    ADD_FAILURE() << "get() did not rethrow the child's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "child boom");
  }
  EXPECT_EQ(rt.service_stats().failed, 1u);
  xk::JobToken ok = rt.submit([] {});
  ok.get();
  EXPECT_EQ(ok.status(), xk::JobStatus::kDone);
}

TEST(Service, WaitForTimesOutThenCompletes) {
  xk::Runtime rt(cfg(2));
  std::atomic<bool> release{false};
  xk::JobToken t = rt.submit([&] {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  EXPECT_FALSE(t.wait_for(std::chrono::milliseconds(20)));
  release.store(true, std::memory_order_release);
  EXPECT_TRUE(t.wait_for(std::chrono::seconds(30)));
  EXPECT_EQ(t.status(), xk::JobStatus::kDone);
}

// ---- cancellation ---------------------------------------------------------

TEST(Service, CancelBeforeExecutionWins) {
  // One pool worker and a blocking first job: the service thread is the
  // runtime's only executor and it is inside the blocker, so the jobs
  // queued behind it provably have not started when cancel() lands.
  xk::Runtime rt(cfg(1));
  std::atomic<bool> entered{false}, release{false};
  xk::JobToken blocker = rt.submit([&] {
    entered.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!entered.load(std::memory_order_acquire)) std::this_thread::yield();
  std::atomic<int> ran{0};
  xk::JobToken victim = rt.submit([&] { ran.fetch_add(1); });
  EXPECT_TRUE(victim.cancel());
  EXPECT_EQ(victim.status(), xk::JobStatus::kCancelled);
  victim.wait();  // already terminal: returns immediately
  EXPECT_FALSE(victim.cancel());  // second cancel cannot win again
  release.store(true, std::memory_order_release);
  blocker.wait();
  EXPECT_EQ(blocker.status(), xk::JobStatus::kDone);
  EXPECT_EQ(ran.load(), 0);  // the cancelled body never ran
}

TEST(Service, CancelAfterCompletionLoses) {
  xk::Runtime rt(cfg(2));
  xk::JobToken t = rt.submit([] {});
  t.wait();
  EXPECT_FALSE(t.cancel());
  EXPECT_EQ(t.status(), xk::JobStatus::kDone);
}

TEST(Service, CooperativeCancelDuringExecution) {
  xk::Runtime rt(cfg(2));
  std::atomic<bool> running{false};
  std::atomic<bool> observed{false};
  xk::JobToken t = rt.submit([&](xk::JobContext& ctx) {
    running.store(true, std::memory_order_release);
    while (!ctx.cancel_requested()) std::this_thread::yield();
    observed.store(true, std::memory_order_release);
  });
  while (!running.load(std::memory_order_acquire)) std::this_thread::yield();
  EXPECT_FALSE(t.cancel());  // too late to stop it starting...
  t.wait();                  // ...but the body sees the request and returns
  EXPECT_TRUE(observed.load());
  EXPECT_EQ(t.status(), xk::JobStatus::kDone);
  EXPECT_TRUE(t.cancel_requested());
}

// ---- the hand-off: idle workers pull from the lanes ----------------------

TEST(Service, StalledExecutorDoesNotStallTheLanes) {
  // One job holds its executor until the latch opens; the other idle
  // workers keep pulling, so the jobs queued behind it finish first.
  std::atomic<bool> entered{false}, latch{false};
  std::atomic<int> ran{0};
  xk::Runtime rt(cfg(3));
  xk::JobToken blocker = rt.submit([&] {
    entered.store(true, std::memory_order_release);
    while (!latch.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  while (!entered.load(std::memory_order_acquire)) std::this_thread::yield();
  std::vector<xk::JobToken> tokens;
  for (int i = 0; i < 200; ++i) {
    tokens.push_back(rt.submit([&ran] { ran.fetch_add(1); }));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  int late = 0;
  for (auto& t : tokens) {
    const auto left = deadline - std::chrono::steady_clock::now();
    if (!t.wait_for(std::max<std::chrono::nanoseconds>(left, {}))) ++late;
  }
  EXPECT_EQ(late, 0);
  EXPECT_EQ(ran.load(), 200);
  EXPECT_FALSE(blocker.done());
  latch.store(true, std::memory_order_release);
  blocker.wait();
  EXPECT_EQ(blocker.status(), xk::JobStatus::kDone);
}

TEST(Service, DestroyWhileWorkersPoll) {
  // ~Runtime while the pool is still pulling: the service thread keeps
  // its section open until the lanes are dry, and the lanes outlive every
  // worker that polls them. Every admitted token is terminal afterwards.
  constexpr int kSubmitters = 2, kPer = 500;
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> ran{0};
    std::array<std::vector<xk::JobToken>, kSubmitters> tokens;
    {
      xk::Runtime rt(cfg(4));
      std::vector<std::thread> subs;
      for (int s = 0; s < kSubmitters; ++s) {
        subs.emplace_back([&rt, &ran, &mine = tokens[s]] {
          mine.reserve(kPer);
          for (int i = 0; i < kPer; ++i) {
            mine.push_back(rt.submit(
                [&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
          }
        });
      }
      for (auto& t : subs) t.join();
    }
    int done = 0;
    for (auto& mine : tokens) {
      for (auto& t : mine) {
        ASSERT_TRUE(t.done()) << "round " << round;
        if (t.status() == xk::JobStatus::kDone) ++done;
      }
    }
    ASSERT_EQ(done, kSubmitters * kPer) << "round " << round;
    ASSERT_EQ(ran.load(), kSubmitters * kPer) << "round " << round;
  }
}

// ---- admission control ----------------------------------------------------

TEST(Service, FullLaneRejectsAtTheDoor) {
  xk::Config c = cfg(1);
  c.svc_queue_cap = 4;
  xk::Runtime rt(c);
  std::atomic<bool> entered{false}, release{false};
  xk::JobToken blocker = rt.submit([&] {
    entered.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!entered.load(std::memory_order_acquire)) std::this_thread::yield();
  // The blocker already left the queue; fill the lane to its cap, then
  // overflow it.
  std::vector<xk::JobToken> queued;
  for (int i = 0; i < 4; ++i) queued.push_back(rt.submit([] {}));
  xk::JobToken over = rt.submit([] {});
  EXPECT_EQ(over.status(), xk::JobStatus::kRejected);
  EXPECT_TRUE(over.done());
  over.wait();  // terminal: returns immediately
  EXPECT_THROW(over.get(), std::runtime_error);
  // Other tenants' lanes are unaffected by tenant 0's backlog.
  xk::SubmitOptions other;
  other.tenant = 1;
  xk::JobToken t1 = rt.submit([] {}, other);
  EXPECT_NE(t1.status(), xk::JobStatus::kRejected);
  release.store(true, std::memory_order_release);
  blocker.wait();
  for (auto& t : queued) t.wait();
  t1.wait();
  const xk::ServiceStats s = rt.service_stats();
  EXPECT_GE(s.rejected, 1u);
  EXPECT_LE(s.max_queued, 5u);  // cap + one same-batch tenant-1 job
}

// ---- overlapping sections -------------------------------------------------

TEST(Service, OverlappingClientSections) {
  // Two external threads hold begin()/end() sections open concurrently;
  // both spawn real work. With sections = 2 both must be admitted.
  xk::Runtime rt(cfg(2, /*sections=*/2));
  std::atomic<int> phase{0};
  std::atomic<std::uint64_t> sum{0};
  std::thread a([&] {
    rt.begin();
    phase.fetch_add(1);
    while (phase.load() < 2) std::this_thread::yield();  // b's section open
    // Stolen children run concurrently: the accumulator must be atomic.
    std::atomic<std::uint64_t> local{0};
    for (int i = 0; i < 64; ++i) {
      xk::spawn([&local, i] { local.fetch_add(static_cast<std::uint64_t>(i)); });
    }
    xk::sync();
    sum.fetch_add(local.load());
    rt.end();
  });
  std::thread b([&] {
    while (phase.load() < 1) std::this_thread::yield();  // a's section open
    rt.begin();
    phase.fetch_add(1);
    // Stolen children run concurrently: the accumulator must be atomic.
    std::atomic<std::uint64_t> local{0};
    for (int i = 0; i < 64; ++i) {
      xk::spawn([&local, i] { local.fetch_add(static_cast<std::uint64_t>(i)); });
    }
    xk::sync();
    sum.fetch_add(local.load());
    rt.end();
  });
  a.join();
  b.join();
  EXPECT_EQ(sum.load(), 2u * (64u * 63u / 2u));
  EXPECT_FALSE(rt.in_section());
  // Quiescence settled exactly once for the whole overlapping batch.
  EXPECT_EQ(rt.occupancy().root_occupied(), 0);
  EXPECT_FALSE(rt.occupancy().quiesce_armed());
}

TEST(Service, SectionSlotExhaustionThrows) {
  xk::Runtime rt(cfg(2, /*sections=*/1));
  rt.begin();
  std::thread t([&] {
    EXPECT_THROW(rt.begin(), std::logic_error);  // the only slot is busy
  });
  t.join();
  rt.end();
  // Slot released: a fresh section opens fine.
  rt.run([] {});
}

TEST(Service, SubmitWhileClientSectionOpen) {
  // submit() keeps working while a client holds a section open — the
  // service thread claims the other master slot and both proceed.
  xk::Runtime rt(cfg(2, /*sections=*/2));
  rt.begin();
  std::atomic<int> ran{0};
  std::vector<xk::JobToken> tokens;
  for (int i = 0; i < 32; ++i) {
    tokens.push_back(rt.submit([&] { ran.fetch_add(1); }));
  }
  for (auto& t : tokens) t.wait();
  EXPECT_EQ(ran.load(), 32);
  xk::spawn([] {});
  xk::sync();
  rt.end();
}

TEST(Service, JobsPulledByAClientKeepTheServiceThread) {
  // A client section's idle loop pulls the jobs the service thread was
  // woken for. The thread must go back to sleep, not exit: the job
  // submitted after the client closes has no other executor.
  xk::Runtime rt(cfg(2, /*sections=*/2));
  for (int round = 0; round < 100; ++round) {
    rt.begin();
    std::vector<xk::JobToken> pulled;
    for (int i = 0; i < 8; ++i) {
      pulled.push_back(rt.submit([] {
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::microseconds(20);
        while (std::chrono::steady_clock::now() < until) {
        }
      }));
    }
    xk::this_worker()->steal_until([&] {
      return std::all_of(pulled.begin(), pulled.end(),
                         [](const xk::JobToken& t) { return t.done(); });
    });
    rt.end();
    xk::JobToken after = rt.submit([] {});
    ASSERT_TRUE(after.wait_for(std::chrono::seconds(5))) << "round " << round;
  }
}

TEST(Service, NestedBeginOnSameThreadStillThrows) {
  // Overlap is per-thread-slot, not nesting: a bound thread cannot open a
  // second section even when free slots remain.
  xk::Runtime rt(cfg(2, /*sections=*/4));
  rt.begin();
  EXPECT_THROW(rt.begin(), std::logic_error);
  rt.end();
}

// ---- deterministic seeded admission + priority battery --------------------

TEST(ServicePriority, SmoothWrrPickSequenceIsDeterministic) {
  // Pure queue-engine replay: weights 4/2/1, all lanes kept non-empty.
  // Smooth WRR must give tenant 0 four of every seven picks, tenant 1
  // two, tenant 2 one — and the exact sequence must be reproducible.
  xk::ServiceQueue q(/*cap=*/0);
  q.set_weight(0, 4);
  q.set_weight(1, 2);
  q.set_weight(2, 1);
  auto mk = [](unsigned tenant) {
    auto st = std::make_shared<xk::detail::JobState>();
    st->tenant = tenant;
    return st;
  };
  for (int round = 0; round < 7; ++round) {
    for (unsigned t = 0; t < 3; ++t) q.push(mk(t));
  }
  std::vector<unsigned> picks;
  while (auto job = q.pop()) picks.push_back(job->tenant);
  ASSERT_EQ(picks.size(), 21u);
  // A full drain always returns 7 per tenant — the weights shape the
  // *order*. While every lane is backlogged (the first weight-sum picks),
  // each weight-7 cycle must hand tenant 0 four slots, tenant 1 two,
  // tenant 2 one — which also proves no tenant waits out a full cycle.
  unsigned first7[3] = {0, 0, 0};
  for (std::size_t i = 0; i < 7; ++i) first7[picks[i]]++;
  EXPECT_EQ(first7[0], 4u);
  EXPECT_EQ(first7[1], 2u);
  EXPECT_EQ(first7[2], 1u);
  unsigned count[3] = {0, 0, 0};
  for (std::size_t i = 0; i < picks.size(); ++i) count[picks[i]]++;
  EXPECT_EQ(count[0], 7u);
  EXPECT_EQ(count[1], 7u);
  EXPECT_EQ(count[2], 7u);
  // Determinism: a second identical replay yields the identical sequence.
  xk::ServiceQueue q2(0);
  q2.set_weight(0, 4);
  q2.set_weight(1, 2);
  q2.set_weight(2, 1);
  for (int round = 0; round < 7; ++round) {
    for (unsigned t = 0; t < 3; ++t) q2.push(mk(t));
  }
  std::vector<unsigned> picks2;
  while (auto job = q2.pop()) picks2.push_back(job->tenant);
  EXPECT_EQ(picks, picks2);
}

TEST(ServicePriority, SeededStressNoStarvationBoundedQueues) {
  // End-to-end seeded stress: three tenants with weights 4/2/1 and a
  // bounded lane cap, a fixed-seed submission storm, and the accounting
  // identity submitted == completed + cancelled + rejected (+ failed)
  // checked at the end. The low-priority tenant must finish work (no
  // starvation) and no lane may ever exceed its cap.
  xk::Config c = cfg(2);
  c.svc_queue_cap = 64;
  c.svc_weights = "4,2,1";
  xk::Runtime rt(c);
  std::mt19937 rng(0xC0FFEEu);  // fixed seed: deterministic tenant pattern
  constexpr int kJobs = 900;
  std::atomic<std::uint64_t> ran_per_tenant[3] = {{0}, {0}, {0}};
  std::vector<xk::JobToken> tokens;
  std::vector<unsigned> tenants;
  tokens.reserve(kJobs);
  tenants.reserve(kJobs);
  std::uint64_t accepted = 0, rejected = 0, cancel_wins = 0;
  for (int i = 0; i < kJobs; ++i) {
    const unsigned tenant = rng() % 3;
    xk::SubmitOptions opts;
    opts.tenant = tenant;
    xk::JobToken t = rt.submit(
        [&ran_per_tenant, tenant] { ran_per_tenant[tenant].fetch_add(1); },
        opts);
    if (t.status() == xk::JobStatus::kRejected) {
      ++rejected;
    } else {
      ++accepted;
      // Deterministically cancel every 97th accepted job; wins only count
      // when the CAS beat execution.
      if (accepted % 97 == 0 && t.cancel()) ++cancel_wins;
    }
    tokens.push_back(std::move(t));
    tenants.push_back(tenant);
  }
  for (auto& t : tokens) t.wait();
  std::uint64_t done = 0, cancelled = 0, failed = 0, rej = 0;
  for (auto& t : tokens) {
    switch (t.status()) {
      case xk::JobStatus::kDone: ++done; break;
      case xk::JobStatus::kCancelled: ++cancelled; break;
      case xk::JobStatus::kFailed: ++failed; break;
      case xk::JobStatus::kRejected: ++rej; break;
      default: FAIL() << "non-terminal token after wait";
    }
  }
  EXPECT_EQ(done + cancelled + failed + rej, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(rej, rejected);
  EXPECT_EQ(cancelled, cancel_wins);
  EXPECT_EQ(failed, 0u);
  // Every accepted-and-not-cancelled job ran exactly once.
  EXPECT_EQ(ran_per_tenant[0] + ran_per_tenant[1] + ran_per_tenant[2], done);
  // No starvation of the weight-1 tenant: it was offered ~300 jobs; a
  // scheduler that starved it would show (near-)zero completions.
  EXPECT_GT(ran_per_tenant[2].load(), 0u);
  // Bounded queues: the high-water mark cannot exceed the per-tenant cap
  // times the tenant count.
  const xk::ServiceStats s = rt.service_stats();
  EXPECT_LE(s.max_queued, 3u * c.svc_queue_cap);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.submitted, accepted);
  EXPECT_EQ(s.rejected, rejected);
}

TEST(ServicePriority, WeightedTenantsDrainWithoutStarvation) {
  // Live-runtime ordering probe at one pool worker: a heavy backlog on
  // the weight-8 tenant must not stop the weight-1 tenant's jobs from
  // completing promptly among them.
  xk::Config c = cfg(1);
  c.svc_weights = "8,1";
  xk::Runtime rt(c);
  std::atomic<bool> entered{false}, release{false};
  xk::JobToken blocker = rt.submit([&] {
    entered.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!entered.load(std::memory_order_acquire)) std::this_thread::yield();
  // Backlog both lanes while the only executor is pinned in the blocker.
  std::vector<unsigned> completion_order;
  std::mutex order_mu;
  std::vector<xk::JobToken> tokens;
  for (int i = 0; i < 40; ++i) {
    const unsigned tenant = i < 32 ? 0u : 1u;  // 32 heavy, 8 light
    xk::SubmitOptions opts;
    opts.tenant = tenant;
    tokens.push_back(rt.submit(
        [&completion_order, &order_mu, tenant] {
          std::lock_guard lock(order_mu);
          completion_order.push_back(tenant);
        },
        opts));
  }
  release.store(true, std::memory_order_release);
  for (auto& t : tokens) t.wait();
  ASSERT_EQ(completion_order.size(), 40u);
  // The first light-tenant completion must come well before the heavy
  // lane drains: smooth WRR at 8:1 interleaves one light job at least
  // every 9 picks.
  std::size_t first_light = completion_order.size();
  for (std::size_t i = 0; i < completion_order.size(); ++i) {
    if (completion_order[i] == 1u) {
      first_light = i;
      break;
    }
  }
  EXPECT_LT(first_light, 16u);
}
