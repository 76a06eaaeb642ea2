// Service-mode concurrency hammer: N external submitter threads racing
// cancellation against execution while M client threads open and close
// overlapping sections on the same runtime. The sanitizer CI job (which
// runs every label) is the real gate: TSan must see clean happens-before
// edges across the job state machine (submit -> CAS -> finish -> token
// wait), the section-lifecycle lock (master slot claim, quiesce arm/fire,
// obs drain), and the WRR queue, with ASan guarding the job-body/shared_ptr
// lifetimes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/xkaapi.hpp"
#include "support/rng.hpp"

namespace {

constexpr int kSubmitters = 3;
constexpr int kJobsPerSubmitter = 200;
constexpr int kClients = 2;
constexpr int kClientSections = 8;
constexpr int kSpawnsPerSection = 64;

/// Polls service_stats() until every admitted job's accounting has settled
/// executor-side (cancel-after-queue settles only when a worker pops
/// the corpse, so token-terminal does not imply stats-terminal).
bool wait_stats_settled(xk::Runtime& rt, std::chrono::seconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  for (;;) {
    const xk::ServiceStats s = rt.service_stats();
    if (s.completed + s.failed + s.cancelled == s.submitted &&
        s.queued == 0) {
      return true;
    }
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServiceHammer, GlobalLockSubmittersVsOverlappingSections) {
  xk::Config c;
  c.nworkers = 4;
  c.sections = 3;  // service thread + two client masters, all overlapping
  c.bind_threads = false;
  c.svc_queue_cap = 0;  // unbounded: every submit must turn terminal
  xk::Runtime rt(c);

  std::atomic<std::int64_t> job_work{0};
  std::atomic<std::int64_t> client_work{0};
  std::atomic<int> done_tokens{0};
  std::atomic<int> cancelled_tokens{0};
  std::atomic<int> failed_tokens{0};

  std::vector<std::thread> threads;

  // Submitters: every job either bumps the shared counter or throws; every
  // third token gets a cancel() racing the executor's claim, and every
  // seventh job cooperates with mid-flight cancellation requests.
  for (int s = 0; s < kSubmitters; ++s) {
    threads.emplace_back([&, s] {
      xk::Rng rng(static_cast<std::uint64_t>(s) * 7919 + 13);
      for (int i = 0; i < kJobsPerSubmitter; ++i) {
        xk::SubmitOptions opts;
        opts.tenant = static_cast<unsigned>(rng.next() % 3);
        xk::JobToken tok;
        if (i % 11 == 5) {
          tok = rt.submit([] { throw std::runtime_error("hammer"); }, opts);
        } else if (i % 7 == 3) {
          tok = rt.submit(
              [&job_work](xk::JobContext& ctx) {
                for (int spin = 0; spin < 64; ++spin) {
                  if (ctx.cancel_requested()) break;
                  std::this_thread::yield();
                }
                job_work.fetch_add(1, std::memory_order_relaxed);
              },
              opts);
          tok.request_cancel();  // cooperative: job still finishes kDone
        } else {
          tok = rt.submit(
              [&job_work] {
                job_work.fetch_add(1, std::memory_order_relaxed);
              },
              opts);
        }
        if (i % 3 == 0) tok.cancel();  // race the executor's kRunning CAS
        if (i % 5 == 0) {
          tok.wait();
        } else if (i % 5 == 1) {
          tok.wait_for(std::chrono::microseconds(rng.next() % 200));
        }
        switch (tok.status()) {
          case xk::JobStatus::kDone: done_tokens.fetch_add(1); break;
          case xk::JobStatus::kCancelled: cancelled_tokens.fetch_add(1); break;
          case xk::JobStatus::kFailed: failed_tokens.fetch_add(1); break;
          default: break;  // still queued/running: settled below via wait()
        }
      }
    });
  }

  // Clients: overlapping begin()/end() sections with fork-join bursts, so
  // the service thread's sections and the client masters share the pool, the
  // OccupancyBoard, and the parker wake paths the whole time.
  for (int cidx = 0; cidx < kClients; ++cidx) {
    threads.emplace_back([&] {
      for (int round = 0; round < kClientSections; ++round) {
        for (;;) {
          try {
            rt.begin();
            break;
          } catch (const std::logic_error&) {
            // All master slots busy: the other client + service thread hold
            // them. Back off and retry; slot release is the thing under
            // test here, not fairness.
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        }
        for (int i = 0; i < kSpawnsPerSection; ++i) {
          xk::spawn([&client_work] {
            client_work.fetch_add(1, std::memory_order_relaxed);
          });
        }
        xk::sync();
        rt.end();
      }
    });
  }

  for (auto& t : threads) t.join();

  // Every admitted job must settle executor-side even though submitters
  // only waited on a sample of their tokens.
  ASSERT_TRUE(wait_stats_settled(rt, std::chrono::seconds(30)));

  const xk::ServiceStats stats = rt.service_stats();
  EXPECT_EQ(stats.submitted + stats.rejected,
            static_cast<std::uint64_t>(kSubmitters * kJobsPerSubmitter));
  EXPECT_EQ(stats.rejected, 0u);  // unbounded queue: admission never fails
  EXPECT_EQ(stats.completed + stats.failed + stats.cancelled,
            stats.submitted);
  // Done jobs and the shared counter agree: no job ran twice or vanished.
  EXPECT_EQ(job_work.load(), static_cast<std::int64_t>(stats.completed));
  EXPECT_EQ(client_work.load(),
            static_cast<std::int64_t>(kClients) * kClientSections *
                kSpawnsPerSection);
  // All sections close: the service thread holds its own open for a 200 us
  // idle grace after the last job, so poll for the fold and for the close
  // to finish (the root count drops inside end(), before the close is
  // whole). Once flat, nothing may stay armed and no gauge bleed from the
  // overlap.
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((rt.occupancy().root_occupied() != 0 || rt.in_section()) &&
         std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(rt.in_section());
  EXPECT_EQ(rt.occupancy().root_occupied(), 0);
  EXPECT_FALSE(rt.occupancy().quiesce_armed());
}

// Shutdown drain: destroy the runtime with hundreds of jobs still queued
// and none of their tokens waited. Admission is a promise — the stopping
// runtime must run every admitted job before its pool joins, every token
// must be terminal the moment ~Runtime returns, and the tokens (which
// outlive the runtime via their shared state) must stay safe to query and
// wait on afterwards (ASan's gate).
TEST(ServiceHammer, ShutdownDrainsQueuedJobsTokensOutliveRuntime) {
  for (int round = 0; round < 4; ++round) {
    constexpr int kJobs = 300;
    std::atomic<int> ran{0};
    std::vector<xk::JobToken> tokens;
    tokens.reserve(kJobs);
    {
      xk::Config c;
      c.nworkers = 2;
      c.bind_threads = false;
      xk::Runtime rt(c);
      for (int i = 0; i < kJobs; ++i) {
        tokens.push_back(rt.submit([&ran] {
          ran.fetch_add(1, std::memory_order_relaxed);
        }));
      }
      // No waits: ~Runtime races the workers mid-burst.
    }
    int done = 0;
    for (xk::JobToken& tok : tokens) {
      tok.wait();  // must return immediately: state is already terminal
      ASSERT_NE(tok.status(), xk::JobStatus::kQueued);
      ASSERT_NE(tok.status(), xk::JobStatus::kRunning);
      if (tok.status() == xk::JobStatus::kDone) ++done;
    }
    EXPECT_EQ(done, kJobs);
    EXPECT_EQ(ran.load(), kJobs);
  }
}

}  // namespace
