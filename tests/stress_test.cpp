// Stress and failure-injection suites: oversubscription, frame-chunk
// boundaries, arena recycling across sections, mixed paradigms under churn,
// exception storms, runtime reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "core/frame.hpp"
#include "core/readylist.hpp"
#include "core/xkaapi.hpp"
#include "support/rng.hpp"

namespace {

xk::Config cfg(unsigned n) {
  xk::Config c;
  c.nworkers = n;
  c.bind_threads = false;
  return c;
}

TEST(Stress, ManySectionsReuseFrames) {
  // Arena/frame recycling across many begin/end cycles must not leak or
  // corrupt (the arena never runs destructors; trampolines must).
  xk::Runtime rt(cfg(3));
  for (int section = 0; section < 200; ++section) {
    std::atomic<int> hits{0};
    rt.run([&] {
      for (int i = 0; i < 50; ++i) {
        std::vector<int> payload(16, section);
        xk::spawn([payload, &hits] {
          hits.fetch_add(payload[0] >= 0 ? 1 : 0);
        });
      }
      xk::sync();
    });
    ASSERT_EQ(hits.load(), 50);
  }
}

TEST(Stress, FrameChunkBoundaries) {
  // Spawn counts straddling the 128-task chunk size of Frame.
  xk::Runtime rt(cfg(2));
  for (int count : {127, 128, 129, 255, 256, 257, 1024}) {
    std::atomic<int> hits{0};
    rt.run([&] {
      for (int i = 0; i < count; ++i) xk::spawn([&hits] { hits.fetch_add(1); });
      xk::sync();
    });
    ASSERT_EQ(hits.load(), count) << "count=" << count;
  }
}

TEST(Stress, HeavyOversubscription) {
  // 24 workers on (likely) far fewer cores: progress + correctness only.
  xk::Runtime rt(cfg(24));
  std::atomic<std::int64_t> sum{0};
  rt.run([&] {
    xk::parallel_for(0, 100000, [&](std::int64_t lo, std::int64_t hi) {
      std::int64_t local = 0;
      for (std::int64_t i = lo; i < hi; ++i) local += i % 13;
      sum.fetch_add(local);
    });
  });
  std::int64_t expect = 0;
  for (std::int64_t i = 0; i < 100000; ++i) expect += i % 13;
  EXPECT_EQ(sum.load(), expect);
}

TEST(Stress, MixedParadigmChurn) {
  // Fork-join recursion + dataflow chains + loops, interleaved repeatedly.
  xk::Runtime rt(cfg(4));
  xk::Rng rng(77);
  for (int round = 0; round < 10; ++round) {
    long chain = 0;
    std::atomic<long> loop_sum{0};
    std::atomic<int> leaves{0};
    rt.run([&] {
      std::function<void(int)> tree = [&](int d) {
        if (d == 0) {
          leaves.fetch_add(1);
          return;
        }
        xk::spawn([&tree, d] { tree(d - 1); });
        xk::spawn([&tree, d] { tree(d - 1); });
        xk::sync();
      };
      tree(6);
      for (int i = 0; i < 32; ++i) {
        xk::spawn([](long* c) { *c = *c * 3 + 1; }, xk::rw(&chain));
      }
      xk::parallel_for(0, 20000, [&](std::int64_t lo, std::int64_t hi) {
        loop_sum.fetch_add(hi - lo);
      });
      xk::sync();
    });
    ASSERT_EQ(leaves.load(), 64);
    ASSERT_EQ(loop_sum.load(), 20000);
    long expect = 0;
    for (int i = 0; i < 32; ++i) expect = expect * 3 + 1;
    ASSERT_EQ(chain, expect);
  }
}

TEST(Stress, ExceptionStorm) {
  // Many failing tasks across many sections: the runtime must stay usable
  // and never lose the first exception.
  xk::Runtime rt(cfg(4));
  for (int round = 0; round < 20; ++round) {
    bool threw = false;
    try {
      rt.run([&] {
        for (int i = 0; i < 100; ++i) {
          xk::spawn([i] {
            if (i % 3 == 0) throw std::runtime_error("storm");
          });
        }
        xk::sync();
      });
    } catch (const std::runtime_error&) {
      threw = true;
    }
    ASSERT_TRUE(threw);
  }
  int ok = 0;
  rt.run([&] { ok = 1; });
  EXPECT_EQ(ok, 1);
}

TEST(Stress, ExceptionInsideNestedTask) {
  xk::Runtime rt(cfg(3));
  EXPECT_THROW(rt.run([&] {
    xk::spawn([] {
      xk::spawn([] {
        xk::spawn([] { throw std::logic_error("deep"); });
        xk::sync();
      });
      // implicit sync at body end propagates upward
    });
    xk::sync();
  }),
               std::logic_error);
}

TEST(Stress, RenamingUnderChurn) {
  xk::Config c = cfg(4);
  c.renaming = true;
  xk::Runtime rt(c);
  for (int round = 0; round < 10; ++round) {
    std::vector<int> slots(8, 0);
    rt.run([&] {
      // Interleaved independent WAW chains over few slots: heavy renaming
      // opportunity; program order must still win per slot.
      for (int step = 0; step < 50; ++step) {
        for (std::size_t s = 0; s < slots.size(); ++s) {
          xk::spawn(
              [](int* p, int v) {
                volatile int spin = 0;
                for (int i = 0; i < 50; ++i) spin = spin + i;
                *p = v;
              },
              xk::write(&slots[s]), step);
        }
      }
      xk::sync();
    });
    for (int v : slots) ASSERT_EQ(v, 49);
  }
}

TEST(Stress, TinyReadyListThreshold) {
  // Threshold 1 forces the accelerating structure on nearly every blocked
  // scan; correctness must be unaffected.
  xk::Config c = cfg(4);
  c.ready_list_threshold = 1;
  xk::Runtime rt(c);
  std::int64_t acc = 0;
  rt.run([&] {
    for (int i = 0; i < 500; ++i) {
      xk::spawn(
          [](std::int64_t* a) {
            volatile int spin = 0;
            for (int j = 0; j < 200; ++j) spin = spin + j;
            *a += 1;
          },
          xk::rw(&acc));
    }
    xk::sync();
  });
  EXPECT_EQ(acc, 500);
}

TEST(Stress, ParkWakeChurn) {
  // Idle-parking stress: an oversubscribed pool alternates between famine
  // (everyone parks) and bursts of spawns (the spawn/park race). A lost
  // wakeup beyond the Parker's timeout backstop would hang the section;
  // completing all sections with correct results is the assertion, and the
  // famine is long enough for the park path to actually run.
  xk::Runtime rt(cfg(8));
  std::atomic<std::int64_t> sum{0};
  constexpr int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    rt.run([&] {
      // Famine: one wall-clock-slow task (longer than a scheduler timeslice,
      // so idle workers actually get CPU to rack up failed steals and park
      // even when threads far outnumber cores).
      xk::spawn([&sum] {
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
        while (std::chrono::steady_clock::now() < until) {
        }
        sum.fetch_add(1);
      });
      xk::sync();
      // Burst: publication must wake parked thieves promptly.
      for (int i = 0; i < 200; ++i) {
        xk::spawn([&sum] { sum.fetch_add(1); });
      }
      xk::sync();
    });
  }
  EXPECT_EQ(sum.load(), kRounds * 201);
  // The famines on an oversubscribed pool must have exercised the parking
  // path at least once.
  EXPECT_GT(rt.stats_snapshot().parks, 0u);
}

TEST(Stress, LongDataflowPipelines) {
  // Several long independent RW chains; checks steal-time readiness with
  // many blocked candidates and scan-hint advancement.
  xk::Runtime rt(cfg(4));
  constexpr int kChains = 8, kLen = 300;
  std::vector<std::uint64_t> lanes(kChains, 1);
  rt.run([&] {
    for (int step = 0; step < kLen; ++step) {
      for (int c = 0; c < kChains; ++c) {
        xk::spawn(
            [](std::uint64_t* v) { *v = *v * 6364136223846793005ULL + 1; },
            xk::rw(&lanes[static_cast<std::size_t>(c)]));
      }
    }
    xk::sync();
  });
  std::uint64_t expect = 1;
  for (int step = 0; step < kLen; ++step) {
    expect = expect * 6364136223846793005ULL + 1;
  }
  for (auto v : lanes) ASSERT_EQ(v, expect);
}

TEST(Stress, LongSectionRecyclesRootFrame) {
  // One section looping spawn+sync, the shape of a simulation time loop.
  // Every sync must recycle the root frame: no task record, no ready list
  // and no arena block may carry over into the next step, so memory stays
  // bounded whatever the step count. Every kGateEvery-th step opens with a
  // gate task that holds the step's chains back until the thieves, finding
  // nothing ready, attach a ready list to the root frame — so the recycle
  // is also exercised on a frame whose list has to be deleted, and the
  // next gated step must attach a fresh one.
  constexpr int kSteps = 20000;
  constexpr int kGateEvery = 8;
  constexpr int kCells = 8;
  constexpr int kPerStep = 32;
  // One step needs ~5 KiB of records; two 16 KiB arena blocks are room to
  // spare, and a frame that kept its records would pass this by step 10.
  constexpr std::size_t kArenaBound = 64 * 1024;

  auto next = [](std::uint64_t self, std::uint64_t other, int k) {
    return (self ^ (other >> 7)) * 6364136223846793005ULL +
           static_cast<std::uint64_t>(k);
  };
  std::array<std::uint64_t, kCells> expect{};
  std::iota(expect.begin(), expect.end(), 1);
  for (int step = 0; step < kSteps; ++step) {
    for (int k = 0; k < kPerStep; ++k) {
      const int c = k % kCells;
      expect[static_cast<std::size_t>(c)] =
          next(expect[static_cast<std::size_t>(c)],
               expect[static_cast<std::size_t>((c + 3) % kCells)], k);
    }
  }

  std::array<std::uint64_t, kCells> cells{};
  std::iota(cells.begin(), cells.end(), 1);
  int gated = 0, attached = 0;
  xk::Runtime rt(cfg(4));
  rt.run([&] {
    xk::Frame& root = xk::this_worker()->current_frame();
    for (int step = 0; step < kSteps; ++step) {
      if (step % kGateEvery == 0) {
        ++gated;
        xk::spawn(
            [&root, &attached](std::uint64_t*) {
              const auto deadline =
                  std::chrono::steady_clock::now() + std::chrono::seconds(10);
              while (root.ready_list.load(std::memory_order_acquire) ==
                         nullptr &&
                     std::chrono::steady_clock::now() < deadline) {
                std::this_thread::yield();
              }
              if (root.ready_list.load(std::memory_order_acquire) != nullptr) {
                ++attached;  // the step's sync orders this before the read
              }
            },
            xk::rw(cells.data(), kCells));
      }
      for (int k = 0; k < kPerStep; ++k) {
        const int c = k % kCells;
        xk::spawn(
            [next, k](std::uint64_t* self, const std::uint64_t* other) {
              *self = next(*self, *other, k);
            },
            xk::rw(&cells[static_cast<std::size_t>(c)]),
            xk::read(&cells[static_cast<std::size_t>((c + 3) % kCells)]));
      }
      xk::sync();
      ASSERT_EQ(root.size_relaxed(), 0u) << "step " << step;
      ASSERT_EQ(root.ready_list.load(std::memory_order_relaxed), nullptr)
          << "step " << step;
      ASSERT_LE(root.arena.bytes_allocated(), kArenaBound) << "step " << step;
    }
  });
  EXPECT_EQ(cells, expect);
  EXPECT_EQ(attached, gated);
}

// ---------------------------------------------------------------------------
// Ready-list concurrent hammer suites. These run in the TSan CI leg (the
// sanitizer job runs every label), which is the real gate for the list's
// one-mutex discipline and its lock-free depth gauges.
// ---------------------------------------------------------------------------

// White-box hammer: one frame's ReadyList under concurrent extend() +
// cross-shard pop_ready_claimed_batch + on_complete from several threads,
// while the owner thread keeps publishing tasks and silently terminating
// some claims (exercising the claim-race fold and the lazy watch sweep).
// This is deliberately *stricter* than production — there, a steal mutex
// serializes poppers per victim; here several poppers race each other on
// purpose so the list's mutex carries the whole load.
TEST(Stress, ReadyListGlobalLockHammer) {
  constexpr std::uint32_t kTasks = 4096;
  constexpr std::uint32_t kSlots = 64;   // kSlots RW chains of kTasks/kSlots
  constexpr unsigned kShards = 2;        // the 1x2+1x6 shape: two domains
  constexpr int kPoppers = 4;

  xk::Frame frame;
  std::vector<double> slots(kSlots, 0.0);
  std::vector<xk::Access> accesses;
  accesses.reserve(kTasks);  // stable storage: tasks keep pointers into it
  std::vector<xk::Task*> tasks;
  tasks.reserve(kTasks);

  std::atomic<std::uint32_t> terminated{0};
  std::atomic<std::uint64_t> popped{0};
  {
    xk::ReadyList rl(frame, kShards);

    auto publish_one = [&](std::uint32_t i) {
      auto* t = new (frame.arena.allocate(sizeof(xk::Task), alignof(xk::Task)))
          xk::Task();
      t->body = [](void*, xk::Worker&) {};
      accesses.push_back(xk::Access{
          xk::MemRegion::contiguous(&slots[i % kSlots], sizeof(double)),
          xk::AccessMode::kReadWrite, 0, xk::kNoArgOffset});
      t->accesses = &accesses.back();
      t->naccesses = 1;
      tasks.push_back(t);
      frame.push_task(t);
    };

    std::vector<std::thread> poppers;
    for (int p = 0; p < kPoppers; ++p) {
      poppers.emplace_back([&, p] {
        const unsigned home = static_cast<unsigned>(p) % kShards;
        xk::Rng rng(static_cast<std::uint64_t>(p) * 977 + 11);
        xk::Task* out[8];
        std::uint64_t hits = 0, misses = 0;
        while (terminated.load(std::memory_order_acquire) < kTasks) {
          rl.extend(home);
          // Mostly the home shard; sometimes the other rank, to force
          // cross-shard pops both ways.
          const unsigned rank =
              rng.next() % 8 == 0 ? (home + 1) % kShards : home;
          const std::size_t got =
              rl.pop_ready_claimed_batch(out, 1 + rng.next() % 8, rank,
                                         &hits, &misses);
          if (got == 0) {
            std::this_thread::yield();
            continue;
          }
          popped.fetch_add(got, std::memory_order_relaxed);
          for (std::size_t k = 0; k < got; ++k) {
            // Run the claim like a thief: notify, then Term.
            rl.on_complete(out[k], rank);
            out[k]->state.store(xk::TaskState::kTerm,
                                std::memory_order_release);
            terminated.fetch_add(1, std::memory_order_acq_rel);
          }
        }
      });
    }

    // Owner: publish in waves; between waves, steal a few claims back via
    // the FIFO path and terminate them *silently* (no on_complete) — the
    // attach-race shape the watch sweep and the pop-path fold must absorb.
    xk::Rng rng(42);
    std::uint32_t published = 0;
    while (published < kTasks) {
      const std::uint32_t wave =
          std::min<std::uint32_t>(256, kTasks - published);
      for (std::uint32_t i = 0; i < wave; ++i) publish_one(published + i);
      published += wave;
      for (int grabs = 0; grabs < 8; ++grabs) {
        xk::Task* t = tasks[rng.next() % published];
        if (t->try_claim(xk::TaskState::kRunOwner)) {
          t->state.store(xk::TaskState::kTerm, std::memory_order_release);
          terminated.fetch_add(1, std::memory_order_acq_rel);
        }
      }
      std::this_thread::yield();
    }
    for (auto& th : poppers) th.join();

    ASSERT_EQ(terminated.load(), kTasks);
    // Every task was claimed exactly once: owner grabs + popper claims.
    ASSERT_LE(popped.load(), kTasks);
    for (xk::Task* t : tasks) {
      ASSERT_EQ(t->load_state(), xk::TaskState::kTerm);
    }
    // Drain: every task is Term, so one more pop claims nothing but
    // discards every entry still queued (ids of tasks the owner grabbed
    // and terminated silently). Afterwards each shard's live depth must be
    // exactly 0 — every push settled once, at completion or at pop; any
    // drift means a settle was lost or double-counted in the storm above.
    xk::Task* out[8];
    ASSERT_EQ(rl.pop_ready_claimed_batch(out, 8, 0), 0u);
    EXPECT_EQ(rl.ready_size(), 0u);
    for (unsigned s = 0; s < kShards; ++s) {
      ASSERT_EQ(rl.shard_live_depth(s), 0) << "shard " << s;
    }
  }
}

// Regression for the lost release behind the hammer hangs above: a task
// claimed while extend() was covering it — after coverage's first state
// check, before its initially-ready check — and then terminated without
// notifying was neither queued nor watched. Nothing could fold its
// completion, so its successor was never released. Here extend() covers
// N independent rw heads (then one successor per head) while another
// thread claims and silently terminates the heads from the far end, so
// the two meet inside add_node. Afterwards pops (with their dry-list
// sweeps) must release every successor.
TEST(Stress, ReadyListClaimDuringCoverageGlobal) {
  constexpr std::uint32_t kHeads = 512;
  constexpr int kReps = 40;
  for (int rep = 0; rep < kReps; ++rep) {
    xk::Frame frame;
    std::vector<double> cells(kHeads, 0.0);
    std::vector<xk::Access> accesses;
    accesses.reserve(2 * kHeads);  // stable: tasks point into it
    std::vector<xk::Task*> tasks;
    for (std::uint32_t i = 0; i < 2 * kHeads; ++i) {
      auto* t = new (frame.arena.allocate(sizeof(xk::Task), alignof(xk::Task)))
          xk::Task();
      t->body = [](void*, xk::Worker&) {};
      accesses.push_back(xk::Access{
          xk::MemRegion::contiguous(&cells[i % kHeads], sizeof(double)),
          xk::AccessMode::kReadWrite, 0, xk::kNoArgOffset});
      t->accesses = &accesses.back();
      t->naccesses = 1;
      tasks.push_back(t);
      frame.push_task(t);
    }
    xk::ReadyList rl(frame);
    std::atomic<bool> armed{false}, go{false};
    std::thread claimer([&] {
      armed.store(true);
      while (!go.load()) {
      }
      for (std::uint32_t i = kHeads; i-- > 0;) {
        if (tasks[i]->try_claim(xk::TaskState::kRunOwner)) {
          tasks[i]->state.store(xk::TaskState::kTerm,
                                std::memory_order_release);
        }
      }
    });
    while (!armed.load()) {
    }
    go.store(true);
    rl.extend();
    claimer.join();
    while (xk::Task* t = rl.pop_ready_claimed()) {
      rl.on_complete(t);
      t->state.store(xk::TaskState::kTerm, std::memory_order_release);
    }
    for (std::uint32_t i = kHeads; i < 2 * kHeads; ++i) {
      ASSERT_EQ(tasks[i]->load_state(), xk::TaskState::kTerm)
          << "rep " << rep << ": successor of head " << i - kHeads
          << " never released";
    }
  }
}

// End-to-end: dataflow chains on the asymmetric 1x2+1x6 shape with a tiny
// attach threshold, so real steal rounds attach, extend, pop and complete
// sharded ready lists across both domains. (The CI topo matrix also runs
// this whole suite with XK_TOPO exported; the explicit Config fields here
// make the shape deterministic even without.)
TEST(Stress, ReadyListGlobalLockAsymmetricTopo) {
  xk::Config c = cfg(8);
  c.topo = "1x2+1x6";
  c.place = "scatter";
  c.ready_list_threshold = 8;
  xk::Runtime rt(c);
  constexpr int kRows = 16, kSteps = 40, kSections = 3;
  std::vector<double> cells(kRows, 0.0);
  for (int round = 0; round < kSections; ++round) {
    rt.run([&] {
      for (int step = 0; step < kSteps; ++step) {
        for (int r = 0; r < kRows; ++r) {
          xk::spawn([](double* cell) { *cell += 1.0; },
                    xk::rw(&cells[static_cast<std::size_t>(r)]));
        }
      }
      xk::sync();
    });
  }
  for (double v : cells) ASSERT_EQ(v, 1.0 * kSteps * kSections);
}

// ---------------------------------------------------------------------------
// Steal path + occupancy/quiescence: TSan hammer. Many tiny back-to-back
// sections maximize the hot edges of the steal machinery — occupancy bits
// flipping on 0<->1 frame-depth transitions, the quiescence fold firing at
// every section close (a lost wake would hang a section past the Parker's
// 1.6 ms backstop; a double-fire or a data race is TSan's to catch),
// targeted join wakes racing final state stores, and one-task replies
// dealt from ready-list pours. Runs under flat, SMT and asymmetric shapes —
// the sanitizer CI job (which runs every label) and the topo-matrix stress
// leg are the real gates.
// ---------------------------------------------------------------------------

void steal_hammer(const char* topo) {
  xk::Config c = cfg(8);
  c.topo = topo;
  c.place = "scatter";  // spread the few workers across every domain
  constexpr int kSections = 12, kRows = 8, kSteps = 12;
  xk::Runtime rt(c);
  std::vector<double> cells(kRows, 0.0);
  std::atomic<std::int64_t> forks{0};
  for (int round = 0; round < kSections; ++round) {
    rt.run([&] {
      // Fork-join burst: stolen joins.
      std::function<void(int)> tree = [&](int d) {
        if (d == 0) {
          forks.fetch_add(1);
          return;
        }
        xk::spawn([&tree, d] { tree(d - 1); });
        tree(d - 1);
        xk::sync();
      };
      tree(5);
      // Dataflow chains: ready-list pours, one task per request.
      for (int step = 0; step < kSteps; ++step) {
        for (int r = 0; r < kRows; ++r) {
          xk::spawn([](double* cell) { *cell += 1.0; },
                    xk::rw(&cells[static_cast<std::size_t>(r)]));
        }
      }
      xk::sync();
    });
  }
  EXPECT_EQ(forks.load(), kSections * 32);
  for (double v : cells) ASSERT_EQ(v, 1.0 * kSteps * kSections);
  // Every section must have closed through the quiescence fire, leaving
  // the board folded flat and nothing armed.
  EXPECT_EQ(rt.occupancy().root_occupied(), 0);
  EXPECT_FALSE(rt.occupancy().quiesce_armed());
}

TEST(Stress, AdaptiveStealFlatHammer) { steal_hammer("1x8"); }

TEST(Stress, AdaptiveStealSmtTopoHammer) { steal_hammer("4x2x2"); }

TEST(Stress, AdaptiveStealAsymmetricTopoHammer) {
  steal_hammer("1x2+1x6");
}

}  // namespace
