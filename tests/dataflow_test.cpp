// Dataflow task tests: RAW/WAR/WAW ordering under concurrency, reductions,
// renaming, random-DAG equivalence with sequential execution, ready-list
// behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/xkaapi.hpp"
#include "support/rng.hpp"

namespace {

xk::Config cfg(unsigned n) {
  xk::Config c;
  c.nworkers = n;
  c.bind_threads = false;
  return c;
}

// Busy work to widen race windows.
void spin(int iters) {
  volatile int x = 0;
  for (int i = 0; i < iters; ++i) x = x + i;
}

TEST(Dataflow, RawChainExecutesInOrder) {
  xk::Runtime rt(cfg(4));
  for (int rep = 0; rep < 20; ++rep) {
    int value = 0;
    rt.run([&] {
      for (int i = 0; i < 50; ++i) {
        xk::spawn(
            [](int* v) {
              spin(200);
              *v = *v + 1;
            },
            xk::rw(&value));
      }
      xk::sync();
    });
    EXPECT_EQ(value, 50);
  }
}

TEST(Dataflow, ProducerConsumerRaw) {
  xk::Runtime rt(cfg(4));
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<double> a(64, 0.0), b(64, 0.0);
    rt.run([&] {
      xk::spawn(
          [](double* out) {
            spin(500);
            for (int i = 0; i < 64; ++i) out[i] = i;
          },
          xk::write(a.data(), a.size()));
      xk::spawn(
          [](const double* in, double* out) {
            for (int i = 0; i < 64; ++i) out[i] = 2 * in[i];
          },
          xk::read(a.data(), a.size()), xk::write(b.data(), b.size()));
      xk::sync();
    });
    for (int i = 0; i < 64; ++i) EXPECT_DOUBLE_EQ(b[i], 2.0 * i);
  }
}

TEST(Dataflow, IndependentWritersRunAnyOrder) {
  xk::Runtime rt(cfg(4));
  std::vector<int> data(256, 0);
  rt.run([&] {
    for (int i = 0; i < 256; ++i) {
      xk::spawn([](int* slot, int v) { *slot = v; }, xk::write(&data[i]), i);
    }
    xk::sync();
  });
  for (int i = 0; i < 256; ++i) EXPECT_EQ(data[i], i);
}

TEST(Dataflow, DiamondDependency) {
  // a -> (b, c) -> d ; b and c may run concurrently, d sees both.
  xk::Runtime rt(cfg(4));
  for (int rep = 0; rep < 50; ++rep) {
    int a = 0, b = 0, c = 0, d = 0;
    rt.run([&] {
      xk::spawn(
          [](int* pa) {
            spin(300);
            *pa = 1;
          },
          xk::write(&a));
      xk::spawn(
          [](const int* pa, int* pb) {
            spin(100);
            *pb = *pa + 10;
          },
          xk::read(&a), xk::write(&b));
      xk::spawn(
          [](const int* pa, int* pc) { *pc = *pa + 20; }, xk::read(&a),
          xk::write(&c));
      xk::spawn(
          [](const int* pb, const int* pc, int* pd) { *pd = *pb + *pc; },
          xk::read(&b), xk::read(&c), xk::write(&d));
      xk::sync();
    });
    EXPECT_EQ(d, 32);
  }
}

TEST(Dataflow, CumulativeWritesAccumulateExactly) {
  xk::Runtime rt(cfg(4));
  long total = 0;
  rt.run([&] {
    for (int i = 0; i < 200; ++i) {
      // CW tasks are mutually independent; the runtime serializes bodies.
      xk::spawn([](long* t, int v) { *t += v; }, xk::cw(&total), i);
    }
    // A reader after the CW group must see the full sum (CW vs R conflicts).
    long snapshot = -1;
    xk::spawn([](const long* t, long* s) { *s = *t; }, xk::read(&total),
              xk::write(&snapshot));
    xk::sync();
    EXPECT_EQ(snapshot, 19900);
  });
  EXPECT_EQ(total, 19900);
}

TEST(Dataflow, ScratchDoesNotOrder) {
  xk::Runtime rt(cfg(2));
  std::vector<double> tmp(32);
  std::atomic<int> ran{0};
  rt.run([&] {
    for (int i = 0; i < 16; ++i) {
      xk::spawn(
          [&ran](double* t) {
            t[0] = 1.0;
            ran.fetch_add(1);
          },
          xk::scratch(tmp.data(), tmp.size()));
    }
    xk::sync();
  });
  EXPECT_EQ(ran.load(), 16);
}

// ---------------------------------------------------------------------------
// Property test: random dataflow DAGs over a small variable set must produce
// exactly the sequential result, for any worker count / feature flags.
// ---------------------------------------------------------------------------

// gtest names each case after the raw bytes of its parameter, so the struct
// must have no padding: padding bytes are indeterminate and would give the
// same case a different name from one test discovery to the next.
struct DagParams {
  unsigned workers;
  unsigned renaming;  // 0 or 1; a bool here would leave 3 padding bytes
  std::size_t readylist_threshold;
};
static_assert(std::has_unique_object_representations_v<DagParams>);

class RandomDagTest : public ::testing::TestWithParam<DagParams> {};

// One step: out = f(in1, in2) with a cheap deterministic mix.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + (b ^ 0xda942042e4dd58b5ULL);
  z ^= z >> 29;
  return z * 0xbf58476d1ce4e5b9ULL;
}

struct DagStep {
  int in1, in2, out;
};

/// `n` random steps over `nvars` variables (fixed seed).
std::vector<DagStep> dag_steps(int n, int nvars) {
  xk::Rng rng(2024);
  std::vector<DagStep> steps;
  steps.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    DagStep s{};
    s.in1 = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nvars)));
    s.in2 = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nvars)));
    s.out = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nvars)));
    steps.push_back(s);
  }
  return steps;
}

/// Sequential reference: vars start at 1..nvars, each step overwrites out.
std::vector<std::uint64_t> dag_sequential(const std::vector<DagStep>& steps,
                                          int nvars) {
  std::vector<std::uint64_t> v(static_cast<std::size_t>(nvars));
  std::iota(v.begin(), v.end(), 1);
  for (const DagStep& s : steps) {
    v[static_cast<std::size_t>(s.out)] = mix(v[static_cast<std::size_t>(s.in1)],
                                             v[static_cast<std::size_t>(s.in2)]);
  }
  return v;
}

TEST_P(RandomDagTest, MatchesSequentialExecution) {
  const DagParams p = GetParam();
  xk::Config c = cfg(p.workers);
  c.renaming = p.renaming != 0;
  c.ready_list_threshold = p.readylist_threshold;

  constexpr int kVars = 12;
  const std::vector<DagStep> steps = dag_steps(300, kVars);

  // Parallel dataflow execution.
  std::vector<std::uint64_t> vars(kVars);
  std::iota(vars.begin(), vars.end(), 1);
  {
    xk::Runtime rt(c);
    rt.run([&] {
      for (const DagStep& s : steps) {
        // NOTE: out may alias in1/in2; declare out as rw to keep the body
        // read of inputs ordered even when renaming is on (renaming applies
        // to kWrite only).
        xk::spawn(
            [](const std::uint64_t* a, const std::uint64_t* b,
               std::uint64_t* o) {
              spin(50);
              *o = mix(*a, *b);
            },
            xk::read(&vars[static_cast<std::size_t>(s.in1)]),
            xk::read(&vars[static_cast<std::size_t>(s.in2)]),
            xk::rw(&vars[static_cast<std::size_t>(s.out)]));
      }
      xk::sync();
    });
  }
  EXPECT_EQ(vars, dag_sequential(steps, kVars));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomDagTest,
    ::testing::Values(DagParams{1, 0, 256}, DagParams{2, 0, 256},
                      DagParams{4, 0, 256}, DagParams{4, 1, 256},
                      DagParams{4, 0, 8},   // force ready-list attach
                      DagParams{8, 1, 8},
                      // the default attach threshold
                      DagParams{1, 0, 16}, DagParams{2, 0, 16},
                      DagParams{4, 0, 16}, DagParams{8, 0, 16}));

// Program order across many spawn+sync rounds in one section. Every sync
// recycles the section's root frame, so each round runs in a fresh frame
// incarnation: a ready list attached in one round is deleted at its sync
// and must re-attach in the next, and renamed writes must commit before
// the reset. A step whose output aliases neither input declares a plain
// write, which renaming may redirect.
class RandomDagRoundsTest : public ::testing::TestWithParam<DagParams> {};

TEST_P(RandomDagRoundsTest, ManyRoundsMatchSequentialExecution) {
  const DagParams p = GetParam();
  xk::Config c = cfg(p.workers);
  c.renaming = p.renaming != 0;
  c.ready_list_threshold = p.readylist_threshold;

  constexpr int kVars = 16;
  constexpr int kRounds = 100;
  constexpr int kPerRound = 32;
  const std::vector<DagStep> steps = dag_steps(kRounds * kPerRound, kVars);

  std::vector<std::uint64_t> vars(kVars);
  std::iota(vars.begin(), vars.end(), 1);
  auto var = [&](int i) { return &vars[static_cast<std::size_t>(i)]; };
  auto body = [](const std::uint64_t* a, const std::uint64_t* b,
                 std::uint64_t* o) {
    spin(20000);
    *o = mix(*a, *b);
  };
  xk::Runtime rt(c);
  rt.reset_stats();
  rt.run([&] {
    for (int r = 0; r < kRounds; ++r) {
      for (int k = 0; k < kPerRound; ++k) {
        const DagStep& s = steps[static_cast<std::size_t>(r * kPerRound + k)];
        if (s.out == s.in1 || s.out == s.in2) {
          xk::spawn(body, xk::read(var(s.in1)), xk::read(var(s.in2)),
                    xk::rw(var(s.out)));
        } else {
          xk::spawn(body, xk::read(var(s.in1)), xk::read(var(s.in2)),
                    xk::write(var(s.out)));
        }
      }
      xk::sync();
      ASSERT_EQ(xk::this_worker()->current_frame().size_relaxed(), 0u)
          << "round " << r;
    }
  });
  EXPECT_EQ(vars, dag_sequential(steps, kVars));
  SUCCEED() << "readylist attaches=" << rt.stats_snapshot().readylist_attach;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomDagRoundsTest,
    ::testing::Values(DagParams{1, 0, 0}, DagParams{1, 0, 1},
                      DagParams{1, 0, 16}, DagParams{1, 1, 0},
                      DagParams{1, 1, 1}, DagParams{1, 1, 16},
                      DagParams{4, 0, 0}, DagParams{4, 0, 1},
                      DagParams{4, 0, 16}, DagParams{4, 1, 0},
                      DagParams{4, 1, 1}, DagParams{4, 1, 16}),
    [](const ::testing::TestParamInfo<DagParams>& param_info) {
      const DagParams& q = param_info.param;
      std::string name = "w";
      name += std::to_string(q.workers);
      name += "_rn";
      name += std::to_string(q.renaming);
      name += "_rl";
      name += std::to_string(q.readylist_threshold);
      return name;
    });

// ---------------------------------------------------------------------------
// Renaming: WAW chains over the same variable must still produce the last
// value, and renaming must actually trigger.
// ---------------------------------------------------------------------------

TEST(Renaming, WawChainCorrectUnderRenaming) {
  xk::Config c = cfg(4);
  c.renaming = true;
  xk::Runtime rt(c);
  rt.reset_stats();
  int slot = -1;
  int observed = -1;
  rt.run([&] {
    for (int i = 0; i < 64; ++i) {
      xk::spawn(
          [](int* s, int v) {
            spin(200);
            *s = v;
          },
          xk::write(&slot), i);
    }
    xk::spawn([](const int* s, int* o) { *o = *s; }, xk::read(&slot),
              xk::write(&observed));
    xk::sync();
  });
  EXPECT_EQ(slot, 63);      // program order: last writer wins
  EXPECT_EQ(observed, 63);  // reader is ordered after all writers
}

TEST(Dataflow, ReadyListAttachesOnBlockedScans) {
  xk::Config c = cfg(4);
  c.ready_list_threshold = 4;  // attach quickly
  xk::Runtime rt(c);
  rt.reset_stats();
  int chain = 0;
  rt.run([&] {
    for (int i = 0; i < 400; ++i) {
      xk::spawn(
          [](int* v) {
            spin(100);
            *v = *v + 1;
          },
          xk::rw(&chain));
    }
    xk::sync();
  });
  EXPECT_EQ(chain, 400);
  // With several thieves hammering a serial chain the accelerating structure
  // should engage (not guaranteed on a 1-core box, so this is a soft check).
  SUCCEED() << "readylist attaches=" << rt.stats_snapshot().readylist_attach;
}

// ---------------------------------------------------------------------------
// The frame owner helps from its own ready list while it joins a stolen
// task. Shape: a long task `head` on cell x runs on a thief and waits until
// the owner has run one of the independent tasks, so the owner can only get
// there by helping from the list while it joins `head`. Two rw tasks on x
// stay blocked behind `head`, which (threshold 1) attaches the list.
// ---------------------------------------------------------------------------

constexpr int kHelpTasks = 32;
constexpr auto kHelpTimeout = std::chrono::seconds(10);

struct HelpScenario {
  int x = 0;
  std::array<long, kHelpTasks> cells{};
  std::array<std::array<long, 4>, kHelpTasks> sub{};
  std::atomic<int> owner_ran{0};
  std::atomic<bool> head_started{false};
  std::vector<std::string> caught;
  bool attached = false;
};

/// Runs the scenario; every independent task whose index is in `throwers`
/// throws after its work, and with `nested` each one spawns and syncs four
/// children of its own.
void run_help_scenario(HelpScenario& sc, const std::vector<int>& throwers,
                       bool nested) {
  xk::Config c = cfg(4);
  c.ready_list_threshold = 1;
  xk::Runtime rt(c);
  rt.run([&] {
    xk::Worker* owner = xk::this_worker();
    const auto deadline = std::chrono::steady_clock::now() + kHelpTimeout;
    xk::spawn(
        [&sc, deadline](int* x) {
          sc.head_started.store(true);
          while (sc.owner_ran.load() == 0 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          *x = 1;
        },
        xk::rw(&sc.x));
    xk::spawn([](int* x) { *x = *x * 10 + 2; }, xk::rw(&sc.x));
    xk::spawn([](int* x) { *x = *x * 10 + 3; }, xk::rw(&sc.x));
    for (int i = 0; i < kHelpTasks; ++i) {
      const bool thrower =
          std::find(throwers.begin(), throwers.end(), i) != throwers.end();
      xk::spawn(
          [&sc, owner, nested, thrower, i](long* cell) {
            if (xk::this_worker() == owner) {
              sc.owner_ran.fetch_add(1);
            } else {
              // Thieves are slow, so most of the list is left to the owner.
              std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
            if (nested) {
              auto& sub = sc.sub[static_cast<std::size_t>(i)];
              for (long& s : sub) {
                xk::spawn([](long* v) { *v += 1; }, xk::rw(&s));
              }
              xk::sync();
              *cell = std::accumulate(sub.begin(), sub.end(), 0L);
            } else {
              *cell = i + 1;
            }
            if (thrower) throw std::runtime_error("task " + std::to_string(i));
          },
          xk::rw(&sc.cells[static_cast<std::size_t>(i)]));
    }
    // Join only once a thief runs `head` and the list is attached.
    xk::Frame& f = owner->current_frame();
    while ((!sc.head_started.load() ||
            f.ready_list.load(std::memory_order_acquire) == nullptr) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    sc.attached = f.ready_list.load(std::memory_order_acquire) != nullptr;
    try {
      xk::sync();
    } catch (const std::runtime_error& e) {
      sc.caught.emplace_back(e.what());
    }
    xk::sync();  // nothing left to rethrow
  });
}

TEST(OwnerHelp, HelpedExceptionsRethrowOnceInProgramOrder) {
  HelpScenario sc;
  run_help_scenario(sc, {29, 7, 13}, false);
  ASSERT_TRUE(sc.attached);
  EXPECT_GT(sc.owner_ran.load(), 0) << "owner never helped from its list";
  EXPECT_EQ(sc.caught, (std::vector<std::string>{"task 7"}));
  EXPECT_EQ(sc.x, 123);
  for (int i = 0; i < kHelpTasks; ++i) {
    EXPECT_EQ(sc.cells[static_cast<std::size_t>(i)], i + 1) << "task " << i;
  }
}

TEST(OwnerHelp, HelpedTasksSpawnAndSyncChildren) {
  HelpScenario sc;
  run_help_scenario(sc, {}, true);
  ASSERT_TRUE(sc.attached);
  EXPECT_GT(sc.owner_ran.load(), 0) << "owner never helped from its list";
  EXPECT_TRUE(sc.caught.empty());
  EXPECT_EQ(sc.x, 123);
  for (int i = 0; i < kHelpTasks; ++i) {
    EXPECT_EQ(sc.cells[static_cast<std::size_t>(i)], 4) << "task " << i;
    for (long v : sc.sub[static_cast<std::size_t>(i)]) EXPECT_EQ(v, 1);
  }
}

TEST(Dataflow, MixedForkJoinAndDataflow) {
  // The multi-paradigm claim: recursive fork-join children spawning dataflow
  // tasks on disjoint slots, all under one runtime.
  xk::Runtime rt(cfg(4));
  std::vector<long> slots(64, 0);
  std::function<void(int, int)> recurse = [&](int lo, int hi) {
    if (hi - lo <= 8) {
      for (int i = lo; i < hi; ++i) {
        xk::spawn([](long* s) { *s += 7; }, xk::rw(&slots[i]));
      }
      xk::sync();
      return;
    }
    const int mid = (lo + hi) / 2;
    xk::spawn([&recurse, lo, mid] { recurse(lo, mid); });
    xk::spawn([&recurse, mid, hi] { recurse(mid, hi); });
    xk::sync();
  };
  rt.run([&] {
    recurse(0, 64);
    xk::sync();
  });
  for (long v : slots) EXPECT_EQ(v, 7);
}

}  // namespace
