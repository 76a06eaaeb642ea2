// Adaptive task model (§II-D): custom splitters, the single-concurrent-
// splitter guarantee, disarming, heap-task lifecycle.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/xkaapi.hpp"

namespace {

xk::Config cfg(unsigned n) {
  xk::Config c;
  c.nworkers = n;
  c.bind_threads = false;
  return c;
}

// A hand-written adaptive task: consumes a shared atomic counter range and
// publishes a splitter that hands half the remaining range to a thief.
struct CounterWork {
  std::atomic<std::int64_t> next{0};
  std::int64_t end = 0;
  std::atomic<std::int64_t> done{0};
  std::atomic<int> splitter_concurrency{0};
  std::atomic<int> max_splitter_concurrency{0};
  std::atomic<int> outstanding{0};
};

void counter_loop(CounterWork& w) {
  for (;;) {
    const std::int64_t i = w.next.fetch_add(1, std::memory_order_acq_rel);
    if (i >= w.end) break;
    w.done.fetch_add(1, std::memory_order_acq_rel);
  }
}

void counter_splitter(void* args, xk::SplitContext& sc) {
  // The splitter receives the task's own argument block.
  auto* w = static_cast<CounterWork*>(args);
  // Track the paper's invariant: at most one splitter runs concurrently on
  // a given task (the victim's steal mutex enforces it).
  const int conc = w->splitter_concurrency.fetch_add(1) + 1;
  int prev_max = w->max_splitter_concurrency.load();
  while (conc > prev_max &&
         !w->max_splitter_concurrency.compare_exchange_weak(prev_max, conc)) {
  }
  // Hand each requester a worker that drains the same shared counter (the
  // work itself is structurally splittable).
  while (sc.size() > 0) {
    w->outstanding.fetch_add(1);
    sc.reply([w](xk::Worker&) {
      counter_loop(*w);
      w->outstanding.fetch_sub(1);
    });
  }
  w->splitter_concurrency.fetch_sub(1);
}

TEST(Adaptive, CustomSplitterCompletesAllWork) {
  xk::Runtime rt(cfg(4));
  CounterWork w;
  w.end = 200000;
  rt.run([&] {
    xk::Worker* self = xk::this_worker();
    auto* t = new (self->frame_alloc(sizeof(xk::Task), alignof(xk::Task)))
        xk::Task();
    t->body = [](void* a, xk::Worker&) {
      counter_loop(*static_cast<CounterWork*>(a));
    };
    t->args = &w;
    xk::arm_splitter(*t, &counter_splitter);
    self->push_task(t);
    xk::sync();
    self->steal_until([&] {
      return w.done.load() == w.end && w.outstanding.load() == 0;
    });
  });
  EXPECT_EQ(w.done.load(), w.end);
  // The runtime must never run two splitters of one task concurrently.
  EXPECT_LE(w.max_splitter_concurrency.load(), 1);
}

TEST(Adaptive, DisarmedTaskIsNotSplit) {
  xk::Runtime rt(cfg(4));
  std::atomic<int> splits{0};
  CounterWork w;
  w.end = 100000;
  rt.run([&] {
    xk::Worker* self = xk::this_worker();
    auto* t = new (self->frame_alloc(sizeof(xk::Task), alignof(xk::Task)))
        xk::Task();
    struct Ctx {
      CounterWork* w;
      std::atomic<int>* splits;
      xk::Task* self_task;
    };
    auto* ctx = static_cast<Ctx*>(
        self->frame_alloc(sizeof(Ctx), alignof(Ctx)));
    ctx->w = &w;
    ctx->splits = &splits;
    ctx->self_task = t;
    t->body = [](void* a, xk::Worker&) {
      auto* c = static_cast<Ctx*>(a);
      // Disarm before doing the work: no splitter call may happen after
      // the scan barrier below.
      c->self_task->splitter_armed.store(false, std::memory_order_release);
      counter_loop(*c->w);
    };
    t->args = ctx;
    xk::arm_splitter(*t, [](void* a, xk::SplitContext&) {
      static_cast<Ctx*>(a)->splits->fetch_add(1);
    });
    // Keep it disarmed from the start for determinism of this test.
    t->splitter_armed.store(false, std::memory_order_release);
    self->push_task(t);
    xk::sync();
  });
  EXPECT_EQ(w.done.load(), w.end);
  EXPECT_EQ(splits.load(), 0);
}

TEST(Adaptive, HeapTaskLifecycle) {
  // make_heap_task boxes run and are deleted by the hosting frame; the
  // functor's destructor must run exactly once.
  static std::atomic<int> live{0};
  struct Probe {
    bool armed = true;
    Probe() { live.fetch_add(1); }
    Probe(Probe&& o) noexcept {
      live.fetch_add(1);
      o.armed = false;
    }
    ~Probe() { live.fetch_sub(1); }
    void operator()(xk::Worker&) {}
  };
  {
    xk::Task* t = xk::make_heap_task(Probe{});
    EXPECT_GE(live.load(), 1);
    EXPECT_TRUE(t->heap_owned());
    t->heap_deleter(t);
  }
  EXPECT_EQ(live.load(), 0);
}

TEST(Adaptive, SplitContextRespectsCapacity) {
  xk::StealRequest slots[2];
  xk::StealRequest* ptrs[2] = {&slots[0], &slots[1]};
  for (auto& s : slots) s.status.store(xk::StealRequest::kPosted);
  xk::SplitContext sc(ptrs, 2);
  EXPECT_EQ(sc.size(), 2u);
  EXPECT_TRUE(sc.reply([](xk::Worker&) {}));
  EXPECT_EQ(sc.size(), 1u);
  EXPECT_TRUE(sc.reply([](xk::Worker&) {}));
  EXPECT_EQ(sc.size(), 0u);
  EXPECT_FALSE(sc.reply([](xk::Worker&) {}));
  EXPECT_EQ(sc.replied(), 2u);
  // Clean up the two heap tasks we never executed.
  for (auto& s : slots) {
    ASSERT_EQ(s.status.load(), xk::StealRequest::kServed);
    ASSERT_NE(s.reply, nullptr);
    EXPECT_EQ(s.reply_frame, nullptr);
    s.reply->heap_deleter(s.reply);
  }
}

}  // namespace
