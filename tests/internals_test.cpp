// White-box unit tests of the scheduler's building blocks: the frame arena,
// the chunked task list, scan hints, the ready-list dependence graph, and
// the steal-request slot protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "core/arena.hpp"
#include "core/frame.hpp"
#include "core/readylist.hpp"
#include "core/xkaapi.hpp"
#include "support/parker.hpp"

namespace {

TEST(Arena, AlignmentRespected) {
  xk::Arena arena;
  for (std::size_t align : {1ul, 8ul, 16ul, 64ul, 128ul}) {
    void* p = arena.allocate(13, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "align " << align;
  }
}

TEST(Arena, GrowsAcrossBlocks) {
  xk::Arena arena;
  // Allocate far beyond one 16 KiB block; every pointer stays usable.
  std::vector<unsigned char*> ptrs;
  for (int i = 0; i < 100; ++i) {
    auto* p = static_cast<unsigned char*>(arena.allocate(1000, 8));
    std::memset(p, i, 1000);
    ptrs.push_back(p);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ptrs[static_cast<std::size_t>(i)][0],
              static_cast<unsigned char>(i));
    EXPECT_EQ(ptrs[static_cast<std::size_t>(i)][999],
              static_cast<unsigned char>(i));
  }
}

TEST(Arena, LargeSingleAllocation) {
  xk::Arena arena;
  void* big = arena.allocate(1 << 20, 64);  // > default block size
  std::memset(big, 0xab, 1 << 20);
  EXPECT_NE(big, nullptr);
}

TEST(Arena, ResetRecyclesMemory) {
  xk::Arena arena;
  arena.allocate(8 * 1024, 8);
  arena.allocate(8 * 1024, 8);  // forces a second block
  const std::size_t footprint = arena.bytes_allocated();
  for (int round = 0; round < 50; ++round) {
    arena.reset();
    arena.allocate(8 * 1024, 8);
    arena.allocate(8 * 1024, 8);
  }
  // Recycling must not grow the footprint.
  EXPECT_EQ(arena.bytes_allocated(), footprint);
}

TEST(Arena, ChainSurvivesManyGrowsResetAndRegrow) {
  // 10 KiB allocations never share a 16 KiB block, so each one grows the
  // chain by a block. A reset must hand every grown block to the spare
  // list, and the regrow must take them all back before allocating anew.
  xk::Arena arena;
  constexpr int kBlocks = 200;
  constexpr std::size_t kBytes = 10 * 1024;
  auto fill = [&] {
    std::vector<unsigned char*> ptrs;
    for (int i = 0; i < kBlocks; ++i) {
      auto* p = static_cast<unsigned char*>(arena.allocate(kBytes, 64));
      std::memset(p, i, kBytes);
      ptrs.push_back(p);
    }
    for (int i = 0; i < kBlocks; ++i) {
      const auto v = static_cast<unsigned char>(i);
      EXPECT_EQ(ptrs[static_cast<std::size_t>(i)][0], v) << i;
      EXPECT_EQ(ptrs[static_cast<std::size_t>(i)][kBytes - 1], v) << i;
    }
    std::sort(ptrs.begin(), ptrs.end());
    EXPECT_EQ(std::adjacent_find(ptrs.begin(), ptrs.end()), ptrs.end());
    return ptrs;
  };
  const std::vector<unsigned char*> first = fill();
  const std::size_t footprint = arena.bytes_allocated();
  arena.reset();
  EXPECT_EQ(fill(), first);  // the same blocks, every one of them reused
  EXPECT_EQ(arena.bytes_allocated(), footprint);
  arena.reset();
  // A request no spare can hold appends a fresh block after the reused ones.
  fill();
  auto* big = static_cast<unsigned char*>(arena.allocate(64 * 1024, 64));
  std::memset(big, 0xcd, 64 * 1024);
  EXPECT_GT(arena.bytes_allocated(), footprint);
}

xk::Task* make_task(xk::Arena& arena) {
  auto* t = new (arena.allocate(sizeof(xk::Task), alignof(xk::Task)))
      xk::Task();
  t->body = [](void*, xk::Worker&) {};
  return t;
}

TEST(FrameTest, PushAndIterateAcrossChunks) {
  xk::Frame frame;
  std::vector<xk::Task*> tasks;
  const std::uint32_t n = xk::Frame::kChunkTasks * 3 + 17;
  for (std::uint32_t i = 0; i < n; ++i) {
    xk::Task* t = make_task(frame.arena);
    tasks.push_back(t);
    frame.push_task(t);
  }
  EXPECT_EQ(frame.size_acquire(), n);
  xk::Frame::Iterator it(frame);
  for (std::uint32_t i = 0; i < n; ++i, it.advance()) {
    ASSERT_EQ(it.get(), tasks[i]) << i;
    ASSERT_EQ(it.index(), i);
  }
}

TEST(FrameTest, IteratorSeek) {
  xk::Frame frame;
  const std::uint32_t n = xk::Frame::kChunkTasks * 2 + 5;
  std::vector<xk::Task*> tasks;
  for (std::uint32_t i = 0; i < n; ++i) {
    tasks.push_back(make_task(frame.arena));
    frame.push_task(tasks.back());
  }
  xk::Frame::Iterator it(frame);
  it.seek(xk::Frame::kChunkTasks + 3);
  EXPECT_EQ(it.get(), tasks[xk::Frame::kChunkTasks + 3]);
  it.seek(n - 1);
  EXPECT_EQ(it.get(), tasks[n - 1]);
  EXPECT_EQ(it.index(), n - 1);
}

TEST(FrameTest, ResetClearsEverythingAndBumpsEpoch) {
  xk::Frame frame;
  const std::uint64_t epoch0 = frame.epoch();
  for (int i = 0; i < 10; ++i) frame.push_task(make_task(frame.arena));
  for (int i = 0; i < 10; ++i) frame.exec_advance();
  frame.reset();
  EXPECT_EQ(frame.size_acquire(), 0u);
  EXPECT_EQ(frame.exec_cursor(), 0u);
  // A recycle must advance the incarnation so combiner scan caches notice.
  EXPECT_GT(frame.epoch(), epoch0);
  // Reusable after reset.
  frame.push_task(make_task(frame.arena));
  EXPECT_EQ(frame.size_acquire(), 1u);
}

TEST(FrameTest, ExecCursorCrossesChunks) {
  xk::Frame frame;
  const std::uint32_t n = xk::Frame::kChunkTasks * 2 + 3;
  std::vector<xk::Task*> tasks;
  for (std::uint32_t i = 0; i < n; ++i) {
    tasks.push_back(make_task(frame.arena));
    frame.push_task(tasks.back());
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(frame.exec_cursor(), i);
    ASSERT_EQ(frame.exec_current(), tasks[i]) << i;
    frame.exec_advance();
  }
  EXPECT_EQ(frame.exec_cursor(), n);
}

// ---------------------------------------------------------------------------
// ReadyList white-box tests.
// ---------------------------------------------------------------------------

struct RlFixture {
  xk::Frame frame;
  std::vector<xk::Access> accesses;  // stable storage
  std::vector<xk::Task*> tasks;      // program order

  explicit RlFixture(std::size_t capacity = 64) {
    accesses.reserve(capacity);
  }

  xk::Task* add(const void* region_base, std::size_t bytes,
                xk::AccessMode mode) {
    return add(xk::MemRegion::contiguous(region_base, bytes), mode);
  }

  xk::Task* add(const xk::MemRegion& region, xk::AccessMode mode) {
    EXPECT_LT(accesses.size(), accesses.capacity()) << "storage would move";
    xk::Task* t = make_task(frame.arena);
    accesses.push_back(xk::Access{region, mode, 0, xk::kNoArgOffset});
    t->accesses = &accesses.back();
    t->naccesses = 1;
    frame.push_task(t);
    tasks.push_back(t);
    return t;
  }
};

TEST(ReadyListTest, RawChainReleasesInOrder) {
  RlFixture fx;
  double slot = 0.0;
  xk::Task* t0 = fx.add(&slot, 8, xk::AccessMode::kReadWrite);
  xk::Task* t1 = fx.add(&slot, 8, xk::AccessMode::kReadWrite);
  xk::Task* t2 = fx.add(&slot, 8, xk::AccessMode::kReadWrite);

  xk::ReadyList rl(fx.frame);
  rl.extend();
  EXPECT_EQ(rl.covered(), 3u);
  // Only the head of the chain is ready.
  xk::Task* got = rl.pop_ready_claimed();
  ASSERT_EQ(got, t0);
  EXPECT_EQ(rl.pop_ready_claimed(), nullptr);
  // Completing t0 releases t1 (notify then Term, as the runtime does).
  rl.on_complete(t0);
  t0->state.store(xk::TaskState::kTerm);
  got = rl.pop_ready_claimed();
  ASSERT_EQ(got, t1);
  rl.on_complete(t1);
  t1->state.store(xk::TaskState::kTerm);
  EXPECT_EQ(rl.pop_ready_claimed(), t2);
}

TEST(ReadyListTest, IndependentTasksAllReady) {
  RlFixture fx;
  double a = 0, b = 0, c = 0;
  fx.add(&a, 8, xk::AccessMode::kWrite);
  fx.add(&b, 8, xk::AccessMode::kWrite);
  fx.add(&c, 8, xk::AccessMode::kWrite);
  xk::ReadyList rl(fx.frame);
  rl.extend();
  EXPECT_EQ(rl.ready_size(), 3u);
  int popped = 0;
  while (rl.pop_ready_claimed() != nullptr) ++popped;
  EXPECT_EQ(popped, 3);
}

TEST(ReadyListTest, ReadersShareWritersOrder) {
  RlFixture fx;
  double slot = 0.0;
  xk::Task* w = fx.add(&slot, 8, xk::AccessMode::kWrite);
  xk::Task* r1 = fx.add(&slot, 8, xk::AccessMode::kRead);
  xk::Task* r2 = fx.add(&slot, 8, xk::AccessMode::kRead);
  xk::ReadyList rl(fx.frame);
  rl.extend();
  EXPECT_EQ(rl.pop_ready_claimed(), w);
  EXPECT_EQ(rl.pop_ready_claimed(), nullptr);  // readers blocked by writer
  rl.on_complete(w);
  w->state.store(xk::TaskState::kTerm);
  // Both readers release together (R vs R does not conflict).
  xk::Task* a = rl.pop_ready_claimed();
  xk::Task* b = rl.pop_ready_claimed();
  EXPECT_TRUE((a == r1 && b == r2) || (a == r2 && b == r1));
}

TEST(ReadyListTest, EarlyCompletionBeforeCoverage) {
  RlFixture fx;
  double slot = 0.0;
  xk::Task* t0 = fx.add(&slot, 8, xk::AccessMode::kReadWrite);
  xk::Task* t1 = fx.add(&slot, 8, xk::AccessMode::kReadWrite);
  xk::ReadyList rl(fx.frame);
  // t0 completes before the list ever covered it.
  rl.on_complete(t0);
  t0->state.store(xk::TaskState::kTerm);
  rl.extend();
  // t1 must be immediately ready: its only predecessor already completed.
  EXPECT_EQ(rl.pop_ready_claimed(), t1);
}

TEST(ReadyListTest, SweepCatchesMissedNotification) {
  RlFixture fx;
  double slot = 0.0;
  xk::Task* t0 = fx.add(&slot, 8, xk::AccessMode::kReadWrite);
  xk::Task* t1 = fx.add(&slot, 8, xk::AccessMode::kReadWrite);
  xk::ReadyList rl(fx.frame);
  rl.extend();
  ASSERT_EQ(rl.pop_ready_claimed(), t0);
  // Simulate the attach race: t0 reaches Term *without* notifying the list.
  t0->state.store(xk::TaskState::kTerm);
  // The empty-pop sweep must fold the completion in and release t1.
  EXPECT_EQ(rl.pop_ready_claimed(), t1);
}

TEST(ReadyListTest, ClaimedTasksSkippedOnPop) {
  RlFixture fx;
  double a = 0, b = 0;
  xk::Task* t0 = fx.add(&a, 8, xk::AccessMode::kWrite);
  xk::Task* t1 = fx.add(&b, 8, xk::AccessMode::kWrite);
  xk::ReadyList rl(fx.frame);
  rl.extend();
  // The owner claims t0 through the FIFO path first.
  ASSERT_TRUE(t0->try_claim(xk::TaskState::kRunOwner));
  EXPECT_EQ(rl.pop_ready_claimed(), t1);  // t0 skipped, not returned
  // The skipped claim is not dropped on the floor: it moves to the watch
  // list so a silent (unnotified) termination still gets folded in.
  EXPECT_GE(rl.watched_size(), 1u);
}

TEST(ReadyListTest, BatchPopClaimsUpToMaxOldestFirst) {
  RlFixture fx;
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  xk::Task* t0 = fx.add(&s0, 8, xk::AccessMode::kWrite);
  xk::Task* t1 = fx.add(&s1, 8, xk::AccessMode::kWrite);
  xk::Task* t2 = fx.add(&s2, 8, xk::AccessMode::kWrite);
  fx.add(&s3, 8, xk::AccessMode::kWrite);
  xk::ReadyList rl(fx.frame);
  rl.extend();
  xk::Task* out[3] = {};
  // One lock acquisition hands back up to `max` claimed tasks, FIFO order.
  ASSERT_EQ(rl.pop_ready_claimed_batch(out, 3), 3u);
  EXPECT_EQ(out[0], t0);
  EXPECT_EQ(out[1], t1);
  EXPECT_EQ(out[2], t2);
  for (xk::Task* t : out) {
    EXPECT_EQ(t->load_state(), xk::TaskState::kStolenClaim);
  }
  // The fourth stays ready for the next batch.
  EXPECT_EQ(rl.ready_size(), 1u);
}

TEST(ReadyListTest, ClaimedElsewhereTermFoldsInOrder) {
  // FIFO fairness under contention: t0 (oldest) is claimed by the owner
  // and terminates *without* notifying (simulating the attach race). The
  // pop that encounters it must fold the completion immediately so t0's
  // successor is released ahead of younger independent tasks.
  RlFixture fx;
  double chain = 0, other = 0;
  xk::Task* t0 = fx.add(&chain, 8, xk::AccessMode::kReadWrite);
  xk::Task* t1 = fx.add(&chain, 8, xk::AccessMode::kReadWrite);
  xk::Task* t2 = fx.add(&other, 8, xk::AccessMode::kWrite);
  xk::ReadyList rl(fx.frame);
  rl.extend();
  ASSERT_TRUE(t0->try_claim(xk::TaskState::kRunOwner));
  t0->state.store(xk::TaskState::kTerm);  // silent: no on_complete
  // Pop order: t0 folds (releasing t1 behind t2, which was already ready).
  EXPECT_EQ(rl.pop_ready_claimed(), t2);
  EXPECT_EQ(rl.pop_ready_claimed(), t1);
  EXPECT_GE(rl.missed_folds(), 1u);
  EXPECT_EQ(rl.pop_ready_claimed(), nullptr);
}

TEST(ReadyListTest, LazySweepReleasesWatchedChainUnderLoad) {
  // A longer claimed-elsewhere chain: every link terminates silently; the
  // lazy watch sweep must keep folding completions until the whole chain
  // has been released, never stranding a successor.
  RlFixture fx;
  double slot = 0.0;
  constexpr int kLen = 16;
  std::vector<xk::Task*> chain;
  for (int i = 0; i < kLen; ++i) {
    chain.push_back(fx.add(&slot, 8, xk::AccessMode::kReadWrite));
  }
  xk::ReadyList rl(fx.frame);
  rl.extend();
  for (int i = 0; i < kLen; ++i) {
    xk::Task* got = rl.pop_ready_claimed();
    ASSERT_EQ(got, chain[static_cast<std::size_t>(i)]) << i;
    // Terminate silently: the next pop has to recover via the sweep.
    got->state.store(xk::TaskState::kTerm);
  }
  EXPECT_EQ(rl.pop_ready_claimed(), nullptr);  // all folded and done
}

// ---------------------------------------------------------------------------
// Domain-sharded ready lists.
// ---------------------------------------------------------------------------

TEST(ReadyListShard, LocalShardFirstPopOrder) {
  RlFixture fx;
  double chain = 0, other = 0;
  xk::Task* t0 = fx.add(&chain, 8, xk::AccessMode::kReadWrite);
  xk::Task* t1 = fx.add(&chain, 8, xk::AccessMode::kReadWrite);
  xk::Task* t2 = fx.add(&other, 8, xk::AccessMode::kWrite);

  xk::ReadyList rl(fx.frame, /*nshards=*/2);
  EXPECT_EQ(rl.nshards(), 2u);
  rl.extend(/*shard=*/0);  // covering combiner ran in domain 0
  EXPECT_EQ(rl.shard_ready_size(0), 2u);  // t0 and the independent t2
  EXPECT_EQ(rl.shard_ready_size(1), 0u);
  // The per-shard live-depth gauge (the board mirror, maintained even
  // without a board) tracks the queue.
  EXPECT_EQ(rl.shard_live_depth(0), 2);
  EXPECT_EQ(rl.shard_live_depth(1), 0);

  xk::Task* out[1] = {};
  std::uint64_t hits = 0, misses = 0;
  ASSERT_EQ(rl.pop_ready_claimed_batch(out, 1, /*shard=*/0, &hits, &misses),
            1u);
  EXPECT_EQ(out[0], t0);
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(misses, 0u);

  // t0 completes on a domain-1 worker: its successor t1 is released into
  // shard 1 (producer-side routing — the finisher just wrote t1's input).
  rl.on_complete(t0, /*shard=*/1);
  t0->state.store(xk::TaskState::kTerm);
  EXPECT_EQ(rl.shard_ready_size(1), 1u);

  // A domain-1 popper takes its own shard's t1 first although t2 (shard 0)
  // is older in program order: locality beats global FIFO across shards.
  hits = misses = 0;
  ASSERT_EQ(rl.pop_ready_claimed_batch(out, 1, /*shard=*/1, &hits, &misses),
            1u);
  EXPECT_EQ(out[0], t1);
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(misses, 0u);

  // Own shard dry: the pop crosses into shard 0 and counts a miss.
  hits = misses = 0;
  ASSERT_EQ(rl.pop_ready_claimed_batch(out, 1, /*shard=*/1, &hits, &misses),
            1u);
  EXPECT_EQ(out[0], t2);
  EXPECT_EQ(hits, 0u);
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(rl.ready_size(), 0u);
  EXPECT_EQ(rl.shard_live_depth(0), 0);
  EXPECT_EQ(rl.shard_live_depth(1), 0);
}

TEST(ReadyListShard, SingleShardKeepsGlobalFifo) {
  // The flat collapse: one shard, every producer/popper shard argument
  // clamps to it, order is the original global FIFO.
  RlFixture fx;
  double a = 0, b = 0;
  xk::Task* t0 = fx.add(&a, 8, xk::AccessMode::kWrite);
  xk::Task* t1 = fx.add(&b, 8, xk::AccessMode::kWrite);
  xk::ReadyList rl(fx.frame, /*nshards=*/1);
  rl.extend(/*shard=*/7);  // out-of-range shard ids clamp, not crash
  EXPECT_EQ(rl.pop_ready_claimed(/*shard=*/3), t0);
  EXPECT_EQ(rl.pop_ready_claimed(), t1);
}

TEST(ReadyListShard, LiveDepthSettlesAtCompletion) {
  RlFixture fx;
  double a = 0, b = 0, c = 0;
  fx.add(&a, 8, xk::AccessMode::kWrite);
  xk::Task* t1 = fx.add(&b, 8, xk::AccessMode::kWrite);
  fx.add(&c, 8, xk::AccessMode::kWrite);
  xk::ReadyList rl(fx.frame, 2);
  rl.extend(/*shard=*/1);
  EXPECT_EQ(rl.shard_live_depth(1), 3);
  EXPECT_EQ(rl.shard_live_depth(0), 0);
  xk::Task* out[1] = {};
  ASSERT_EQ(rl.pop_ready_claimed_batch(out, 1, 1), 1u);
  EXPECT_EQ(rl.shard_live_depth(1), 2);
  // Owner FIFO claims and finishes t1 while its id still sits in the
  // shard deque: the depth must return at completion, not wait for a
  // combiner to pop the dead id — phantom depth would send the owner's
  // help loop (approx_ready) after work that is not there.
  ASSERT_TRUE(t1->try_claim(xk::TaskState::kRunOwner));
  rl.on_complete(t1, /*shard=*/1);
  t1->state.store(xk::TaskState::kTerm);
  EXPECT_EQ(rl.shard_live_depth(1), 1);
  EXPECT_EQ(rl.approx_ready(), 1);
  // The dead id is still in the deque; only the live count dropped.
  EXPECT_EQ(rl.shard_ready_size(1), 2u);
}

// Replays the claim-race fold scenario of ClaimedElsewhereTermFoldsInOrder
// through the batch pop and pins the same order the single pop gives:
// the silently finished t0 folds inline and its successor t1 is released
// behind the already-ready t2. The name dates from when this compared the
// global and split lock modes; with one lock left it pins that the two pop
// entry points cannot drift apart.
TEST(ReadyListLock, GlobalAndSplitAgreeOnPopOrder) {
  RlFixture fx;
  double chain = 0, other = 0;
  xk::Task* t0 = fx.add(&chain, 8, xk::AccessMode::kReadWrite);
  xk::Task* t1 = fx.add(&chain, 8, xk::AccessMode::kReadWrite);
  xk::Task* t2 = fx.add(&other, 8, xk::AccessMode::kWrite);
  xk::ReadyList rl(fx.frame);
  rl.extend();
  ASSERT_TRUE(t0->try_claim(xk::TaskState::kRunOwner));
  t0->state.store(xk::TaskState::kTerm);  // silent: no on_complete
  xk::Task* out[1] = {};
  std::uint64_t hits = 0, misses = 0;
  ASSERT_EQ(rl.pop_ready_claimed_batch(out, 1, 0, &hits, &misses), 1u);
  EXPECT_EQ(out[0], t2);
  ASSERT_EQ(rl.pop_ready_claimed_batch(out, 1, 0, &hits, &misses), 1u);
  EXPECT_EQ(out[0], t1);
  EXPECT_GE(rl.missed_folds(), 1u);
  EXPECT_EQ(rl.pop_ready_claimed_batch(out, 1, 0, &hits, &misses), 0u);
  // One shard: the hit/miss split is not counted at all.
  EXPECT_EQ(hits, 0u);
  EXPECT_EQ(misses, 0u);
}

// Single-pop shard telemetry (PR 7 satellite): the convenience single-task
// pop_ready_claimed must attribute its cross-shard fallback exactly like
// the batch form — a pop served by the home shard is a hit, one served by
// another rank is a miss. It used to drop both counters on the floor.
TEST(ReadyListShard, SinglePopRecordsShardHitAndMiss) {
  RlFixture fx;
  double a = 0, b = 0;
  xk::Task* t0 = fx.add(&a, 8, xk::AccessMode::kWrite);
  xk::Task* t1 = fx.add(&b, 8, xk::AccessMode::kWrite);
  xk::ReadyList rl(fx.frame, 2);
  rl.extend(/*shard=*/0);  // both tasks land in shard 0
  std::uint64_t hits = 0, misses = 0;
  EXPECT_EQ(rl.pop_ready_claimed(0, &hits, &misses), t0);
  EXPECT_EQ(hits, 1u);    // served by the home shard
  EXPECT_EQ(misses, 0u);
  EXPECT_EQ(rl.pop_ready_claimed(1, &hits, &misses), t1);
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(misses, 1u);  // shard 1 was empty; shard 0 served the pop
}

// ---------------------------------------------------------------------------
// Ready-list correctness regressions (PR 5 satellites).
// ---------------------------------------------------------------------------

TEST(ReadyListTest, EarlyCompletionsClearedOnFrameRecycle) {
  // Regression: early_completions_ entries used to be erased only when the
  // task was later covered, so a section ending before extend() reached
  // full coverage leaked them into the next incarnation of a recycled
  // frame — where they alias freshly bump-allocated tasks at the same
  // arena addresses and can mark a brand-new task "already completed".
  RlFixture fx;
  double slot = 0.0;
  xk::ReadyList rl(fx.frame);
  for (int cycle = 0; cycle < 4; ++cycle) {
    xk::Task* ta = fx.add(&slot, 8, xk::AccessMode::kReadWrite);
    xk::Task* tb = fx.add(&slot, 8, xk::AccessMode::kReadWrite);
    // ta terminates before the list ever covers it: an early-completion
    // record is the only trace. The section then "ends" — coverage never
    // reaches ta or tb.
    ASSERT_TRUE(ta->try_claim(xk::TaskState::kRunOwner));
    rl.on_complete(ta);
    ta->state.store(xk::TaskState::kTerm);
    EXPECT_EQ(rl.early_completion_count(), 1u) << "cycle " << cycle;
    (void)tb;
    // Frame recycles; the arena hands the next cycle's tasks the same
    // storage. The epoch check must drop the stale record instead of
    // letting it accumulate (or worse, match an aliased new task).
    fx.frame.reset();
    fx.accesses.clear();
    xk::Task* fresh = fx.add(&slot, 8, xk::AccessMode::kReadWrite);
    rl.extend();
    EXPECT_EQ(rl.early_completion_count(), 0u) << "cycle " << cycle;
    EXPECT_EQ(rl.covered(), 1u) << "cycle " << cycle;
    // The aliased new task must be poppable — a leaked record would have
    // marked it completed at coverage and stranded it forever.
    EXPECT_EQ(rl.pop_ready_claimed(), fresh) << "cycle " << cycle;
    fresh->state.store(xk::TaskState::kTerm);
    fx.frame.reset();
    fx.accesses.clear();
  }
}

TEST(ReadyListTest, PopAfterFrameRecycleServesNoStaleEntries) {
  // The pop paths must honor the recycle contract too: a pop issued
  // before the new incarnation's first extend()/on_complete() must not
  // serve a prior-incarnation queue entry whose task pointer aliases
  // freshly recycled arena storage.
  RlFixture fx;
  double slot = 0.0;
  xk::ReadyList rl(fx.frame);
  fx.add(&slot, 8, xk::AccessMode::kWrite);
  rl.extend();
  ASSERT_EQ(rl.ready_size(), 1u);  // queued, never popped
  fx.frame.reset();
  fx.accesses.clear();
  xk::Task* fresh = fx.add(&slot, 8, xk::AccessMode::kWrite);
  // First contact with the recycled frame is a *pop*: it must drop the
  // stale entry (the fresh task is not covered yet) rather than claim
  // through the aliased pointer.
  EXPECT_EQ(rl.pop_ready_claimed(), nullptr);
  EXPECT_EQ(rl.ready_size(), 0u);
  EXPECT_EQ(fresh->load_state(), xk::TaskState::kInit);
  rl.extend();
  EXPECT_EQ(rl.pop_ready_claimed(), fresh);
}

TEST(ReadyListTest, WatchRecycledAcrossFrameReset) {
  // The watch deque is part of the coverage state: entries watched in one
  // incarnation point at dead nodes and must not survive a recycle.
  RlFixture fx;
  double slot = 0.0;
  xk::ReadyList rl(fx.frame);
  xk::Task* t0 = fx.add(&slot, 8, xk::AccessMode::kReadWrite);
  ASSERT_TRUE(t0->try_claim(xk::TaskState::kRunOwner));  // claimed pre-coverage
  rl.extend();
  EXPECT_EQ(rl.watched_size(), 1u);
  fx.frame.reset();
  fx.accesses.clear();
  rl.extend();
  EXPECT_EQ(rl.watched_size(), 0u);
}

TEST(ReadyListTest, WatchedEntriesDeduplicated) {
  // Regression: a node covered while already claimed was pushed onto the
  // watch deque at add_node and could be pushed *again* on the pop-path
  // claim-race branch once its predecessors released it into a shard —
  // doubling lazy-sweep work for every such claim. The per-node watched
  // flag keeps watched_size() bounded by the number of claims in flight.
  RlFixture fx;
  double slot = 0.0;
  xk::Task* t0 = fx.add(&slot, 8, xk::AccessMode::kReadWrite);
  xk::Task* t1 = fx.add(&slot, 8, xk::AccessMode::kReadWrite);
  // t1 is claimed by the owner's FIFO before coverage: add_node watches it.
  ASSERT_TRUE(t1->try_claim(xk::TaskState::kRunOwner));
  xk::ReadyList rl(fx.frame);
  rl.extend();
  EXPECT_EQ(rl.watched_size(), 1u);  // t1, covered-while-claimed
  // Pop + claim t0; completing it releases t1 into the ready shard even
  // though t1 is claimed (release tracks the graph, not the claim).
  ASSERT_EQ(rl.pop_ready_claimed(), t0);
  rl.on_complete(t0);
  t0->state.store(xk::TaskState::kTerm);
  // The pop now hits t1's dead-claim entry: the claim-race branch would
  // have watched it a second time without the dedupe flag.
  EXPECT_EQ(rl.pop_ready_claimed(), nullptr);
  // Exactly two claims are in flight (t0 StolenClaim via the pop, t1
  // RunOwner) — the watch deque must hold at most one entry each.
  EXPECT_LE(rl.watched_size(), 2u);
  // Repeated empty pops keep sweeping but never duplicate entries.
  EXPECT_EQ(rl.pop_ready_claimed(), nullptr);
  EXPECT_EQ(rl.pop_ready_claimed(), nullptr);
  EXPECT_LE(rl.watched_size(), 2u);
  // Both claims settle; the sweep drains the watch deque to empty.
  t1->state.store(xk::TaskState::kTerm);
  EXPECT_EQ(rl.pop_ready_claimed(), nullptr);  // sweep folds the silent Term
  EXPECT_EQ(rl.watched_size(), 0u);
}

#ifdef NDEBUG
TEST(ReadyListShard, OutOfRangeRankWrapsByModulo) {
  // Regression (release builds only — debug builds assert instead): an
  // out-of-range domain rank used to fold silently onto shard 0,
  // mis-crediting shard 0's depth and the hit/miss telemetry. It now
  // wraps by modulo.
  RlFixture fx;
  double a = 0;
  fx.add(&a, 8, xk::AccessMode::kWrite);
  xk::ReadyList rl(fx.frame, /*nshards=*/3);
  rl.extend(/*shard=*/5);  // 5 % 3 == 2, not 0
  EXPECT_EQ(rl.shard_ready_size(2), 1u);
  EXPECT_EQ(rl.shard_ready_size(0), 0u);
}
#else
TEST(ReadyListShardDeathTest, OutOfRangeRankAssertsInDebug) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RlFixture fx;
  double a = 0;
  fx.add(&a, 8, xk::AccessMode::kWrite);
  xk::ReadyList rl(fx.frame, /*nshards=*/3);
  // A rank at or past nshards with real shards is an upstream routing bug;
  // the single-shard collapse (nshards == 1) legitimately accepts any rank.
  EXPECT_DEATH(rl.extend(/*shard=*/5), "routing bug");
}
#endif

// ---------------------------------------------------------------------------
// ReadyList dependence-graph shape: an exclusive contiguous access retires
// the live intervals it covers, so the graph stays linear, and every
// dependence program order requires still gets its edge.
// ---------------------------------------------------------------------------

/// Completes `t` the way the runtime does: notify, then Term.
void rl_finish(xk::ReadyList& rl, xk::Task* t) {
  rl.on_complete(t);
  t->state.store(xk::TaskState::kTerm, std::memory_order_release);
}

/// Pops everything ready, then finishes the popped tasks one at a time in
/// pop order, until the list runs dry. Checks the sequential contract on
/// every pop: each earlier task in program order whose access conflicts
/// has already finished. Returns the pop order.
std::vector<xk::Task*> rl_drain_checked(xk::ReadyList& rl,
                                        const RlFixture& fx) {
  std::vector<xk::Task*> order;
  std::vector<xk::Task*> batch;
  for (;;) {
    batch.clear();
    while (xk::Task* t = rl.pop_ready_claimed()) batch.push_back(t);
    if (batch.empty()) break;
    for (xk::Task* t : batch) {
      const auto j = static_cast<std::size_t>(
          std::find(fx.tasks.begin(), fx.tasks.end(), t) - fx.tasks.begin());
      EXPECT_LT(j, fx.tasks.size());
      for (std::size_t i = 0; i < j; ++i) {
        const xk::Task* p = fx.tasks[i];
        if (!xk::accesses_conflict(p->accesses[0], t->accesses[0])) continue;
        EXPECT_EQ(p->load_state(), xk::TaskState::kTerm)
            << "task " << j << " released before its predecessor " << i;
      }
    }
    for (xk::Task* t : batch) {
      order.push_back(t);
      rl_finish(rl, t);
    }
  }
  EXPECT_EQ(order.size(), fx.tasks.size()) << "tasks never released";
  return order;
}

TEST(ReadyListGraph, RwChainOnOneCellHasLinearEdges) {
  constexpr std::size_t kTasks = 1000;
  RlFixture fx(kTasks);
  double cell = 0;
  for (std::size_t i = 0; i < kTasks; ++i) {
    fx.add(&cell, sizeof cell, xk::AccessMode::kReadWrite);
  }
  xk::ReadyList rl(fx.frame);
  rl.extend();
  ASSERT_EQ(rl.covered(), kTasks);
  EXPECT_EQ(rl.edge_count(), kTasks - 1);
  EXPECT_EQ(rl_drain_checked(rl, fx), fx.tasks);
}

TEST(ReadyListGraph, ReadFanOutKeepsEveryReaderEdge) {
  RlFixture fx;
  double cell = 0;
  constexpr auto kRw = xk::AccessMode::kReadWrite;
  constexpr auto kR = xk::AccessMode::kRead;
  xk::Task* w0 = fx.add(&cell, sizeof cell, xk::AccessMode::kWrite);
  xk::Task* r1 = fx.add(&cell, sizeof cell, kR);
  xk::Task* r2 = fx.add(&cell, sizeof cell, kR);
  xk::Task* r3 = fx.add(&cell, sizeof cell, kR);
  xk::Task* w4 = fx.add(&cell, sizeof cell, kRw);
  xk::Task* r5 = fx.add(&cell, sizeof cell, kR);
  xk::ReadyList rl(fx.frame);
  rl.extend();
  // w0 -> r1,r2,r3; r1,r2,r3 + w0 -> w4 (w4 retires all four); w4 -> r5.
  EXPECT_EQ(rl.edge_count(), 3u + 4u + 1u);
  ASSERT_EQ(rl.pop_ready_claimed(), w0);
  EXPECT_EQ(rl.pop_ready_claimed(), nullptr);
  rl_finish(rl, w0);
  std::vector<xk::Task*> readers;
  while (xk::Task* t = rl.pop_ready_claimed()) readers.push_back(t);
  ASSERT_EQ(readers.size(), 3u);
  // The writer waits for the *last* reader, not just the first.
  rl_finish(rl, r1);
  rl_finish(rl, r3);
  EXPECT_EQ(rl.pop_ready_claimed(), nullptr);
  rl_finish(rl, r2);
  ASSERT_EQ(rl.pop_ready_claimed(), w4);
  EXPECT_EQ(rl.pop_ready_claimed(), nullptr);
  rl_finish(rl, w4);
  EXPECT_EQ(rl.pop_ready_claimed(), r5);
}

TEST(ReadyListGraph, CumulativeWritePeersRetireNothing) {
  // CW peers do not depend on each other, so a CW access must not retire
  // an interval: the next peer would lose its edge from whatever the
  // retired interval stood for, and a later reader needs an edge from
  // *every* peer.
  RlFixture fx;
  double cell = 0;
  constexpr auto kCw = xk::AccessMode::kCumulWrite;
  xk::Task* w0 = fx.add(&cell, sizeof cell, xk::AccessMode::kWrite);
  xk::Task* c1 = fx.add(&cell, sizeof cell, kCw);
  xk::Task* c2 = fx.add(&cell, sizeof cell, kCw);
  xk::Task* r3 = fx.add(&cell, sizeof cell, xk::AccessMode::kRead);
  xk::ReadyList rl(fx.frame);
  rl.extend();
  ASSERT_EQ(rl.pop_ready_claimed(), w0);
  EXPECT_EQ(rl.pop_ready_claimed(), nullptr) << "c2 skipped w0";
  rl_finish(rl, w0);
  xk::Task* a = rl.pop_ready_claimed();
  xk::Task* b = rl.pop_ready_claimed();
  ASSERT_TRUE((a == c1 && b == c2) || (a == c2 && b == c1));
  rl_finish(rl, c2);  // the younger peer first
  EXPECT_EQ(rl.pop_ready_claimed(), nullptr) << "reader skipped c1";
  rl_finish(rl, c1);
  EXPECT_EQ(rl.pop_ready_claimed(), r3);
}

TEST(ReadyListGraph, StridedWriterRetiresNothing) {
  // The strided writer's bounding interval [0, 13) contains w0's [0, 2),
  // but its runs touch only element 0: a reader of element 1 must still
  // wait for w0.
  RlFixture fx;
  double v[16] = {};
  constexpr auto kRw = xk::AccessMode::kReadWrite;
  xk::Task* w0 = fx.add(&v[0], 2 * sizeof(double), kRw);
  xk::Task* s1 = fx.add(
      xk::MemRegion::strided(&v[0], sizeof(double), 4, 4 * sizeof(double)),
      kRw);
  xk::Task* r2 = fx.add(&v[1], sizeof(double), xk::AccessMode::kRead);
  xk::ReadyList rl(fx.frame);
  rl.extend();
  ASSERT_EQ(rl.pop_ready_claimed(), w0);
  EXPECT_EQ(rl.pop_ready_claimed(), nullptr);
  rl_finish(rl, w0);
  // s1 and r2 are independent of each other (element 1 vs 0,4,8,12).
  std::vector<xk::Task*> got;
  while (xk::Task* t = rl.pop_ready_claimed()) got.push_back(t);
  EXPECT_EQ(got, (std::vector<xk::Task*>{s1, r2}));
}

TEST(ReadyListGraph, PartialCoverRetiresNothing) {
  RlFixture fx;
  double v[8] = {};
  constexpr auto kRw = xk::AccessMode::kReadWrite;
  xk::Task* w0 = fx.add(&v[0], 4 * sizeof(double), kRw);
  xk::Task* w1 = fx.add(&v[0], 2 * sizeof(double), kRw);  // half of w0
  xk::Task* r2 = fx.add(&v[3], sizeof(double), xk::AccessMode::kRead);
  xk::Task* w3 = fx.add(&v[0], 8 * sizeof(double), kRw);  // covers all
  xk::Task* r4 = fx.add(&v[3], sizeof(double), xk::AccessMode::kRead);
  xk::ReadyList rl(fx.frame);
  rl.extend();
  // w0 -> w1, w0 -> r2; w3 takes w0, w1, r2 and retires them; w3 -> r4.
  EXPECT_EQ(rl.edge_count(), 2u + 3u + 1u);
  ASSERT_EQ(rl.pop_ready_claimed(), w0);
  rl_finish(rl, w0);
  std::vector<xk::Task*> got;
  while (xk::Task* t = rl.pop_ready_claimed()) got.push_back(t);
  EXPECT_EQ(got, (std::vector<xk::Task*>{w1, r2}));
  rl_finish(rl, w1);
  EXPECT_EQ(rl.pop_ready_claimed(), nullptr) << "w3 skipped r2";
  rl_finish(rl, r2);
  ASSERT_EQ(rl.pop_ready_claimed(), w3);
  rl_finish(rl, w3);
  EXPECT_EQ(rl.pop_ready_claimed(), r4);
}

/// One seeded run of the mixed-program sweep below. Tasks are published in
/// waves; an emulated frame owner claims program-order-ready tasks and
/// finishes them the three ways the runtime can (notify then Term, Term
/// with no notification, or hold the claim and Term it silently a round
/// later), before and after each wave's coverage. Every drain round pops
/// the list dry and checks both directions of the contract: nothing is
/// released early (every popped task's conflicting predecessors are Term)
/// and nothing is released late (every covered task still in Init has a
/// conflicting predecessor that is not Term).
void rl_mixed_program_sweep(std::uint64_t seed, unsigned nshards) {
  constexpr std::size_t kTasks = 400;
  constexpr std::size_t kWave = 100;
  constexpr xk::AccessMode kModes[] = {
      xk::AccessMode::kRead, xk::AccessMode::kWrite,
      xk::AccessMode::kReadWrite, xk::AccessMode::kCumulWrite};
  RlFixture fx(kTasks);
  double v[32] = {};
  xk::Rng rng(seed);
  // preds[j]: earlier tasks whose access conflicts with task j's.
  std::vector<std::vector<std::size_t>> preds;
  auto publish = [&] {
    const std::size_t lo = rng.next() % 24;
    const xk::AccessMode m = kModes[rng.next() % 4];
    xk::Task* t =
        rng.next() % 4 == 0
            ? fx.add(xk::MemRegion::strided(&v[lo], sizeof(double), 3,
                                            2 * sizeof(double)),
                     m)
            : fx.add(&v[lo], (1 + rng.next() % 8) * sizeof(double), m);
    std::vector<std::size_t> mine;
    for (std::size_t i = 0; i + 1 < fx.tasks.size(); ++i) {
      if (xk::accesses_conflict(fx.tasks[i]->accesses[0], t->accesses[0])) {
        mine.push_back(i);
      }
    }
    preds.push_back(std::move(mine));
  };
  auto state = [&](std::size_t j) { return fx.tasks[j]->load_state(); };
  auto deps_done = [&](std::size_t j) {
    return std::all_of(preds[j].begin(), preds[j].end(), [&](std::size_t i) {
      return state(i) == xk::TaskState::kTerm;
    });
  };
  auto any_shard = [&] { return static_cast<unsigned>(rng.next() % nshards); };
  auto store_term = [](xk::Task* t) {
    t->state.store(xk::TaskState::kTerm, std::memory_order_release);
  };

  xk::ReadyList rl(fx.frame, nshards);
  std::vector<xk::Task*> held;  // owner claims awaiting a silent Term
  auto owner_step = [&] {
    for (xk::Task* t : held) store_term(t);
    held.clear();
    int claims = 0;
    for (std::size_t j = 0; j < fx.tasks.size() && claims < 3; ++j) {
      if (state(j) != xk::TaskState::kInit || !deps_done(j) ||
          rng.next() % 4 != 0) {
        continue;
      }
      xk::Task* t = fx.tasks[j];
      ASSERT_TRUE(t->try_claim(xk::TaskState::kRunOwner));
      ++claims;
      switch (rng.next() % 3) {
        case 0:  // the owner saw the list: notify, then Term
          rl.on_complete(t, any_shard());
          store_term(t);
          break;
        case 1:  // it loaded ready_list before the attach: Term silently
          store_term(t);
          break;
        default:  // still running: Terms silently at the next step
          held.push_back(t);
          break;
      }
    }
  };

  std::vector<xk::Task*> batch;
  for (int round = 0;; ++round) {
    ASSERT_LT(round, 4 * static_cast<int>(kTasks)) << "sweep made no progress";
    for (std::size_t i = 0; i < kWave && fx.tasks.size() < kTasks; ++i) {
      publish();
    }
    owner_step();  // the fresh wave is not covered yet
    rl.extend(any_shard());
    owner_step();
    batch.clear();
    const unsigned home = any_shard();
    while (xk::Task* t = rl.pop_ready_claimed(home)) batch.push_back(t);
    for (xk::Task* t : batch) {
      const auto j = static_cast<std::size_t>(
          std::find(fx.tasks.begin(), fx.tasks.end(), t) - fx.tasks.begin());
      ASSERT_LT(j, fx.tasks.size());
      ASSERT_TRUE(deps_done(j)) << "task " << j << " released early";
    }
    for (std::size_t j = 0; j < fx.tasks.size(); ++j) {
      ASSERT_FALSE(state(j) == xk::TaskState::kInit && deps_done(j))
          << "task " << j << " ready but never released (round " << round
          << ")";
    }
    for (xk::Task* t : batch) {
      rl.on_complete(t, any_shard());
      store_term(t);
    }
    if (fx.tasks.size() == kTasks && held.empty() &&
        std::all_of(fx.tasks.begin(), fx.tasks.end(), [](xk::Task* t) {
          return t->load_state() == xk::TaskState::kTerm;
        })) {
      break;
    }
  }
}

TEST(ReadyListGraph, MixedProgramMatchesProgramOrder) {
  // A seeded mix of every mode over overlapping, strided and partial
  // regions, on one and two shards.
  for (const std::uint64_t seed : {7u, 11u, 23u, 42u, 1009u}) {
    for (const unsigned nshards : {1u, 2u}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", " << nshards << " shard(s)");
      rl_mixed_program_sweep(seed, nshards);
      if (HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Occupancy board: the per-worker bits, their domain/root fold and the
// quiescence event.
// ---------------------------------------------------------------------------

TEST(OccupancyBoardTest, UninitializedBoardIsInert) {
  xk::OccupancyBoard b;
  // Without init()/init_occupancy() every call is a safe no-op.
  EXPECT_EQ(b.publish_occupied(0, true), 0u);
  EXPECT_FALSE(b.occupied(0));
  EXPECT_EQ(b.domain_occupied(0), 0);
  EXPECT_EQ(b.root_occupied(), 0);
}

TEST(OccupancyBoardTest, OccupancyBitsFoldUpDomainAndRoot) {
  xk::OccupancyBoard b;
  b.init(2);
  b.init_occupancy({0, 0, 1});  // workers 0,1 -> domain 0; worker 2 -> domain 1
  EXPECT_FALSE(b.occupied(0));
  EXPECT_EQ(b.root_occupied(), 0);

  // First worker of a domain climbs two levels: its bit + the domain count
  // (the root rise rides the same call but is not a firing edge).
  EXPECT_EQ(b.publish_occupied(0, true), 2u);
  EXPECT_TRUE(b.occupied(0));
  EXPECT_EQ(b.domain_occupied(0), 1);
  EXPECT_EQ(b.root_occupied(), 1);
  // Idempotent republish: no transition, no fold.
  EXPECT_EQ(b.publish_occupied(0, true), 0u);
  // Second worker of an already-occupied domain: bit only.
  EXPECT_EQ(b.publish_occupied(1, true), 1u);
  EXPECT_EQ(b.domain_occupied(0), 2);
  EXPECT_EQ(b.root_occupied(), 1);
  // First worker of the other domain: bit + domain (root 1 -> 2).
  EXPECT_EQ(b.publish_occupied(2, true), 2u);
  EXPECT_EQ(b.domain_occupied(1), 1);
  EXPECT_EQ(b.root_occupied(), 2);

  // Clearing folds back down symmetrically.
  EXPECT_EQ(b.publish_occupied(1, false), 1u);  // domain 0 still has worker 0
  EXPECT_EQ(b.publish_occupied(0, false), 2u);  // domain 0 empties, root 2 -> 1
  EXPECT_EQ(b.root_occupied(), 1);
  // The machine-wide 1 -> 0 edge is the quiescence level: three folds.
  EXPECT_EQ(b.publish_occupied(2, false), 3u);
  EXPECT_EQ(b.root_occupied(), 0);
  EXPECT_EQ(b.domain_occupied(0), 0);
  EXPECT_EQ(b.domain_occupied(1), 0);

  // Out-of-range worker ids are inert, not UB.
  EXPECT_EQ(b.publish_occupied(7, true), 0u);
  EXPECT_FALSE(b.occupied(7));
}

TEST(OccupancyBoardTest, QuiesceFiresExactlyOnceAndDisarms) {
  xk::OccupancyBoard b;
  b.init(1);
  b.init_occupancy({0});
  xk::Parker work;
  b.arm_quiesce(&work);
  EXPECT_TRUE(b.quiesce_armed());
  // A root rise never fires.
  b.publish_occupied(0, true);
  EXPECT_TRUE(b.quiesce_armed());
  // The root 1 -> 0 edge fires and consumes the parker registration.
  EXPECT_EQ(b.publish_occupied(0, false), 3u);
  EXPECT_FALSE(b.quiesce_armed());
  // A later cycle still counts its folds but has nothing left to fire.
  b.publish_occupied(0, true);
  EXPECT_EQ(b.publish_occupied(0, false), 3u);
  EXPECT_FALSE(b.quiesce_armed());
  // disarm_quiesce drops an unfired arming.
  b.arm_quiesce(&work);
  EXPECT_TRUE(b.quiesce_armed());
  b.disarm_quiesce();
  EXPECT_FALSE(b.quiesce_armed());
}

TEST(OccupancyBoardTest, QuiesceWakesParkedWaiterByNotification) {
  xk::OccupancyBoard b;
  b.init(1);
  b.init_occupancy({0});
  xk::Parker work;
  b.publish_occupied(0, true);
  b.arm_quiesce(&work);
  std::atomic<bool> notified{false};
  std::thread sleeper([&] {
    const std::uint32_t epoch = work.prepare();
    work.announce();
    // Generous timeout: the assertion is that the *notification* (not the
    // backstop) ends the park.
    notified.store(work.park(epoch, std::chrono::seconds(30)));
    work.retract();
  });
  while (!work.has_waiters()) std::this_thread::yield();
  b.publish_occupied(0, false);  // quiescence: must wake the sleeper
  sleeper.join();
  EXPECT_TRUE(notified.load());
  EXPECT_FALSE(b.quiesce_armed());
}

// ---------------------------------------------------------------------------
// Steal-request slot protocol.
// ---------------------------------------------------------------------------

TEST(StealSlot, StatusLifecycle) {
  xk::StealRequest slot;
  EXPECT_EQ(slot.status.load(), xk::StealRequest::kEmpty);
  slot.status.store(xk::StealRequest::kPosted);
  slot.status.store(xk::StealRequest::kFailed);
  EXPECT_EQ(slot.status.load(), xk::StealRequest::kFailed);
}

TEST(Stats, AggregationAccumulates) {
  xk::WorkerStats a, b;
  a.tasks_spawned = 3;
  a.steals_ok = 1;
  b.tasks_spawned = 4;
  b.renames = 2;
  b.steals_local = 5;
  b.steals_remote = 1;
  a += b;
  EXPECT_EQ(a.tasks_spawned, 7u);
  EXPECT_EQ(a.steals_ok, 1u);
  EXPECT_EQ(a.renames, 2u);
  EXPECT_EQ(a.steals_local, 5u);
  EXPECT_EQ(a.steals_remote, 1u);
}

// ---------------------------------------------------------------------------
// Hierarchical (locality-aware) stealing.
// ---------------------------------------------------------------------------

namespace {

void counter_fib(std::uint64_t* r, int n) {
  if (n < 2) {
    *r = static_cast<std::uint64_t>(n);
    return;
  }
  std::uint64_t r1 = 0, r2 = 0;
  xk::spawn(counter_fib, xk::write(&r1), n - 1);
  counter_fib(&r2, n - 2);
  xk::sync();
  *r = r1 + r2;
}

}  // namespace

TEST(TopoSteal, WorkersSnapshotLocalBeforeRemoteOrder) {
  xk::Config cfg;
  cfg.nworkers = 4;
  cfg.sections = 1;       // pool-only geometry: no extra master slots
  cfg.topo = "2x2";      // two domains of two cores
  cfg.place = "compact";  // pin: the domain assertions below assume it
  xk::Runtime rt(cfg);
  ASSERT_EQ(rt.ndomains(), 2u);
  for (unsigned i = 0; i < 4; ++i) {
    xk::Worker& w = rt.worker(i);
    EXPECT_EQ(w.domain(), i / 2) << i;
    ASSERT_EQ(w.victim_order().size(), 3u) << i;
    EXPECT_EQ(w.nlocal_victims(), 1u) << i;
    // Local tier strictly precedes every remote entry; self never appears.
    for (unsigned k = 0; k < w.victim_order().size(); ++k) {
      const unsigned v = w.victim_order()[k];
      EXPECT_NE(v, i);
      const bool local = rt.worker(v).domain() == w.domain();
      EXPECT_EQ(local, k < w.nlocal_victims()) << "worker " << i << " k " << k;
    }
  }
}

TEST(TopoSteal, MasterSlotsJoinVictimOrdersWithPoolPlacement) {
  // With XK_SECTIONS > 1 the extra master slots (ids >= nworkers) are
  // full Worker instances sharing a pool slot's placement: every worker's
  // victim order spans them (their root frames are stealable), the
  // local-before-remote tiering still holds, and the pool placement /
  // domain count is unchanged.
  xk::Config cfg;
  cfg.nworkers = 4;
  cfg.sections = 3;  // two extra master slots: ids 4 (slot 0), 5 (slot 1)
  cfg.topo = "2x2";
  cfg.place = "compact";
  xk::Runtime rt(cfg);
  ASSERT_EQ(rt.nworkers(), 4u);
  ASSERT_EQ(rt.nworkers_total(), 6u);
  ASSERT_EQ(rt.ndomains(), 2u);
  EXPECT_EQ(rt.worker(4).domain(), rt.worker(0).domain());
  EXPECT_EQ(rt.worker(5).domain(), rt.worker(1).domain());
  for (unsigned i = 0; i < rt.nworkers_total(); ++i) {
    xk::Worker& w = rt.worker(i);
    ASSERT_EQ(w.victim_order().size(), rt.nworkers_total() - 1) << i;
    for (unsigned k = 0; k < w.victim_order().size(); ++k) {
      const unsigned v = w.victim_order()[k];
      EXPECT_NE(v, i);
      const bool local = rt.worker(v).domain() == w.domain();
      EXPECT_EQ(local, k < w.nlocal_victims()) << "worker " << i << " k " << k;
    }
  }
}

TEST(TopoSteal, LocalRemoteCountersAccountForEverySteal) {
  xk::Config cfg;
  cfg.nworkers = 4;
  cfg.topo = "2x2";
  xk::Runtime rt(cfg);
  // On a 1-core CI box the whole tree can drain before any pool worker is
  // ever scheduled; rerun (accumulating counters) until a steal happened.
  xk::WorkerStats s;
  for (int attempt = 0; attempt < 20; ++attempt) {
    std::uint64_t r = 0;
    rt.run([&] {
      counter_fib(&r, 24);
      xk::sync();
    });
    EXPECT_EQ(r, 46368u);
    s = rt.stats_snapshot();
    if (s.steals_ok > 0) break;
  }
  // Every successful steal is attributed to exactly one tier.
  EXPECT_EQ(s.steals_ok, s.steals_local + s.steals_remote);
  EXPECT_GT(s.steals_ok, 0u);
}

TEST(TopoSteal, AsymmetricShapeEscalatesToRemote) {
  // Asymmetric machine, work rooted in the small domain: domain 1's six
  // thieves can only reach it across the boundary, so the constant
  // per-thief local budget must run out and widen their draw to domain 0.
  xk::Config cfg;
  cfg.nworkers = 8;
  cfg.topo = "1x2+1x6";
  cfg.place = "compact";       // w0,w1 -> domain 0; w2..w7 -> domain 1
  xk::Runtime rt(cfg);
  ASSERT_EQ(rt.ndomains(), 2u);
  EXPECT_EQ(rt.worker(0).domain(), 0u);
  EXPECT_EQ(rt.worker(1).domain(), 0u);
  for (unsigned i = 2; i < 8; ++i) EXPECT_EQ(rt.worker(i).domain(), 1u) << i;
  EXPECT_EQ(rt.worker(7).domain_rank(), 1u);

  // On a 1-core CI box the tree can drain before the pool workers are ever
  // scheduled; rerun (accumulating counters) until a remote steal landed.
  xk::WorkerStats s;
  for (int attempt = 0; attempt < 20; ++attempt) {
    std::uint64_t r = 0;
    rt.run([&] {
      counter_fib(&r, 24);
      xk::sync();
    });
    EXPECT_EQ(r, 46368u);
    s = rt.stats_snapshot();
    if (s.steals_remote > 0) break;
  }
  EXPECT_GT(s.steals_remote, 0u);
  EXPECT_EQ(s.steals_ok, s.steals_local + s.steals_remote);
}

TEST(TopoSteal, FlatMachineCountsEverythingLocal) {
  xk::Config cfg;
  cfg.nworkers = 4;
  cfg.topo = "1x4";  // one domain: the flat draw, no remote tier
  xk::Runtime rt(cfg);
  ASSERT_EQ(rt.ndomains(), 1u);
  std::uint64_t r = 0;
  rt.run([&] {
    counter_fib(&r, 20);
    xk::sync();
  });
  const xk::WorkerStats s = rt.stats_snapshot();
  EXPECT_EQ(s.steals_remote, 0u);
  EXPECT_EQ(s.steals_ok, s.steals_local);
}

// ---------------------------------------------------------------------------
// The steal deal: every served request gets exactly one task.
// ---------------------------------------------------------------------------

TEST(AdaptiveSteal, ModesProduceIdenticalResults) {
  // Steals change which worker runs a task, never which tasks run or in
  // what dependence order. The chain is unsigned: 64 rounds of *3+1 wrap.
  xk::Config cfg;
  cfg.nworkers = 4;
  cfg.topo = "2x2";
  xk::Runtime rt(cfg);
  std::uint64_t r = 0;
  std::uint64_t chain = 0;
  rt.run([&] {
    counter_fib(&r, 22);
    for (int i = 0; i < 64; ++i) {
      xk::spawn([](std::uint64_t* c) { *c = *c * 3 + 1; }, xk::rw(&chain));
    }
    xk::sync();
  });
  EXPECT_EQ(r, 17711u);
  std::uint64_t expect = 0;
  for (int i = 0; i < 64; ++i) expect = expect * 3 + 1;
  EXPECT_EQ(chain, expect);
}

TEST(StealDeal, EachRequestGetsOneTaskCombinerTheOldest) {
  // One combine round driven by hand: k thieves post into the master's box
  // while its frame's ready list holds `depth` ready tasks. No pool thread
  // exists (nworkers = 1); the thread-less master slots 1..k are the
  // thieves, slot 1 the combiner. `busy` (0 = none) names a thief that
  // posts as a suspended owner rather than an idle thief.
  constexpr unsigned kThieves = 3;
  xk::Config cfg;
  cfg.nworkers = 1;
  cfg.sections = kThieves + 1;
  cfg.topo = "1x4";
  xk::Runtime rt(cfg);
  ASSERT_EQ(rt.nworkers_total(), kThieves + 1);

  struct Round {
    std::vector<xk::Task*> tasks;    // program order: oldest first
    std::vector<xk::Task*> replies;  // per box slot; null = kFailed
    std::size_t left = 0;            // still in the ready list
  };
  auto combine_round = [&](std::size_t depth, unsigned busy, Round& out) {
    std::vector<int> cells(depth, 0);
    out.replies.assign(kThieves + 1, nullptr);
    rt.run([&] {
      xk::Worker& victim = *xk::this_worker();
      ASSERT_EQ(victim.id(), 0u);
      xk::Frame& f = victim.current_frame();
      for (std::size_t i = 0; i < depth; ++i) {
        xk::spawn([](int* c) { *c = 1; }, xk::write(&cells[i]));
      }
      for (xk::Frame::Iterator it(f); it.index() < depth; it.advance()) {
        out.tasks.push_back(it.get());
      }
      auto* rl = new xk::ReadyList(f);  // the frame's reset deletes it
      f.ready_list.store(rl, std::memory_order_release);
      for (unsigned i = 1; i <= kThieves; ++i) {
        victim.request_slot(i).idle = i != busy;
        victim.request_slot(i).status.store(xk::StealRequest::kPosted);
      }
      ASSERT_TRUE(rt.worker(1).try_combine(victim));
      for (unsigned i = 1; i <= kThieves; ++i) {
        xk::StealRequest& s = victim.request_slot(i);
        const int status = s.status.load();
        if (status == xk::StealRequest::kServed) {
          ASSERT_NE(s.reply, nullptr) << i;
          EXPECT_EQ(s.reply_frame, &f) << i;
          EXPECT_EQ(s.reply->load_state(), xk::TaskState::kStolenClaim) << i;
          out.replies[i] = s.reply;
        } else {
          ASSERT_EQ(status, xk::StealRequest::kFailed) << i;
        }
      }
      out.left = rl->ready_size();
      // Drop the replies unclaimed, as thieves that lost the claim race:
      // the owner's drain reclaims them and runs everything.
      for (unsigned i = 1; i <= kThieves; ++i) {
        victim.request_slot(i).status.store(xk::StealRequest::kEmpty);
      }
      xk::sync();
    });
    for (int c : cells) EXPECT_EQ(c, 1);
  };

  // Plenty: 8 ready tasks, every thief idle. The combiner's own slot takes
  // the oldest task; the k oldest are dealt once each, and the other
  // d - k stay in the list.
  Round plenty;
  combine_round(8, /*busy=*/0, plenty);
  if (HasFatalFailure()) return;
  EXPECT_EQ(plenty.replies[1], plenty.tasks[0]);
  std::vector<xk::Task*> got(plenty.replies.begin() + 1, plenty.replies.end());
  std::sort(got.begin(), got.end());
  std::vector<xk::Task*> oldest(plenty.tasks.begin(),
                                plenty.tasks.begin() + kThieves);
  std::sort(oldest.begin(), oldest.end());
  EXPECT_EQ(got, oldest);
  EXPECT_EQ(plenty.left, 8u - kThieves);

  // Scarce: 2 ready tasks for 3 requests, and thief 2 is not idle. The
  // idle-first partition serves thieves 1 and 3 in box order — the
  // combiner the oldest, thief 3 the other — and fails thief 2, which box
  // order alone would have served ahead of thief 3.
  Round scarce;
  combine_round(2, /*busy=*/2, scarce);
  if (HasFatalFailure()) return;
  EXPECT_EQ(scarce.replies[1], scarce.tasks[0]);
  EXPECT_EQ(scarce.replies[2], nullptr);
  EXPECT_EQ(scarce.replies[3], scarce.tasks[1]);
  EXPECT_EQ(scarce.left, 0u);
}

TEST(Occupancy, MasterBitTracksRootFrameAndQuiesceArming) {
  xk::Config cfg;
  cfg.nworkers = 2;
  cfg.topo = "1x2";
  xk::Runtime rt(cfg);
  const xk::OccupancyBoard& b = rt.occupancy();
  EXPECT_FALSE(b.occupied(0));
  EXPECT_EQ(b.root_occupied(), 0);
  EXPECT_FALSE(b.quiesce_armed());
  rt.run([&] {
    // The master's root frame publishes its bit for the whole section, so
    // the machine-wide count stays >= 1 and the armed quiescence event
    // cannot fire early.
    EXPECT_TRUE(b.occupied(0));
    EXPECT_GE(b.domain_occupied(0), 1);
    EXPECT_GE(b.root_occupied(), 1);
    EXPECT_TRUE(b.quiesce_armed());
  });
  // Section closed: the root-frame pop cleared the bit, folded the counts
  // to zero and consumed the arming (the quiescence fire).
  EXPECT_FALSE(b.occupied(0));
  EXPECT_EQ(b.root_occupied(), 0);
  EXPECT_FALSE(b.quiesce_armed());
}

TEST(Occupancy, SectionsReuseCleanlyAcrossRuns) {
  // Arm/fire must stay exactly-once *per section* across many sections.
  xk::Config cfg;
  cfg.nworkers = 4;
  cfg.topo = "2x2";
  xk::Runtime rt(cfg);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> hits{0};
    rt.run([&] {
      for (int i = 0; i < 20; ++i) xk::spawn([&hits] { hits.fetch_add(1); });
      xk::sync();
    });
    ASSERT_EQ(hits.load(), 20) << round;
    ASSERT_EQ(rt.occupancy().root_occupied(), 0) << round;
    ASSERT_FALSE(rt.occupancy().quiesce_armed()) << round;
  }
}

TEST(AdaptiveSteal, StolenJoinWakesWaiterExactlyOnce) {
  // Quiescence regression: a task stolen to a remote-domain thief must
  // wake its suspended joiner through the joiner's own parker — exactly
  // one wake per stolen join, no completion broadcast. The choreography
  // forces the shape: the master runs A (which spins until B was picked
  // up elsewhere), so B can only run via a steal; B then lingers long
  // enough for the master to register as its join waiter and park.
  xk::Config cfg;
  cfg.nworkers = 8;
  cfg.topo = "1x2+1x6";
  cfg.place = "compact";  // master in the small domain; thieves mostly remote
  xk::Runtime rt(cfg);
  for (int attempt = 0; attempt < 40; ++attempt) {
    rt.reset_stats();
    std::atomic<bool> b_started{false}, a_done{false};
    rt.run([&] {
      xk::spawn([&] {
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
        while (!b_started.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < until) {
          std::this_thread::yield();
        }
        a_done.store(true, std::memory_order_release);
      });
      xk::spawn([&] {
        b_started.store(true, std::memory_order_release);
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
        while (!a_done.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < until) {
          std::this_thread::yield();
        }
        // Linger so the master reaches its registered join wait before the
        // final state store — widening the window where the wake matters.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
      xk::sync();
    });
    const xk::WorkerStats s = rt.stats_snapshot();
    // Only A and B exist, so at most two stolen joins; a double-wake of a
    // single registration would break these bounds.
    ASSERT_LE(s.join_wakes, 2u);
    if (s.steal_tasks == 1) {
      ASSERT_LE(s.join_wakes, 1u);
    }
    if (s.join_wakes >= 1) {
      SUCCEED();
      return;
    }
  }
  // On a 1-core box the join may always resolve before the waiter parks
  // its registration; completing every section correctly is then all this
  // machine can demonstrate (the TSan topo legs run the real race).
  SUCCEED();
}

}  // namespace
