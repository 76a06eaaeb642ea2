// Frame: the per-task workqueue of §II-B.
//
// "A thread that performs a task may create child tasks and pushes them in
// its own workqueue. The workqueue is represented as a stack. The enqueue
// operation is very fast, typically about ten cycles." Each running task gets
// a frame; spawned children are appended; when the body returns (or at an
// explicit sync) the owner executes them in FIFO order, then recycles it.
//
// Concurrency contract:
//  * Only the owner appends tasks and advances the exec cursor.
//  * Thieves (the elected combiner, holding the worker's steal mutex) read
//    `size()` with acquire and then read published descriptors.
//  * The frame is reset only after every task reached Term and no scanner is
//    active (Worker::recycle_frame, run at the end of every drain).
#pragma once

#include <atomic>
#include <cstdint>

#include "core/arena.hpp"
#include "core/task.hpp"

namespace xk {

class ReadyList;

class Frame {
 public:
  static constexpr std::uint32_t kChunkTasks = 128;

  struct Chunk {
    Task* tasks[kChunkTasks];
    std::atomic<Chunk*> next{nullptr};
  };

  Frame() = default;
  ~Frame();

  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

  /// Owner-only: appends a published descriptor. The release store on the
  /// size counter is the publication point for the descriptor's contents.
  void push_task(Task* t) {
    const std::uint32_t n = ntasks_.load(std::memory_order_relaxed);
    const std::uint32_t slot = n % kChunkTasks;
    if (slot == 0 && n != 0) {
      Chunk* fresh = arena.allocate_array<Chunk>(1);
      new (fresh) Chunk();
      tail_->next.store(fresh, std::memory_order_release);
      tail_ = fresh;
    }
    tail_->tasks[slot] = t;
    ntasks_.store(n + 1, std::memory_order_release);
    if (t->heap_owned()) has_heap_tasks_ = true;
  }

  std::uint32_t size_acquire() const {
    return ntasks_.load(std::memory_order_acquire);
  }
  std::uint32_t size_relaxed() const {
    return ntasks_.load(std::memory_order_relaxed);
  }

  /// Owner-only: true while no task was ever published in this incarnation.
  /// A pristine frame is invisible to thieves in every way that matters (a
  /// scanner reads size 0 and stops), which lets Worker::pop_frame skip the
  /// seq_cst Dekker round when popping it. Nothing but the arena can be
  /// dirty in a pristine frame (the chunk list, cursors, ready list and
  /// flags only change once a task is published), so its pop rewinds the
  /// arena and skips reset() — and with it the epoch bump: the epoch keys
  /// scan caches of *published* tasks, and a pristine incarnation has none.
  bool pristine() const { return ntasks_.load(std::memory_order_relaxed) == 0; }

  /// Sequential reader over published descriptors; valid for indexes below a
  /// previously loaded size_acquire().
  class Iterator {
   public:
    explicit Iterator(const Frame& f)
        : chunk_(&f.head_), index_(0), slot_(0) {}

    Task* get() const { return chunk_->tasks[slot_]; }
    std::uint32_t index() const { return index_; }

    void advance() {
      ++index_;
      if (++slot_ == kChunkTasks) {
        slot_ = 0;
        chunk_ = chunk_->next.load(std::memory_order_acquire);
      }
    }

    /// Moves forward to `target` (must be >= current index).
    void seek(std::uint32_t target) {
      while (index_ < target) advance();
    }

   private:
    const Chunk* chunk_;
    std::uint32_t index_;
    std::uint32_t slot_;
  };

  /// Incarnation counter: bumped by reset() so combiner-side scan caches
  /// (FrameScanState in worker.hpp) self-invalidate when a frame is
  /// recycled. Read only inside a scanning window, where the Dekker
  /// handshake in Worker::recycle_frame guarantees no concurrent reset;
  /// relaxed suffices because the handshake already provides the
  /// happens-before edge.
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Owner-only: recycles arena + counters. Precondition: all tasks Term and
  /// no active scanner (enforced by Worker::recycle_frame).
  void reset();

  /// Ready-list accelerating structure (§II-C); attached by a combiner under
  /// the steal mutex, consulted by the Term path with a single acquire load.
  /// The list is sharded by locality domain (one ready deque per domain
  /// rank; see readylist.hpp) — callers pass their domain rank so releases
  /// and pops route through their own domain's shard first. The list's
  /// one mutex is internal; the frame never participates in it —
  /// reset()/~Frame delete the list only after the Dekker handshake
  /// excluded every scanner, so that lock can be neither held nor wanted
  /// at that point. The epoch bump in reset() is the boundary the list's
  /// coverage and early-completion records key off.
  std::atomic<ReadyList*> ready_list{nullptr};

  /// Set by a combiner (inside the scanning window) when it steal-claims a
  /// task of this frame. The owner's recycle_frame then drains in-flight
  /// reply slots before the reset: with join-side reclaim a claimed task can
  /// reach Term before the thief holding its reply ever looks at it, so
  /// the reply may dangle into this frame past the last Term. Ordering is
  /// covered by the Dekker handshake (the flag is written only while the
  /// scan window is open).
  void mark_steal_claimed() {
    // xk-order: the Dekker handshake above is the ordering edge — the
    // flag is only written inside an open scan window the owner waits out.
    steal_claimed_.store(true, std::memory_order_relaxed);
  }
  bool steal_claimed() const {
    return steal_claimed_.load(std::memory_order_relaxed);
  }

  // Owner-private FIFO dispatch cursor. Kept as a (chunk, slot) position so
  // each dispatch is O(1) instead of a walk of the chunk list from the
  // head. The hop to the next chunk is deferred until the
  // next access: at a boundary the successor chunk may not exist yet (it is
  // allocated by the push that needs it).
  std::uint32_t exec_cursor() const { return exec_index_; }
  Task* exec_current() {
    if (exec_slot_ == kChunkTasks) {
      exec_chunk_ = exec_chunk_->next.load(std::memory_order_acquire);
      exec_slot_ = 0;
    }
    return exec_chunk_->tasks[exec_slot_];
  }
  void exec_advance() {
    ++exec_index_;
    ++exec_slot_;  // may park at kChunkTasks until exec_current() hops
  }

  /// Arena holding descriptors, argument blocks and chunk storage.
  Arena arena;

 private:
  Chunk head_;
  Chunk* tail_ = &head_;
  Chunk* exec_chunk_ = &head_;
  std::uint32_t exec_index_ = 0;
  std::uint32_t exec_slot_ = 0;
  std::atomic<std::uint32_t> ntasks_{0};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> steal_claimed_{false};
  bool has_heap_tasks_ = false;

  void delete_heap_tasks();
};

}  // namespace xk
