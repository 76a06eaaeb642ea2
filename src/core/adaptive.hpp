// Adaptive tasks (§II-D): on-demand task creation.
//
// A running task may publish a *splitter*, `void(void* args, SplitContext&)`.
// When the combiner's traversal finds fewer ready tasks than pending steal
// requests, it invokes splitters of running adaptive tasks with the task's
// own `args` (the state body and splitter share) and a SplitContext holding
// the unserved requests. The steal mutex guarantees the paper's invariant:
// at most one thief executes a splitter concurrently with the task body, so
// body/splitter coordination can use simple protocols (here: a spinlocked
// interval).
//
// A splitter replies with freshly heap-allocated tasks; the receiving thief
// pushes the reply into a fresh frame of its own stack and executes it there,
// which makes the reply itself visible to further steals and splits.
#pragma once

#include <cstddef>
#include <utility>

#include "core/task.hpp"
#include "core/worker.hpp"

namespace xk {

namespace detail {

/// Heap-allocated task produced by splitters: the descriptor with the
/// functor behind it. Deleted by the frame that hosted the reply
/// (Frame::reset) through Task::heap_deleter.
template <typename F>
struct HeapTask : Task {
  F fn;
  explicit HeapTask(F f) : fn(std::move(f)) {
    body = [](void* a, Worker& w) { (*static_cast<F*>(a))(w); };
    args = &fn;
    heap_deleter = [](Task* t) { delete static_cast<HeapTask*>(t); };
  }
};

}  // namespace detail

/// Creates a heap task running `fn(Worker&)`. Ownership passes to the frame
/// that eventually hosts it (see Frame::reset).
template <typename F>
Task* make_heap_task(F fn) {
  return new detail::HeapTask<F>(std::move(fn));
}

/// Arms a prepared (unpublished) task as adaptive; the splitter will be
/// called with the task's `args`. Must be called before the descriptor is
/// pushed into a frame; after publication the splitter is immutable and
/// only `splitter_armed` may change (the body clears it via
/// `task.splitter_armed.store(false)` when no divisible work remains).
inline void arm_splitter(Task& task, TaskSplitter splitter) {
  task.splitter = splitter;
  task.splitter_armed.store(true, std::memory_order_release);
}

/// View over the unserved steal requests handed to a splitter.
class SplitContext {
 public:
  SplitContext(StealRequest** slots, std::size_t n) : slots_(slots), n_(n) {}

  /// Number of requests still waiting for work.
  std::size_t size() const { return n_ - next_; }

  /// Replies to the next unserved request with a heap task running
  /// `fn(Worker&)`. Returns false when no request remains.
  template <typename F>
  bool reply(F fn) {
    if (size() == 0) return false;
    return reply_raw(make_heap_task(std::move(fn)));
  }

  /// Low-level reply with a prepared heap task. Returns false (and leaves
  /// the task untouched) when no request remains.
  bool reply_raw(Task* t);

  /// Requests consumed so far by this splitter invocation.
  std::size_t replied() const { return next_; }

 private:
  StealRequest** slots_;
  std::size_t n_;
  std::size_t next_ = 0;
};

}  // namespace xk
