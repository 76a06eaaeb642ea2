// Task descriptor and the state machine shared by victim and thieves.
//
// A task is "a function call that returns no value except through the shared
// memory and the list of its effective parameters" (§II-B). The descriptor is
// bump-allocated in its frame's arena by the owner and, once published
// (frame task-count release-store), becomes immutable except for `state`,
// `exception` and the renaming records.
//
// State machine (the single atomic below is our T.H.E analog: the victim's
// FIFO claim and a thief's steal claim race on one CAS):
//
//   Init ──CAS(owner)──► RunOwner ──► BodyDoneOwner ──► Term
//     └───CAS(combiner)► StolenClaim ──► RunThief ──► BodyDoneThief ──► Term
//                              └──CAS(owner reclaim)──► RunOwner ──► ...
//
// StolenClaim is itself a second arbitration point: the receiving thief
// must CAS StolenClaim -> RunThief before executing, and a frame owner
// whose FIFO drain reaches a claimed-but-unstarted task may CAS
// StolenClaim -> RunOwner to *reclaim* it and run it inline (the thief's
// later CAS fails and it drops the reply). Reclaim keeps joins from
// stalling on replies parked at thieves that are descheduled or busy —
// the claimed task is exactly the one the owner is idle waiting for.
//
// "Owner" means: claimed by the thread whose frame stack holds the
// descriptor, so the task's children are spawned onto the same stack and
// remain visible to readiness scans of that stack. "Thief" means the subtree
// moved to another worker's stack. A task *blocks* its program-order
// successors while its writes may still be in flight:
//
//   blocking(s) = (s != Term) && (s != BodyDoneOwner)
//
// BodyDoneOwner does not block because the body's writes are done and any
// still-running children have their own descriptors in deeper frames of the
// same stack, where the scan sees them individually. BodyDoneThief must
// block: the children live on the thief's stack, invisible to this scan.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>

#include "check/check.hpp"
#include "core/access.hpp"
#include "support/cache.hpp"

namespace xk {

class Worker;
struct Task;
class SplitContext;

/// Task body: receives the argument block allocated next to the descriptor.
using TaskBody = void (*)(void* args, Worker& worker);

/// Splitter for adaptive tasks (§II-D): invoked by the elected combiner, at
/// most one concurrently with the running body, to extract work on demand.
/// Receives the task's own argument block (`Task::args`): the body and the
/// splitter share the adaptive state through it.
using TaskSplitter = void (*)(void* args, SplitContext& ctx);

enum class TaskState : std::uint8_t {
  kInit = 0,
  kRunOwner = 1,
  kStolenClaim = 2,
  kRunThief = 3,
  kBodyDoneOwner = 4,
  kBodyDoneThief = 5,
  /// Stolen + renamed: body and subtree done, renamed writes awaiting the
  /// frame owner's in-order commit (then Term).
  kCommitReady = 6,
  kTerm = 7,
};

/// Does this state order the task before later tasks in a readiness scan?
constexpr bool state_blocks_successors(TaskState s) {
  return s != TaskState::kTerm && s != TaskState::kBodyDoneOwner;
}

/// The edges of the claim/commit machine drawn above, as a predicate: the
/// checked build (XK_CHECK=ON) asserts every non-CAS state store against
/// it (XK_EXPECT(task_transition) at the worker.cpp seams). The CAS
/// transitions enforce their from-state by construction; the plain stores
/// are where a scheduler bug could teleport a task — e.g. a double
/// completion storing BodyDone over Term.
constexpr bool task_transition_ok(TaskState from, TaskState to) {
  switch (from) {
    case TaskState::kInit:
      return to == TaskState::kRunOwner || to == TaskState::kStolenClaim;
    case TaskState::kStolenClaim:  // thief start, or the owner's reclaim
      return to == TaskState::kRunThief || to == TaskState::kRunOwner;
    case TaskState::kRunOwner:
      return to == TaskState::kBodyDoneOwner;
    case TaskState::kRunThief:
      return to == TaskState::kBodyDoneThief;
    case TaskState::kBodyDoneOwner:
      return to == TaskState::kTerm;
    case TaskState::kBodyDoneThief:  // CommitReady only under renaming
      return to == TaskState::kCommitReady || to == TaskState::kTerm;
    case TaskState::kCommitReady:
      return to == TaskState::kTerm;
    case TaskState::kTerm:  // terminal: nothing moves a task out of Term
      return false;
  }
  return false;
}

/// Deferred-write record created when the scheduler renames a Write access:
/// the body wrote into `buffer`; the owner copies it to `target` when the
/// task's program-order turn arrives (all predecessors terminated).
struct RenameRecord {
  void* target = nullptr;
  void* buffer = nullptr;
  std::size_t bytes = 0;
  RenameRecord* next = nullptr;
};

/// At most one cache line. Every spawn zero-initialises a descriptor; at 64
/// bytes that is a handful of vector stores, where GCC emits `rep stos` for
/// a larger struct. xk::spawn places the argument block and the access
/// array right behind it in the same arena record.
struct Task {
  std::atomic<TaskState> state{TaskState::kInit};
  /// Some access is a cumulative write: the body runs under the per-region
  /// CW guards (set at creation, immutable afterwards).
  bool has_cw = false;
  /// Dynamic on/off switch of the splitter (see below).
  std::atomic<bool> splitter_armed{false};
  std::uint32_t naccesses = 0;

  TaskBody body = nullptr;
  void* args = nullptr;

  /// Declared accesses (naccesses entries), null for pure fork-join.
  const Access* accesses = nullptr;

  /// Adaptive-task hook (§II-D), null for regular tasks; it receives `args`.
  /// Set before the descriptor is published (spawn time) and immutable
  /// afterwards; `splitter_armed` is what the body clears when no divisible
  /// work remains.
  TaskSplitter splitter = nullptr;

  /// Non-null exactly for descriptors heap-allocated by a splitter reply
  /// rather than arena-allocated in a frame: the hosting frame deletes the
  /// task through it at reset.
  void (*heap_deleter)(Task*) = nullptr;

  /// Renamed writes awaiting commit, owner-ordered (see RenameRecord).
  RenameRecord* renames = nullptr;

  /// First exception thrown by the body, adopted by the parent at its sync.
  std::exception_ptr exception;

  bool heap_owned() const { return heap_deleter != nullptr; }

  TaskState load_state(std::memory_order order = std::memory_order_acquire) const {
    return state.load(order);
  }

  bool try_claim(TaskState desired) {
    // The CAS itself forbids double claims (one winner out of Init); the
    // checked build additionally pins the *target*: claiming straight
    // into a run-done or terminal state would corrupt the machine while
    // still winning the CAS.
    XK_EXPECT(task_claim_state,
              desired == TaskState::kRunOwner ||
                  desired == TaskState::kStolenClaim,
              static_cast<std::uint64_t>(desired));
    TaskState expected = TaskState::kInit;
    return state.compare_exchange_strong(expected, desired,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire);
  }

  /// True when a combiner may currently invoke the splitter.
  bool splittable() const {
    return splitter != nullptr &&
           splitter_armed.load(std::memory_order_acquire);
  }
};
static_assert(sizeof(Task) <= kCacheLine, "the task descriptor is one line");

}  // namespace xk
