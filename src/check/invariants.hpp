// The invariant registry of the xk_check subsystem: every dynamic
// concurrency invariant the checked build (-DXK_CHECK=ON) asserts, in one
// X-macro table.
//
// Each entry is X(name, family, "what a violation means"). The enum, the
// name/description tables, the per-invariant violation counters and the
// registry-completeness static_asserts are all generated from this single
// list (the same pattern as XK_WORKER_COUNTERS in core/stats.hpp), so
// adding an invariant is one line here plus the XK_EXPECT at the seam.
//
// Families group the invariants by the state machine they guard:
//
//   task    — the Task::state claim/commit machine (core/task.hpp):
//             Init -> {RunOwner | StolenClaim -> RunThief} -> BodyDone*
//             -> (CommitReady) -> Term, one claimer per task.
//   ready   — the ReadyList accelerating structure (core/readylist.*):
//             gauge accounting and paired npred edges.
//   service — the JobStatus machine (core/service.hpp): terminal states
//             are mutually exclusive and settle exactly once.
//   section — Runtime::begin()/end() master-slot balance and the
//             exactly-once observability drain per section batch.
#pragma once

#include <cstddef>

namespace xk::check {

// clang-format off
#define XK_CHECK_INVARIANTS(X)                                                \
  X(task_transition, task,                                                    \
    "task state moved along an edge outside the claim/commit machine")        \
  X(task_claim_state, task,                                                   \
    "task claim CAS targeted a state that is not a claim state")              \
  X(rl_accounting, ready,                                                     \
    "nready_ != entries summed over shard deques at a quiesced fold point")   \
  X(rl_npred_underflow, ready,                                                \
    "npred decrement without a matching coverage-edge increment")             \
  X(job_transition, service,                                                  \
    "job status moved along an edge outside the service state machine")       \
  X(job_settle_twice, service,                                                \
    "job settled to a terminal status more than once")                        \
  X(section_underflow, section,                                               \
    "section close without a matching open")                                  \
  X(section_drain, section,                                                   \
    "observability drained with sections open, or not once per batch")
// clang-format on

/// Invariant ids, one per registry entry (stable within a build only).
enum class Inv : unsigned {
#define X(name, family, what) name,
  XK_CHECK_INVARIANTS(X)
#undef X
      kCount_  // sentinel
};

inline constexpr std::size_t kInvariantCount =
    static_cast<std::size_t>(Inv::kCount_);

struct InvariantInfo {
  const char* name;    ///< registry id, e.g. "task_transition"
  const char* family;  ///< state machine it guards, e.g. "task"
  const char* what;    ///< one-line meaning of a violation
};

/// Static metadata, indexed by Inv. Order matches the enum by generation.
inline constexpr InvariantInfo kInvariantInfo[kInvariantCount] = {
#define X(name, family, what) {#name, #family, what},
    XK_CHECK_INVARIANTS(X)
#undef X
};

inline constexpr const InvariantInfo& invariant_info(Inv i) {
  return kInvariantInfo[static_cast<std::size_t>(i)];
}

}  // namespace xk::check
