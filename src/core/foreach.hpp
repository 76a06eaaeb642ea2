// Parallel independent loops on the adaptive task model (§II-E).
//
// `parallel_for(first, last, body)` creates one adaptive task. The iteration
// interval is pre-partitioned into `P` reserved slices (one per worker); the
// caller iterates slice 0 chunk-by-chunk. A thief's splitter first claims an
// unclaimed reserved slice; when none remain it splits the victim's live
// interval [b_t, e) into k+1 equal parts for k aggregated requests, leaving
// one part on the victim. Owner chunk-pop and splitter tail-split are
// arbitrated by a per-interval spinlock (a T.H.E-style two-ended protocol
// with the collision window collapsed into a ~10ns critical section).
//
// The body signature is either
//   void(std::int64_t lo, std::int64_t hi)                 or
//   void(std::int64_t lo, std::int64_t hi, unsigned worker_id)
// and must treat iterations as independent. Exceptions thrown by the body
// cancel the remaining iterations and are rethrown at the call site.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/adaptive.hpp"
#include "core/spawn.hpp"
#include "support/cache.hpp"

namespace xk {

/// How the reserved slices partition the iteration space across workers:
///  * kFlat   — one near-equal slice per worker in id order (the original
///    topology-blind deal); any worker claims any unclaimed slice.
///  * kDomain — workers are grouped by locality domain and each domain gets
///    one contiguous sub-range (first-touch-friendly: a domain's workers
///    initialize and re-traverse the same pages). The unclaimed slices of a
///    domain form its remainder queue: workers and splitters exhaust their
///    own domain's queue before taking from a remote one, so adaptive
///    splitting stays domain-local until a domain runs dry.
///  * kAuto   — kDomain when the runtime's placement spans more than one
///    locality domain, kFlat otherwise (flat machines keep the old paths).
enum class ForeachPartition { kAuto, kFlat, kDomain };

struct ForeachOptions {
  /// Iterations per owner chunk pop; 0 = auto (total / (16 * workers),
  /// clamped to [1, 8192]).
  std::int64_t grain = 0;

  /// Reserved-slice partition mode (see ForeachPartition).
  ForeachPartition partition = ForeachPartition::kAuto;
};

namespace detail {

struct SpinLock {
  std::atomic_flag flag = ATOMIC_FLAG_INIT;
  void lock() noexcept {
    while (flag.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() noexcept { flag.clear(std::memory_order_release); }
};

/// The live interval of one foreach (sub)task. Owner pops from the front,
/// the splitter carves the tail; both under the spinlock.
struct WorkInterval {
  std::int64_t b = 0;
  std::int64_t e = 0;
  SpinLock lk;

  /// Takes up to `n` iterations from the front; returns the count taken and
  /// stores the start in *out.
  std::int64_t pop_front(std::int64_t n, std::int64_t* out) {
    lk.lock();
    const std::int64_t take = std::min(n, e - b);
    *out = b;
    b += take > 0 ? take : 0;
    lk.unlock();
    return take > 0 ? take : 0;
  }

  /// Splits the remaining tail into `parts` near-equal pieces, keeping the
  /// first for the owner. Appends up to parts-1 [b,e) pairs to `out` and
  /// returns how many were appended. No split happens when fewer than
  /// `min_keep` iterations remain.
  int split_tail(int parts, std::int64_t min_keep,
                 std::vector<std::pair<std::int64_t, std::int64_t>>& out);

  /// Racy size hint (diagnostics only).
  std::int64_t remaining_hint() const { return e - b; }
};

/// State shared by the root foreach call and all split-off pieces.
/// Heap-allocated and reference-counted: splitter-produced closures may
/// outlive the parallel_for call frame by a few instructions (until their
/// host frame resets).
struct ForeachShared {
  using InvokeFn = void (*)(void* ctx, std::int64_t lo, std::int64_t hi,
                            unsigned wid);

  InvokeFn invoke = nullptr;
  void* ctx = nullptr;
  std::int64_t total = 0;
  std::int64_t grain = 1;

  std::atomic<std::int64_t> done{0};
  std::atomic<int> outstanding{0};  ///< live work bodies (root + pieces)
  /// The worker that called parallel_for and waits for completion; the
  /// last retiring body wakes it. Set before the root task is published.
  Worker* waiter = nullptr;
  std::atomic<int> refs{1};
  std::atomic<bool> error{false};
  std::mutex exc_mu;
  std::exception_ptr exc;

  struct Slice {
    std::atomic<bool> taken{false};
    std::int64_t b = 0;
    std::int64_t e = 0;
    unsigned domain = 0;  ///< locality domain this slice is homed to
  };
  std::vector<Padded<Slice>> slices;  ///< reserved slices, one per worker
  bool domain_mode = false;  ///< slices are domain-homed (ForeachPartition)

  void add_ref() { refs.fetch_add(1, std::memory_order_relaxed); }
  void release() {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }
  bool finished() const {
    const bool work_done =
        done.load(std::memory_order_acquire) == total ||
        error.load(std::memory_order_acquire);
    return work_done && outstanding.load(std::memory_order_acquire) == 0;
  }
  void record_error(std::exception_ptr e);
};

/// Adaptive state of one foreach (sub)task.
struct ForeachWork {
  ForeachShared* shared = nullptr;
  WorkInterval interval;
};

/// The work loop: pop chunks, invoke, then claim reserved slices (§II-E).
void foreach_run(ForeachWork& w, Worker& self);

/// The splitter invoked by combiners (at most one concurrently, §II-D).
void foreach_splitter(void* state, SplitContext& sc);

/// Full protocol from the caller's thread (sync, adaptive root task,
/// completion wait, scan barrier, error propagation).
void foreach_execute(ForeachShared& sh, std::int64_t first, std::int64_t last,
                     ForeachPartition partition);

template <typename B>
void invoke_body(B& body, std::int64_t lo, std::int64_t hi, unsigned wid) {
  if constexpr (std::is_invocable_v<B&, std::int64_t, std::int64_t, unsigned>) {
    body(lo, hi, wid);
  } else {
    static_assert(std::is_invocable_v<B&, std::int64_t, std::int64_t>,
                  "foreach body must be callable as (lo, hi) or (lo, hi, wid)");
    body(lo, hi);
  }
}

}  // namespace detail

/// Parallel loop over [first, last). See the header comment for semantics.
template <typename Body>
void parallel_for(std::int64_t first, std::int64_t last, Body&& body,
                  ForeachOptions opt = {}) {
  if (last <= first) return;
  using B = std::decay_t<Body>;
  B local_body(std::forward<Body>(body));

  Worker* w = this_worker();
  if (w == nullptr || w->depth_relaxed() == 0 || w->runtime().nworkers() < 2) {
    detail::invoke_body(local_body, first, last, w != nullptr ? w->id() : 0u);
    return;
  }

  auto* sh = new detail::ForeachShared();
  sh->invoke = [](void* ctx, std::int64_t lo, std::int64_t hi, unsigned wid) {
    detail::invoke_body(*static_cast<B*>(ctx), lo, hi, wid);
  };
  sh->ctx = &local_body;
  sh->total = last - first;
  const auto nw = static_cast<std::int64_t>(w->runtime().nworkers());
  sh->grain = opt.grain > 0
                  ? opt.grain
                  : std::max<std::int64_t>(
                        1, std::min<std::int64_t>(8192, sh->total / (16 * nw)));
  detail::foreach_execute(*sh, first, last,
                          opt.partition);  // releases the caller's ref
}

/// Element-wise convenience: body(i) per index.
template <typename Body>
void parallel_for_index(std::int64_t first, std::int64_t last, Body&& body,
                        ForeachOptions opt = {}) {
  using B = std::decay_t<Body>;
  B b(std::forward<Body>(body));
  parallel_for(
      first, last,
      [&b](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) b(i);
      },
      opt);
}

}  // namespace xk
