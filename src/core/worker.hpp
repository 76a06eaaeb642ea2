// Worker: one scheduler thread (the paper: one per core by default).
//
// Each worker owns a stack of frames (its "workqueue stack"), a steal-request
// box where thieves post requests, and a steal mutex that elects the single
// combiner allowed to traverse this worker's stack (§II-C request
// aggregation: "one of the thieves is elected to reply to all requests").
//
// Victim/thief synchronization is split into two protocols:
//  * per-task: a single CAS on Task::state arbitrates the victim's FIFO claim
//    against a combiner's steal claim (T.H.E-style: common case uncontended);
//  * per-frame: a Dekker handshake (depth store + scanning flag, both seq_cst)
//    lets the owner recycle a drained frame only when no combiner can still
//    be reading it.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/frame.hpp"
#include "core/stats.hpp"
#include "core/task.hpp"
#include "obs/trace.hpp"
#include "support/cache.hpp"
#include "support/parker.hpp"
#include "support/rng.hpp"
#include "topo/topology.hpp"

namespace xk {

class Runtime;
class Worker;

namespace detail {
struct ServiceState;
inline constinit thread_local Worker* tls_worker = nullptr;

/// Binds/unbinds the calling thread's worker (Runtime internal).
inline void set_this_worker(Worker* w) { tls_worker = w; }
}  // namespace detail

/// Returns the worker bound to the calling thread, or nullptr outside a
/// runtime section. One TLS load, inlined into every spawn and sync.
inline Worker* this_worker() { return detail::tls_worker; }

/// A steal request slot: thief `i` posts into victim's box slot `i`; the
/// combiner answers every posted slot before releasing the steal mutex.
///
/// A served request carries exactly one task (docs/STEALING.md, "One task
/// per request"). The reply fields are written by the combiner before the
/// kServed release store and read by the thief after its acquire load of
/// the status. The request-side `idle` bit is written by the thief before
/// the kPosted release store; the combiner reads it after its acquire load
/// of the status.
struct StealRequest {
  enum Status : int { kEmpty = 0, kPosted, kServed, kFailed };
  std::atomic<int> status{kEmpty};
  /// Thief has an empty frame stack (a pure idle thief, not a suspended
  /// owner helping while it waits). Scarce combiners serve idle thieves
  /// before suspended ones, which still hold runnable work of their own.
  bool idle = false;
  Task* reply = nullptr;
  Frame* reply_frame = nullptr;  ///< source frame (for ready-list notify); null for heap tasks
};

// One box slot per cache line: a thief spinning on its own status never
// shares a line with a neighbour's post or reply.
static_assert(sizeof(Padded<StealRequest>) == kCacheLine);

/// Per-frame combiner scan state, owned by the victim and persisted across
/// steal rounds (the "incremental readiness" core of the steal-path
/// overhaul). Mutated only by the elected combiner, which holds the
/// victim's steal mutex inside a scanning window, so no further locking is
/// needed; a frame recycle is detected through Frame::epoch().
///
/// `entries` is the index-ordered list of still-relevant published tasks:
/// candidates (Init), blockers (claimed dataflow tasks), and armed adaptive
/// tasks. Tasks that can never matter again (Term, BodyDoneOwner, claimed
/// pure fork-join) are dropped the first time a scan sees them, so repeat
/// scans of a long frame touch only its live suffix instead of rescanning
/// from index 0 — the cross-round analog of the old per-round scan-hint.
/// Verdict of a steal-time readiness check (see Worker::check_ready).
enum class Readiness : std::uint8_t { kReady, kBlocked, kFalseOnly };

struct FrameScanState {
  struct Entry {
    Task* task;
    std::uint32_t index;  ///< publication index (program order) in the frame
  };
  static constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};

  std::uint64_t epoch = kNoEpoch;  ///< frame incarnation `entries` matches
  std::uint32_t ingested = 0;      ///< published prefix already ingested
  std::uint64_t listed_round = 0;  ///< round the cross-frame lists are valid for
  std::vector<Entry> entries;
  // Round-local cross-frame blocker lists (see worker.cpp readiness rules):
  // thief-side tasks block candidates in *lower* frames; successor-blocking
  // ("strong") tasks block candidates in *deeper* frames. Built lazily, at
  // most once per round per frame, only when a candidate consults them.
  std::vector<const Task*> thief_side;
  std::vector<const Task*> strong;
};

class Worker {
 public:
  static constexpr std::uint32_t kMaxDepth = 512;

  /// Idle-path constants (docs/TUNING.md): an idle loop retries a failed
  /// steal at once up to kIdleSpins times, yields until kIdleParkAfter
  /// consecutive failures, then parks for park_timeout().
  static constexpr int kIdleSpins = 16;
  static constexpr int kIdleParkAfter = 128;

  Worker(Runtime& rt, unsigned id, unsigned nworkers);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  unsigned id() const { return id_; }
  Runtime& runtime() { return rt_; }
  WorkerStats& stats() { return *stats_; }

  /// Locality domain (NUMA node) this worker was placed in. Thieves prefer
  /// same-domain victims (see try_steal_once); the foreach domain partition
  /// keys slices off it.
  unsigned domain() const { return domain_; }

  /// Dense domain index in [0, Runtime::ndomains()): the key for ready-list
  /// shards and the occupancy board (node ids can be sparse; see
  /// Placement::Slot::domain_rank).
  unsigned domain_rank() const { return domain_rank_; }

  /// Hierarchical victim ordering snapshot (tests/diagnostics): every other
  /// worker, same-domain first. The first nlocal_victims() entries are the
  /// local tier. Never contains this worker's own id.
  const std::vector<unsigned>& victim_order() const { return victim_order_; }
  unsigned nlocal_victims() const { return nlocal_victims_; }

  // ---- owner-side execution -------------------------------------------

  /// Current (deepest) frame; valid only while depth > 0.
  Frame& current_frame() { return frames_[depth_.load(std::memory_order_relaxed) - 1]; }

  /// Spawns `t` into the current frame. Fast path of §II-B. The parked-peer
  /// probe costs one load of a read-mostly line when nobody sleeps.
  void push_task(Task* t) { push_task(current_frame(), t); }

  /// Same, into `f`, which must be the current frame (callers that already
  /// looked it up for the allocation skip a second depth load).
  void push_task(Frame& f, Task* t) {
    f.push_task(t);
    stats_->tasks_spawned++;
    if (work_parker_->has_waiters()) work_parker_->notify_one();
  }

  /// Allocates from the current frame's arena.
  void* frame_alloc(std::size_t bytes, std::size_t align) {
    return current_frame().arena.allocate(bytes, align);
  }

  /// Runs `t` (claim already performed by the caller): pushes a frame,
  /// executes the body, drains children FIFO, handles renaming/exceptions,
  /// publishes Term. `src` is the frame holding the descriptor (for
  /// ready-list notification); may be null (root / heap tasks).
  void run_task(Task* t, Frame* src, bool stolen);

  /// FIFO-executes the current frame from its cursor until all its tasks
  /// reached Term (the implicit sync at body end; also the body of
  /// xk::sync() and Runtime::end), then recycles it unless it is pristine.
  /// Rethrows the first child exception after the recycle.
  void drain_current_frame();

  /// Enters the idle loop until `done` becomes true: pulls a queued service
  /// job or posts a steal request to a random victim, backing off as
  /// failures accumulate — spin, then yield, then park (bounded
  /// exponential sleep with the timeout as the lost-wakeup backstop).
  /// The sleeper parks on this worker's own parker: every in-section wait
  /// knows the one thread that ends it — the thief of a joined task
  /// (wake_joiner, from wait_and_finalize) or the last retiring body of a
  /// foreach (foreach_body) — and that thread calls wake(). It
  /// re-validates stealable work before sleeping.
  template <typename Pred>
  void steal_until(Pred&& done) {
    steal_until_on(parker_, done);
  }

  /// Same loop for a pure work-waiter (the scheduler idle loop): parks on
  /// the shared *work* parker, woken one at a time by task publication and
  /// all at once by the section-end quiescence fire.
  template <typename Pred>
  void steal_idle(Pred&& done) {
    steal_until_on(*work_parker_, done);
  }

  /// Ends a steal_until park of this worker. Only the thread that
  /// completes what this worker waits on calls it, so it cannot wake the
  /// wrong sleeper; a call while this worker is awake costs one load.
  void wake() {
    if (parker_.has_waiters()) parker_.notify_all();
  }

  /// The idle loop's share of the service: runs one queued job in a fresh
  /// frame (ServiceState::try_run), true when one ran. jobs_waiting() is
  /// the lanes' lock-free depth hint behind try_steal_once's depth guard.
  bool try_run_job();
  bool jobs_waiting() const;

  /// One steal attempt: pick a victim (same-domain first, escalating to
  /// remote domains after kLocalStealTries failed local rounds), post a
  /// request, spin until it is served or failed (possibly becoming the
  /// combiner). Returns true when work was obtained *and executed*.
  bool try_steal_once();

  /// Elects this worker combiner on `victim` when the victim's steal mutex
  /// is free, and answers every request posted in the victim's box (only
  /// this worker's own slot when aggregation is off). Returns false, doing
  /// nothing, when another combiner holds the mutex.
  bool try_combine(Worker& victim);

  /// Suspends on a task claimed by another worker until it terminates,
  /// stealing meanwhile (§II-B: "it suspends its execution and switches to
  /// the workstealing scheduler"). Registers the task in this worker's own
  /// `join_target_` cell so the finishing thief wakes exactly this
  /// worker (see wake_joiner), and commits pending renamed writes when
  /// the task parks in CommitReady.
  void wait_and_finalize(Task* t, Frame& f);

  std::uint32_t depth_relaxed() const {
    return depth_.load(std::memory_order_relaxed);
  }

  // ---- victim-side state read by thieves --------------------------------

  std::uint32_t depth_acquire() const {
    return depth_.load(std::memory_order_seq_cst);
  }
  Frame& frame_at(std::uint32_t d) { return frames_[d]; }
  StealRequest& request_slot(unsigned thief) { return reqbox_[thief].value; }
  unsigned nslots() const { return static_cast<unsigned>(reqbox_.size()); }

  // ---- frame stack management (owner only) ------------------------------

  /// Pushes a frame (one per executed task). Release, not seq_cst:
  /// publishing a *larger* depth needs no Dekker round — a combiner that
  /// misses the new frame simply does not scan it, and one that sees it
  /// acquires the owner's prior writes (including the frame's last reset)
  /// through this store. Only the shrinking store in recycle_frame
  /// arbitrates against scanners.
  Frame& push_frame() {
    const std::uint32_t d = depth_.load(std::memory_order_relaxed);
    if (d >= kMaxDepth) [[unlikely]] frame_overflow();
    depth_.store(d + 1, std::memory_order_release);
    if (d == 0) [[unlikely]] publish_occupancy(true);
    return frames_[d];
  }

  /// Pops the current frame, which the drain left pristine (a drain cut
  /// short by a runtime throw is recycled here, cold): a combiner that
  /// races with this pop can only read the frame's atomics (size 0 both
  /// before and after, epoch, null ready_list) — it never dereferences
  /// chunk or arena memory, because no task was ever published. So the
  /// store-buffering round the seq_cst Dekker pair exists for has nothing
  /// to protect: the shrink is a plain release (ordering the pop before
  /// this stack slot's next push_frame publication) and only the arena
  /// needs rewinding (see Frame::pristine).
  void pop_frame() {
    const std::uint32_t d = depth_.load(std::memory_order_relaxed);
    Frame& f = frames_[d - 1];
    if (!f.pristine()) [[unlikely]] recycle_frame(f, d);
    assert(f.ready_list.load(std::memory_order_relaxed) == nullptr);
    assert(!f.steal_claimed());
    depth_.store(d - 1, std::memory_order_release);
    f.arena.reset();
    if (d == 1) [[unlikely]] publish_occupancy(false);
  }

 private:
  friend class Runtime;

  [[noreturn]] static void frame_overflow();

  /// The idle loop behind steal_until and steal_idle, sleeping on `parker`.
  template <typename Pred>
  void steal_until_on(Parker& parker, Pred&& done) {
    int failures = 0;
    while (!done()) {
      if (try_run_job() || try_steal_once()) {
        failures = 0;
        continue;
      }
      ++failures;
      if (failures <= kIdleSpins) continue;  // hot spin: retry at once
      if (failures < kIdleParkAfter) {
        std::this_thread::yield();
        continue;
      }
      // Park. Announce first, then re-validate inside the announce window
      // (a publisher that saw the announce notifies; one that published
      // just before is caught by the extra steal attempt), then sleep with
      // a bounded, escalating timeout as the lost-wakeup backstop. A
      // waiting job is only noticed here and run after the retract, so a
      // long job never holds a slot among the parker's sleepers.
      const std::uint32_t epoch = parker.prepare();
      parker.announce();
      if (done() || jobs_waiting() || try_steal_once()) {
        parker.retract();
        failures = 0;
        continue;
      }
      stats_->parks++;
      const std::uint64_t park_t0 = obs::span_begin();
      const bool woken = parker.park(epoch, park_timeout(failures));
      if (woken) stats_->park_wakes++;
      obs::emit_span(obs::Ev::kPark, park_t0, woken ? 1 : 0);
      parker.retract();
    }
  }

  /// Occupancy hint on the 0<->1 depth transitions: publishes "has work"
  /// (once per stolen reply / section root, not per task, so the board
  /// line the victim draw reads stays read-mostly) and folds the change up
  /// the board's domain/root counts. On worker 0's root-frame pop this is
  /// the quiescence edge that fires the section-end wake (Runtime::end).
  void publish_occupancy(bool occupied);

  /// Recycles the current frame `f` (depth `d`) in place: the seq_cst
  /// Dekker round against scanners, the in-flight reply drain, the full
  /// Frame::reset, then depth `d` again. The occupancy bit is untouched,
  /// so the quiescence fold still fires only at the section's root pop.
  void recycle_frame(Frame& f, std::uint32_t d);

  /// The owner's share of a join on `t` in its current frame `f`: while
  /// `f` has a ready list with ready work, pop one task from it (under this
  /// worker's own steal mutex, try-lock) and run it as the owner,
  /// re-checking `t` after each. Returns true once `t` reached a final
  /// state, false when the list has nothing to offer.
  bool help_from_ready_list(Task* t, Frame& f);

  /// `f`'s ready list when it is attached and has live ready entries and
  /// this stack has room to nest another task; nullptr otherwise.
  ReadyList* own_ready_list(Frame& f);

  /// Two-level victim draw over victim_order_: while local_fails_ has not
  /// exhausted the per-thief local budget (kLocalStealTries, worker.cpp)
  /// the draw spans only the local tier; afterwards it spans every victim
  /// (local tier still first in the order). Returns the first busy-looking candidate from a random
  /// (or, under a synthetic topology, deterministically rotating) start, or
  /// nullptr when nothing looks busy. Sets `local_phase` to whether this
  /// draw was restricted to the local tier.
  Worker* pick_victim(bool& local_phase);

  /// Serves every posted request in `victim`'s box (only its own when
  /// aggregation is off). Caller must hold the victim's steal mutex and have
  /// raised the victim's scanning flag.
  void combine_on(Worker& victim);

  /// Brings `fs` up to date with frame `f`: detects a recycle through the
  /// frame epoch and ingests newly published tasks past the cursor.
  void refresh_scan_state(FrameScanState& fs, Frame& f);

  /// Builds (at most once per `round`) the cross-frame blocker lists of
  /// victim frame `d`, compacting dead entries along the way.
  FrameScanState& ensure_scan_lists(Worker& victim, std::uint32_t d,
                                    std::uint64_t round);

  /// Readiness of candidate `t` in victim frame `d` against the candidate
  /// walk's own-frame `prefix` and the lazily-built cross-frame lists.
  Readiness check_ready(Worker& victim, std::uint64_t round,
                        std::uint32_t depth, std::uint32_t d,
                        const std::vector<const Task*>& prefix, const Task& t);

  /// A claimed task waiting in the combiner's reply pool with its source
  /// frame (for ready-list completion notification).
  struct PooledReply {
    Task* task;
    Frame* frame;
  };

  /// One posted request the combiner will answer. `idle` snapshots the
  /// request's idle bit for the scarce deal's priority partition.
  struct PendingReq {
    StealRequest* slot;
    bool idle;
  };

  /// Batch-pops ready tasks from `rl` into the reply pool until it holds
  /// `pool_target` tasks (local shard first; the hit/miss split lands in
  /// this worker's stats). The batch is one acquisition of the list's lock.
  void pour_ready_list(ReadyList& rl, Frame& f, std::size_t pool_target);

  /// Deals the reply pool to pending[served..], one distinct task per
  /// request; the combiner's own slot takes the oldest. Publishes the
  /// served slots and returns the new served count. When the pool cannot
  /// cover every waiting thief, idle thieves are served first.
  std::size_t deal_pool(std::vector<PendingReq>& pending, std::size_t served,
                        StealRequest* self_slot);

  /// Executes a steal reply from `victim`: a stolen descriptor (runs as
  /// thief, then wake_joiner) or a splitter-produced heap task (hosted in
  /// a fresh frame of this stack).
  void execute_reply(Task* t, Frame* src, Worker& victim);

  /// Wakes `owner` when its join cell names `t`, the stolen descriptor
  /// this thief just completed. A stolen descriptor lives in a frame of
  /// the victim it was stolen from, and only a frame's owner drains it,
  /// so `owner` is that victim: the wake costs one load, not a scan.
  void wake_joiner(Worker& owner, Task* t);

  /// Victim-draw probe: the victim's occupancy-board bit, published only
  /// on its 0<->1 frame-depth edges, so the draw reads a read-mostly line
  /// instead of every candidate's hot depth word (skips counted as
  /// probes_skipped).
  bool probe_victim(Worker& v) {
    if (occupancy_->occupied(v.id())) return true;
    stats_->probes_skipped++;
    return false;
  }

  /// Escalating park timeout: 50us doubling to a 1.6ms cap as consecutive
  /// failures mount past kIdleParkAfter.
  static std::chrono::nanoseconds park_timeout(int failures) {
    const int k = std::min(failures - kIdleParkAfter, 5);
    return std::chrono::microseconds{50u << (k < 0 ? 0 : k)};
  }

  Runtime& rt_;
  const unsigned id_;
  bool reclaim_enabled_;  ///< join-side reclaim; off under renaming (see wait_and_finalize)

  // Locality-aware victim selection (snapshotted from Runtime::placement()
  // at construction; immutable afterwards).
  unsigned domain_ = 0;
  unsigned domain_rank_ = 0;            ///< dense domain index (shard key)
  std::vector<unsigned> victim_order_;  ///< local tier first, self excluded
  unsigned nlocal_victims_ = 0;
  bool deterministic_victims_ = false;  ///< synthetic topo: rotate, don't draw
  unsigned victim_rr_ = 0;              ///< rotation cursor (deterministic mode)
  int local_fails_ = 0;                 ///< consecutive failed local-tier rounds
  OccupancyBoard* occupancy_ = nullptr;  ///< the runtime's occupancy bits
  detail::ServiceState* svc_;            ///< the runtime's tenant lanes
  // The runtime's shared work parker (cached: Runtime is incomplete here).
  Parker* work_parker_;
  // This worker's own parker (steal_until sleeps here, wake() ends it),
  // and the stolen task it is currently suspended on (null otherwise).
  // The cell lives in the *waiter*, not the task: a completing thief may
  // not touch task memory after its final state store — the owner can
  // observe that store, return from the join, pop the frame and recycle
  // the descriptor's arena block while the thief is still mid-wake. The
  // thief therefore only compares the task *pointer* against this
  // stable-for-runtime-lifetime cell (wake_joiner).
  Parker parker_;
  std::atomic<Task*> join_target_{nullptr};

  // Frame stack. `depth_` is the Dekker-side publication; frames above the
  // published depth are owner-private.
  std::vector<Frame> frames_;
  std::atomic<std::uint32_t> depth_{0};

  // Steal election + scanner handshake.
  std::mutex steal_mutex_;
  std::atomic<bool> scanning_{false};

  // Request box: slot i belongs to thief i.
  std::vector<Padded<StealRequest>> reqbox_;

  // Victim-side combiner scan state: one slot per frame depth plus the
  // round serial that scopes the per-round blocker lists. Guarded by
  // steal_mutex_ (only the elected combiner touches it).
  std::vector<FrameScanState> scan_state_;
  std::uint64_t scan_round_ = 0;

  // Combiner-side scratch, reused across rounds to kill per-round heap
  // churn. Only this worker (as combiner) touches its own scratch.
  std::vector<PendingReq> pending_scratch_;
  std::vector<PendingReq> deal_scratch_;  ///< idle-first reorder buffer
  std::vector<Task*> adaptive_scratch_;
  std::vector<const Task*> prefix_scratch_;
  std::vector<Task*> batch_scratch_;
  std::vector<PooledReply> reply_scratch_;

  Padded<WorkerStats> stats_;
  Rng rng_;
};

}  // namespace xk
