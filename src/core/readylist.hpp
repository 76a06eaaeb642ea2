// ReadyList — the "accelerating data structure for steal operations" (§II-C),
// sharded by locality domain with two-level graph/shard locking.
//
// "When the cost of computing ready tasks becomes important, the runtime
// attaches to the victim an accelerating data structure ... a list that gets
// updated with tasks becoming ready due to the completion of their data flow
// dependencies. A subsequent steal operation is reduced to the pop of a task
// from the ready list."
//
// Scope and soundness: the list covers one frame. Dependencies are computed
// from region overlap between the frame's tasks, with completion counted at
// Term (strict completion: body + descendants). Cross-frame conflicts are
// covered by the hierarchical-dataflow contract (a dataflow task spawning
// dataflow children declares accesses covering theirs — see spawn.hpp), which
// makes the per-frame graph conservative-correct.
//
// Sharding: the ready deque is split into one shard per locality domain
// (dense domain rank). Producers — the worker notifying a completion, the
// combiner covering tasks via extend() — push released tasks into *their
// own* domain's shard; consumers pop local-shard-first and cross into other
// shards only when their own runs dry, so on multi-domain machines the
// common case keeps a domain's release/steal traffic on that domain's cache
// lines and successors tend to run where their predecessor's output is hot.
// Flat machines construct one shard and keep the original global-FIFO
// behavior exactly. The optional StarvationBoard hook mirrors each shard's
// live depth into the runtime's per-domain gauges so "this domain has queued
// ready work" can veto the starvation verdict.
//
// Locking (XK_RL_LOCK=split, the default): two levels instead of the old
// single per-frame mutex, so a pop in one domain no longer stalls a
// completion in another.
//
//  * `graph_mu_` guards the dependence graph: `nodes_` growth, `index_`,
//    `early_completions_`, coverage (`covered_count_` + the frame-epoch
//    check), the live-access interval index and the watch deque. It is
//    taken by extend()/add_node, by the graph half of a completion, and by
//    the rare pop-side paths (claim-race folds, the lazy watch sweep,
//    batched watch registration) — never by the per-entry pop hot path.
//  * each `Shard{mutex, deque, depth}` guards its own ready deque. Pops
//    take only their home shard's lock, crossing other shards via try_lock
//    in rank order and falling back to blocking locks only when every
//    shard's try produced nothing. A completion's release batch takes
//    exactly one shard lock (the finisher's — all released successors are
//    routed there).
//
// Lock order is strictly graph_mu_ -> one shard mutex; no path ever holds
// two shard locks or acquires graph_mu_ while holding a shard lock.
//
// The release/acquire edge the old single lock provided — a completed
// task's memory effects are visible to whichever worker claims a successor
// — is re-established per shard: the finisher pushes released successors
// while holding the target shard's mutex, and the popper acquires that same
// mutex before reading the deque. When a successor has several
// predecessors, the non-final completions chain through `graph_mu_` (every
// completion's graph half runs under it) and, belt-and-braces, through the
// acq_rel read-modify-write chain on the atomic `npred` — the final
// decrementer observes every earlier decrementer's writes before it
// publishes the successor. `nready_` is a relaxed atomic used only for the
// O(1) "anything queued anywhere?" check on the pop path; shard mutexes
// provide the real ordering.
//
// XK_RL_LOCK=global restores the pre-split discipline — graph_mu_ taken at
// every public entry point, shard mutexes never touched — byte-for-byte
// reproducing the old pop order (the ablation baseline and a debugging
// fallback).
//
// XK_RL_LOCK=lockfree goes the rest of the way: the pop and completion hot
// paths stop taking any mutex at all. graph_mu_ still guards coverage
// growth (extend/add_node), the watch machinery and the rare fold paths —
// those run at combiner cadence — but the per-task steady state becomes:
//
//  * each shard's primary queue is a bounded MPMC ring (support/ring.hpp,
//    kRingCapacity entries, per-slot sequence counters). A full ring
//    spills to the shard's mutex-guarded side deque — the old deque,
//    demoted to overflow duty — and pushes keep landing there until the
//    side deque drains, so ring entries predate side entries and
//    per-shard FIFO order survives the spill (best-effort: the divert
//    gate is read without the side mutex, and a pusher observing a stale
//    empty gauge can ring a node ahead of older spilled entries — see
//    push_ready_lockfree). The ring's seq release/acquire pair replaces
//    the shard mutex as the edge handing a finisher's writes to the
//    popper.
//  * a completion looks its node up in a lock-free open-addressed index
//    (atomic Node* slots keyed by Task*; inserted and grown only under
//    graph_mu_, read with one acquire load per probe). A miss — racing
//    grow, or a task covered after it completed — degrades to the old
//    graph_mu_ slow path against the authoritative map.
//  * the completion itself runs under the node's one-byte edge spinlock
//    (leaf lock, spin-only): it marks the node completed and takes the
//    successor list in O(1), so it cannot race extend() appending edges.
//    add_node takes the same spinlock per conflict edge and re-checks
//    `completed` under it — either the edge lands before the completion
//    swallows the list (and gets decremented), or it observes the
//    completion and never counts the predecessor. The scan's *unlocked*
//    pre-check rides a dedicated release/acquire pair on `completed`
//    instead: skipping an edge means the successor can publish with no
//    decrement from that predecessor, so the flag load is the edge
//    carrying its body writes.
//  * live-access-interval retirement is deferred: a lock-free completion
//    pushes its node onto a Treiber stack instead of erasing live_ (a
//    graph_mu_ structure); extend() and the watch sweep — the places that
//    next need an accurate interval index, and which already hold
//    graph_mu_ — drain the stack first. Until then the completed
//    predecessor's intervals linger but are skipped by add_node's
//    `completed` check, exactly like the old same-lock path.
//  * a node under construction carries a +1 npred bias so a concurrent
//    predecessor completion can never release it mid-add_node (its edge
//    and interval sets are still growing); add_node's final bias release
//    is the decrement that decides initially-ready.
//
// Lock order gains one leaf level: graph_mu_ -> edge spinlock -> side-deque
// mutex; no path acquires in the reverse direction. `split` and `global`
// never touch the ring, the spinlock or the index table — their code paths
// are untouched ablation baselines.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"  // RlLockMode
#include "core/frame.hpp"
#include "core/stats.hpp"
#include "core/task.hpp"
#include "support/cache.hpp"
#include "support/ring.hpp"

namespace xk {

class ReadyList {
 public:
  /// `nshards` is the runtime's dense domain count (1 collapses to the
  /// unsharded behavior); `board`, when given, tracks shard depths in the
  /// runtime's per-domain starvation gauges.
  explicit ReadyList(Frame& frame, unsigned nshards = 1,
                     StarvationBoard* board = nullptr,
                     RlLockMode lock_mode = RlLockMode::kSplit);
  ~ReadyList();

  ReadyList(const ReadyList&) = delete;
  ReadyList& operator=(const ReadyList&) = delete;

  /// Ring capacity per shard in lockfree mode (power of two; overflow
  /// spills to the shard's side deque). Public so tests can drive the
  /// spill path deterministically.
  static constexpr std::size_t kRingCapacity = 512;

  unsigned nshards() const { return static_cast<unsigned>(shards_.size()); }
  RlLockMode lock_mode() const { return mode_; }

  /// Extends coverage to every task currently published in the frame.
  /// Called by the combiner (steal mutex held); initially-ready tasks land
  /// in the combiner's own `shard`. Detects a frame recycle through the
  /// frame epoch and drops every prior incarnation's coverage state first
  /// (stale early-completion records must never mark an address-aliased
  /// new task as already done).
  void extend(unsigned shard = 0);

  /// Pops the oldest ready task — local `shard` first — and claims it
  /// (Init -> StolenClaim). Returns nullptr when no covered task is ready
  /// and unclaimed in any shard. `shard_hits`/`shard_misses`, when
  /// non-null, record whether the pop was served by the caller's own
  /// shard or crossed into another domain's (same telemetry contract as
  /// the batch form — previously the single-pop path discarded the split
  /// and cross-shard pops were indistinguishable from local ones).
  Task* pop_ready_claimed(unsigned shard = 0,
                          std::uint64_t* shard_hits = nullptr,
                          std::uint64_t* shard_misses = nullptr);

  /// Pops and claims up to `max` ready tasks (the batched-reply path: one
  /// combiner pass hands every waiting thief work). Pops drain the
  /// popper's own `shard` oldest-first before crossing into other shards
  /// (rank order, wrapping); `shard_hits`/`shard_misses`, when non-null,
  /// are incremented per pop with the local/cross split. Returns the
  /// number of tasks written to `out`.
  ///
  /// Under split locking a batch is *not* an atomic snapshot of the list:
  /// entries pushed by concurrent completions may or may not be seen, and
  /// an empty return only means every shard looked dry when probed.
  /// Callers (the combiner's pour/deal) already tolerate short batches —
  /// an unserved thief simply retries next round. Under XK_RL_LOCK=global
  /// the whole batch runs under one graph_mu_ acquisition, exactly the old
  /// single-lock semantics.
  /// Under `lockfree`, pops are mutex-free (ring first, side deque on
  /// spill) and `stats`, when given, receives the ring contention/spill
  /// counters (rl_ring_retries / rl_side_pops).
  std::size_t pop_ready_claimed_batch(Task** out, std::size_t max,
                                      unsigned shard = 0,
                                      std::uint64_t* shard_hits = nullptr,
                                      std::uint64_t* shard_misses = nullptr,
                                      WorkerStats* stats = nullptr);

  /// Completion notification; must be invoked *before* the Term store by
  /// whoever finished the task, passing the finisher's domain `shard` (the
  /// producer-side routing: released successors join the finisher's
  /// shard). Unknown tasks (not yet covered) are recorded so a later
  /// extend() does not resurrect them. Under `lockfree` the common case
  /// (node indexed, successors released into the ring) never takes a
  /// mutex; `stats`, when given, receives the ring telemetry.
  void on_complete(Task* t, unsigned shard = 0, WorkerStats* stats = nullptr);

  /// Approximate live ready depth summed over every shard (relaxed reads
  /// of the per-shard depth gauges, no locks): the adaptive combiner's
  /// steal-half sizing input. Staleness only skews a reply size by a task
  /// or two — the deal itself still pops under the shard locks.
  std::int64_t approx_ready() const {
    std::int64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.depth.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Diagnostics for tests.
  std::size_t covered() const;
  std::size_t edge_count() const;  ///< dependence edges ever added since
                                   ///  the last coverage reset
  std::size_t ready_size() const;  ///< total queued over all shards (racy
                                   ///  under split locking: a relaxed read)
  std::size_t shard_ready_size(unsigned shard) const;  ///< deque length,
                                                       ///  dead ids included
  std::int64_t shard_live_depth(unsigned shard) const;  ///< live entries only
  std::size_t watched_size() const;
  std::size_t early_completion_count() const;
  std::uint64_t missed_folds() const;
  // Lockfree-mode internals telemetry (always 0 in split/global). The
  // list-internal mirrors exist so white-box tests — which pass no
  // WorkerStats — can still observe spills and contention.
  std::uint64_t ring_spills() const {
    return ring_spills_.load(std::memory_order_relaxed);
  }
  std::uint64_t side_pops() const {
    return side_pops_.load(std::memory_order_relaxed);
  }
  std::size_t retire_pending() const;  ///< completed nodes awaiting the
                                       ///  next graph_mu_ retirement drain

 private:
  // Live-access interval index entry type (declared early: Node refs it).
  struct ChainEntry;
  using LiveMap = std::multimap<std::uintptr_t, ChainEntry>;

  /// One covered task. Nodes live in a std::deque so their addresses are
  /// stable while extend() grows the graph: shard deques and the watch
  /// list hold Node pointers that the pop path dereferences *without*
  /// graph_mu_, so node storage must never relocate.
  struct Node {
    Task* task = nullptr;
    /// Unreleased predecessor count. Atomic: the final decrementer's
    /// acq_rel RMW chains the memory effects of every earlier completion
    /// into the successor's publication even though pops never take
    /// graph_mu_ (all writers do hold graph_mu_; see the header comment).
    std::atomic<std::uint32_t> npred{0};
    /// Graph-side completion flag, written under graph_mu_ (split/global)
    /// or by the mutex-free completer (lockfree). Atomic so the pop path
    /// can skip settled (dead) deque entries with a relaxed read instead
    /// of paying a graph_mu_ round trip; false->true is the only
    /// transition, so a stale false merely costs the lock. In lockfree
    /// mode the completer's store is a RELEASE and add_node's unlocked
    /// conflict-scan pre-check loads it with ACQUIRE: observing the flag
    /// there skips the conflict edge, so the flag itself must carry the
    /// predecessor's body writes to the successor it stops gating.
    std::atomic<bool> completed{false};
    /// In the watch deque right now (guarded by graph_mu_). The dedupe
    /// flag: a node can qualify for watching more than once (covered while
    /// already claimed, then again on the pop-path claim-race branch);
    /// without it the lazy sweep walks duplicates forever.
    bool watched = false;
    /// Shard deque this node sits in, -1 if none. Settled (exchanged to
    /// -1) by whichever of pop and completion comes first, so the board's
    /// ready gauge and the shard's live depth are returned the moment the
    /// node completes, even while its (now dead) entry still waits in the
    /// deque — otherwise owner-executed tasks would leave phantom depth
    /// that vetoes legitimate starvation verdicts. Atomic: the split pop
    /// settles it after dropping the shard lock, completion settles it
    /// under graph_mu_ — the exchange itself is the only synchronization
    /// between them.
    std::atomic<std::int32_t> queued{-1};
    /// One-byte edge spinlock (lockfree mode only; split/global never
    /// touch it). Serializes add_node's edge appends against the
    /// completion's {mark completed, take successors} — the only two
    /// touchers of `successors` once completions stop holding graph_mu_.
    /// A leaf lock: held for a handful of instructions, never while
    /// acquiring anything else.
    std::atomic<std::uint8_t> edge_lock{0};
    /// Treiber-stack link for deferred live-interval retirement (lockfree
    /// mode): written once by the completing worker (before the CAS that
    /// publishes the node on retire_head_), consumed under graph_mu_.
    Node* retire_next = nullptr;
    std::vector<Node*> successors;  ///< guarded by graph_mu_ (split/global)
                                    ///  or by edge_lock (lockfree)
    /// This node's intervals in live_, guarded by graph_mu_. A slot holds
    /// live_.end() once a superseding writer dropped that interval early.
    std::vector<LiveMap::iterator> live_refs;
  };

  struct ChainEntry {
    Node* node;
    const Access* acc;
  };

  /// One per-domain ready queue. Split mode: `q` is the primary deque
  /// under `mu` (global mode leaves the mutex untouched and relies on
  /// graph_mu_). Lockfree mode: `ring` is the primary queue and `q`+`mu`
  /// are demoted to the overflow side deque (`side` mirrors its length so
  /// the pop path can skip the mutex when there is nothing spilled).
  /// `depth` counts *live* queued nodes (the board-gauge mirror,
  /// maintained even without a board); the queues themselves may
  /// additionally hold dead entries whose gauge was settled at completion.
  struct alignas(kCacheLine) Shard {
    std::mutex mu;
    std::deque<Node*> q;
    std::atomic<std::int64_t> depth{0};
    std::unique_ptr<MpmcRing<Node*>> ring;  ///< allocated in lockfree mode
    std::atomic<std::int64_t> side{0};      ///< spilled entries in q
  };

  /// RAII shard lock that collapses to a no-op in global mode (where
  /// graph_mu_, held by every caller, is the lock).
  class ShardGuard {
   public:
    ShardGuard(Shard& s, bool split) : mu_(split ? &s.mu : nullptr) {
      if (mu_ != nullptr) mu_->lock();
    }
    ~ShardGuard() {
      if (mu_ != nullptr) mu_->unlock();
    }
    ShardGuard(const ShardGuard&) = delete;
    ShardGuard& operator=(const ShardGuard&) = delete;

   private:
    std::mutex* mu_;
  };

  /// Maps a caller's domain rank onto a shard. Out-of-range ranks are only
  /// legitimate when the list collapsed to a single shard (XK_RL_SHARD=0 /
  /// flat machines funnel every rank into shard 0); with real shards an
  /// oversized rank is an upstream routing bug — assert in debug builds,
  /// and wrap by modulo (not fold onto shard 0) in release so a bad rank
  /// at least spreads instead of mis-crediting shard 0's board depth and
  /// hit/miss telemetry.
  unsigned wrap_shard(unsigned shard) const;

  // Graph-side helpers; caller holds graph_mu_ (and, in global mode, that
  // is the only lock anywhere).
  void check_epoch_graph_held();
  void check_epoch_pop_path();  // no locks held; takes graph_mu_ on mismatch
  void add_node_graph_held(Task* t);
  void queue_or_watch_graph_held(Node* n);
  LiveMap::iterator retire_interval_graph_held(LiveMap::iterator itv);
  void erase_live_refs_graph_held(Node* n);
  std::size_t complete_node_graph_held(Node* n, unsigned shard);
  bool sweep_watch_graph_held(unsigned shard);
  void watch_graph_held(Node* n);
  void reset_coverage_graph_held();

  // Shard-side helpers.
  void push_ready_shard_held(Node* n, unsigned shard);
  void settle_queued(Node* n);
  Node* take_front_shard_held(unsigned rank, unsigned* from);
  Node* pop_entry_split(unsigned home, unsigned* from);

  std::size_t pop_batch_global(Task** out, std::size_t max, unsigned home,
                               std::uint64_t* shard_hits,
                               std::uint64_t* shard_misses);
  std::size_t pop_batch_split(Task** out, std::size_t max, unsigned home,
                              std::uint64_t* shard_hits,
                              std::uint64_t* shard_misses,
                              WorkerStats* stats);
  void fold_or_watch(Node* n, unsigned home);

  // ---- lockfree-mode helpers (mode_ == kLockFree only) -----------------

  /// One-byte test-and-set spin on Node::edge_lock (leaf lock; the
  /// critical sections it guards are a few loads/stores, so plain
  /// spinning beats any parking machinery).
  static void edge_lock_acquire(Node* n) {
    while (n->edge_lock.exchange(1, std::memory_order_acquire) != 0) {
      while (n->edge_lock.load(std::memory_order_relaxed) != 0) {
      }
    }
  }
  static void edge_lock_release(Node* n) {
    n->edge_lock.store(0, std::memory_order_release);
  }

  /// Lock-free probe of the open-addressed index. A null result is only
  /// "not visible in the current table" — callers must fall back to the
  /// graph_mu_ slow path against the authoritative `index_` map.
  Node* index_lookup_lockfree(const Task* t) const;
  /// Inserts into (growing, if needed) the lock-free table. Caller holds
  /// graph_mu_; the node must be fully initialized — the slot store is
  /// the release that publishes it to lock-free completers.
  void index_insert_graph_held(Node* n);

  /// Drains the deferred-retirement Treiber stack, erasing each drained
  /// node's live_ intervals. Caller holds graph_mu_; called wherever the
  /// interval index is about to be consulted or reset (extend, the watch
  /// sweep, coverage reset) — the epoch boundaries of the scheme.
  void drain_retired_graph_held();

  /// Lock-free completion: edge_lock for the completed/successors
  /// handoff, ring pushes for released successors, Treiber push for the
  /// deferred interval retirement. Safe to call with or without graph_mu_
  /// (the slow-lookup and sweep paths hold it; the hot path does not).
  std::size_t complete_node_lockfree(Node* n, unsigned shard,
                                     WorkerStats* stats);
  /// Mode dispatch for the shared fold/sweep paths (caller holds
  /// graph_mu_): split/global complete under the graph lock, lockfree
  /// runs its own protocol.
  std::size_t complete_node_any(Node* n, unsigned shard);

  void push_ready_lockfree(Node* n, unsigned shard, WorkerStats* stats);
  Node* pop_entry_lockfree(unsigned home, unsigned* from, WorkerStats* stats);

  /// Checked-build accounting audit (XK_EXPECT(rl_accounting)): at a
  /// quiesced fold point — destruction, or a coverage reset — nready_
  /// must equal the entries still sitting in the shard queues (ring +
  /// side/deque), dead entries included: every push paired one increment
  /// with exactly one pop-side decrement, so any drift is a lost or
  /// double-counted entry. Only meaningful quiesced (the gauges are
  /// deliberately stale mid-flight); callers gate on check::kEnabled.
  void verify_accounting_quiesced(const char* where);

  Frame& frame_;
  StarvationBoard* board_;
  const RlLockMode mode_;
  const bool split_;     ///< mode_ == kSplit: shard mutexes are primary
  const bool lockfree_;  ///< mode_ == kLockFree: rings are primary

  /// Graph lock (and, in global mode, the single list-wide lock).
  mutable std::mutex graph_mu_;

  // ---- guarded by graph_mu_ --------------------------------------------
  std::deque<Node> nodes_;  ///< stable addresses; grown by extend() only
  std::unordered_map<const Task*, Node*> index_;
  std::unordered_map<const Task*, bool> early_completions_;

  /// Lock-free task->node index (lockfree mode): open-addressed, linear
  /// probing, power-of-2 sized. Written (insert, grow) only under
  /// graph_mu_; read with acquire loads and no lock by the completion
  /// hot path. Old tables are retired into `index_tabs_` rather than
  /// freed — a reader may still hold a pointer into one — and reclaimed
  /// only at coverage reset / destruction, when no reader can exist.
  struct IndexTable {
    explicit IndexTable(std::size_t cap) : mask(cap - 1), slots(cap) {}
    std::size_t mask;
    std::vector<std::atomic<Node*>> slots;
  };
  std::atomic<IndexTable*> index_tab_{nullptr};
  std::vector<std::unique_ptr<IndexTable>> index_tabs_;  ///< current + retired
  std::size_t index_count_ = 0;  ///< entries in the current table
  std::uint32_t covered_count_ = 0;
  /// Frame incarnation the coverage state matches. Written only under
  /// graph_mu_; atomic so the split pop path can pre-check "did the frame
  /// recycle under us?" with one relaxed load before touching any shard —
  /// on a mismatch it upgrades to graph_mu_ and resets. The reset itself
  /// is only reachable on a list that outlived Frame::reset(), which the
  /// owner performs with every task at Term and no scanner active, so no
  /// concurrent popper can hold a stale Node across it.
  std::atomic<std::uint64_t> frame_epoch_;

  // Live-access interval index: ordered by region lo() so a new access only
  // examines entries whose bounding interval can overlap. `max_span_` bounds
  // how far below lo() a candidate's start can be.
  LiveMap live_;
  std::uintptr_t max_span_ = 0;
  std::size_t edges_ = 0;  ///< edge_count() diagnostic

  // Claimed-elsewhere nodes whose Term may race a notification (their
  // pre-Term load of frame.ready_list can miss the attach): watched in FIFO
  // order and lazily swept when every ready shard runs dry. O(claimed-in-
  // flight), and oldest claims fold first so successor release order tracks
  // the original ready order. Entries are deduplicated through
  // Node::watched.
  std::deque<Node*> watch_;
  std::uint64_t missed_folds_ = 0;

  /// extend()-local scratch for initially-ready nodes of the current
  /// coverage round, published under one shard-lock acquisition at the
  /// end of the round (guarded by graph_mu_ like every extend-side field;
  /// a member only to reuse its capacity across rounds).
  std::vector<Node*> extend_ready_scratch_;

  // ---- guarded per shard (split) / by graph_mu_ (global) ---------------
  std::vector<Shard> shards_;

  /// Total deque entries over all shards (dead ids included) — the O(1)
  /// empty check on the pop path. Relaxed: shard mutexes order the actual
  /// deque contents; a stale read costs one spurious probe or one benign
  /// early "dry" verdict.
  std::atomic<std::size_t> nready_{0};

  // ---- lockfree-mode shared state --------------------------------------

  /// Deferred-retirement Treiber stack head: lock-free completions push
  /// their node here (release CAS; Node::retire_next is the link) instead
  /// of erasing live_ intervals; drained under graph_mu_ (acquire
  /// exchange) at the epoch boundaries.
  std::atomic<Node*> retire_head_{nullptr};

  /// List-internal telemetry mirrors (see the accessors): counted
  /// alongside the caller's WorkerStats so statless callers (tests,
  /// extend's own pushes) still show up.
  std::atomic<std::uint64_t> ring_spills_{0};
  std::atomic<std::uint64_t> side_pops_{0};
};

}  // namespace xk
