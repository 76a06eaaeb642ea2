// ReadyList — the "accelerating data structure for steal operations" (§II-C),
// sharded by locality domain under one mutex.
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
// shards only when their own runs dry, so successors tend to run where their
// predecessor's output is hot. Flat machines construct one shard and keep
// the global-FIFO behavior exactly.
//
// Locking: one mutex, `graph_mu_`, guards the dependence graph and every
// shard deque. Every public entry point takes it; every `*_graph_held`
// helper runs under it. A completion's graph_mu_ release and the popper's
// acquire are the edge handing the finisher's writes to whoever claims a
// released successor. The only fields read without it are the per-shard
// `depth` gauges (approx_ready, shard_live_depth): relaxed snapshots that
// gate the owner's help loop, never a correctness decision.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/frame.hpp"
#include "core/task.hpp"
#include "support/cache.hpp"

namespace xk {

class ReadyList {
 public:
  /// `nshards` is the runtime's dense domain count (1 on a flat machine).
  explicit ReadyList(Frame& frame, unsigned nshards = 1);
  ~ReadyList();

  ReadyList(const ReadyList&) = delete;
  ReadyList& operator=(const ReadyList&) = delete;

  unsigned nshards() const { return static_cast<unsigned>(shards_.size()); }

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
  /// shard or crossed into another domain's.
  Task* pop_ready_claimed(unsigned shard = 0,
                          std::uint64_t* shard_hits = nullptr,
                          std::uint64_t* shard_misses = nullptr);

  /// Pops and claims up to `max` ready tasks under one lock acquisition
  /// (the combiner's pour: one task per waiting thief in one pass). Pops drain the popper's own `shard` oldest-first before
  /// crossing into other shards (rank order, wrapping);
  /// `shard_hits`/`shard_misses`, when non-null, are incremented per pop
  /// with the local/cross split. Returns the number of tasks written to
  /// `out`.
  std::size_t pop_ready_claimed_batch(Task** out, std::size_t max,
                                      unsigned shard = 0,
                                      std::uint64_t* shard_hits = nullptr,
                                      std::uint64_t* shard_misses = nullptr);

  /// Completion notification; must be invoked *before* the Term store by
  /// whoever finished the task, passing the finisher's domain `shard` (the
  /// producer-side routing: released successors join the finisher's
  /// shard). Unknown tasks (not yet covered) are recorded so a later
  /// extend() does not resurrect them.
  void on_complete(Task* t, unsigned shard = 0);

  /// Approximate live ready depth summed over every shard (relaxed reads
  /// of the per-shard depth gauges, no lock): the owner's "anything to
  /// help with?" probe. Staleness only costs one empty pop or one missed
  /// help round — the pop itself runs under the lock.
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
  std::size_t ready_size() const;  ///< total queued over all shards
  std::size_t shard_ready_size(unsigned shard) const;  ///< deque length,
                                                       ///  dead ids included
  std::int64_t shard_live_depth(unsigned shard) const;  ///< live entries only
  std::size_t watched_size() const;
  std::size_t early_completion_count() const;
  std::uint64_t missed_folds() const;

 private:
  // Live-access interval index entry type (declared early: Node refs it).
  struct ChainEntry;
  using LiveMap = std::multimap<std::uintptr_t, ChainEntry>;

  /// One covered task. Nodes live in a std::deque so their addresses are
  /// stable while extend() grows the graph: shard deques, successor lists
  /// and the watch list hold Node pointers.
  struct Node {
    Task* task = nullptr;
    std::uint32_t npred = 0;  ///< unreleased predecessor count
    bool completed = false;   ///< graph-side completion seen
    /// In the watch deque right now. The dedupe flag: a node can qualify
    /// for watching more than once (covered while already claimed, then
    /// again on the pop-path claim-race branch); without it the lazy sweep
    /// walks duplicates forever.
    bool watched = false;
    /// Shard deque this node sits in, -1 if none. Settled (set to -1) by
    /// whichever of pop and completion comes first, so the shard's live
    /// depth is returned the moment the node completes, even while its
    /// (now dead) entry still waits in the deque — otherwise owner-executed
    /// tasks would leave phantom depth that sends the owner's help loop
    /// after work that is not there.
    std::int32_t queued = -1;
    std::vector<Node*> successors;
    /// This node's intervals in live_. A slot holds live_.end() once a
    /// superseding writer dropped that interval early.
    std::vector<LiveMap::iterator> live_refs;
  };

  struct ChainEntry {
    Node* node;
    const Access* acc;
  };

  /// One per-domain ready queue. `depth` counts *live* queued nodes; the
  /// deque itself may additionally hold dead entries whose depth was
  /// settled at completion. `depth` is written under graph_mu_ and atomic
  /// only for the lock-free readers (approx_ready, shard_live_depth).
  struct alignas(kCacheLine) Shard {
    std::deque<Node*> q;
    std::atomic<std::int64_t> depth{0};
  };

  /// Maps a caller's domain rank onto a shard. Out-of-range ranks are only
  /// legitimate on a single-shard list, which funnels every rank into
  /// shard 0; with real shards an oversized rank is an upstream routing
  /// bug — assert in debug builds, and wrap by modulo (not fold onto
  /// shard 0) in release so a bad rank at least spreads instead of
  /// mis-crediting shard 0's depth and hit/miss telemetry.
  unsigned wrap_shard(unsigned shard) const;

  // Every helper below runs with graph_mu_ held (or, for settle_queued and
  // the accounting audit, on a quiesced list).
  void check_epoch_graph_held();
  void add_node_graph_held(Task* t, unsigned shard);
  void queue_or_watch_graph_held(Node* n, unsigned shard);
  LiveMap::iterator retire_interval_graph_held(LiveMap::iterator itv);
  void erase_live_refs_graph_held(Node* n);
  std::size_t complete_node_graph_held(Node* n, unsigned shard);
  bool sweep_watch_graph_held(unsigned shard);
  void watch_graph_held(Node* n);
  void reset_coverage_graph_held();
  void push_ready_graph_held(Node* n, unsigned shard);
  std::size_t pop_batch_graph_held(Task** out, std::size_t max, unsigned home,
                                   std::uint64_t* shard_hits,
                                   std::uint64_t* shard_misses);
  void settle_queued(Node* n);

  /// Checked-build accounting audit (XK_EXPECT(rl_accounting)): at a
  /// quiesced fold point — destruction, or a coverage reset — nready_
  /// must equal the entries still sitting in the shard deques, dead
  /// entries included: every push paired one increment with exactly one
  /// pop-side decrement, so any drift is a lost or double-counted entry.
  /// Callers gate on check::kEnabled.
  void verify_accounting_quiesced(const char* where);

  Frame& frame_;

  /// The list's one lock: guards every field below except the shard
  /// `depth` gauges' lock-free reads.
  mutable std::mutex graph_mu_;

  std::deque<Node> nodes_;  ///< stable addresses; grown by extend() only
  std::unordered_map<const Task*, Node*> index_;
  std::unordered_map<const Task*, bool> early_completions_;
  std::uint32_t covered_count_ = 0;
  /// Frame incarnation the coverage state matches.
  std::uint64_t frame_epoch_;

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

  std::vector<Shard> shards_;
  /// Total deque entries over all shards (dead ids included) — the O(1)
  /// empty check on the pop path.
  std::size_t nready_ = 0;
};

}  // namespace xk
