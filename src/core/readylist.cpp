#include "core/readylist.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "check/check.hpp"
#include "obs/trace.hpp"

namespace xk {

ReadyList::ReadyList(Frame& frame, unsigned nshards, StarvationBoard* board,
                     RlLockMode lock_mode)
    : frame_(frame),
      board_(board),
      mode_(lock_mode),
      split_(lock_mode == RlLockMode::kSplit),
      lockfree_(lock_mode == RlLockMode::kLockFree),
      frame_epoch_(frame.epoch()),
      shards_(std::max(nshards, 1u)) {
  if (lockfree_) {
    for (Shard& s : shards_) {
      s.ring = std::make_unique<MpmcRing<Node*>>(kRingCapacity);
    }
  }
}

ReadyList::~ReadyList() {
  // A frame can recycle with tasks still queued (released successors the
  // owner's FIFO claimed and ran without a combiner ever popping them);
  // return any gauge contribution not already returned at completion so
  // the board never drifts. Keyed off Node::queued, not the deque sizes:
  // deques may hold dead entries whose contribution was settled when their
  // completion arrived. No locks: destruction is owner-only, after the
  // Dekker handshake has excluded every scanner and every task reached
  // Term (see Worker::pop_frame / Frame::reset).
  if constexpr (check::kEnabled) verify_accounting_quiesced("~ReadyList");
  if (board_ == nullptr) return;
  for (Node& n : nodes_) {
    const std::int32_t q = n.queued.load(std::memory_order_relaxed);
    if (q >= 0) board_->add_ready(static_cast<unsigned>(q), -1);
  }
}

void ReadyList::verify_accounting_quiesced(const char* where) {
  if constexpr (!check::kEnabled) {
    (void)where;
    return;
  }
  // Quiesced by contract (owner-only destruction, or a graph-held coverage
  // reset with no concurrent popper), so the relaxed reads below are exact:
  // the ring's cursors cannot move and the deques have no writer. Dead
  // entries count on both sides — nready_ tracks queue occupancy, not
  // liveness.
  std::uint64_t entries = 0;
  for (Shard& s : shards_) {
    if (lockfree_ && s.ring != nullptr) entries += s.ring->approx_size();
    entries += s.q.size();
  }
  const std::uint64_t counted = nready_.load(std::memory_order_relaxed);
  if (entries != counted) {
    std::fprintf(stderr, "xk_check: ready-list accounting audited at %s\n",
                 where);
  }
  XK_EXPECT(rl_accounting, entries == counted, entries, counted);
}

unsigned ReadyList::wrap_shard(unsigned shard) const {
  const unsigned ns = nshards();
  assert((shard < ns || ns == 1) &&
         "domain rank out of shard range (routing bug upstream)");
  return shard < ns ? shard : shard % ns;
}

/// Settles `n`'s board/depth contribution if it still has one. Called
/// right after a pop (split mode: the popper has already dropped the
/// shard lock by then) and at completion (under graph_mu_) — whichever
/// comes first wins the exchange; the other sees -1 and does nothing.
/// The atomic exchange is the whole synchronization: the two callers
/// share no lock.
void ReadyList::settle_queued(Node* n) {
  // xk-order: the exchange's atomicity alone elects the single settler;
  // the value gates nothing but the relaxed gauge decrements below.
  const std::int32_t q = n->queued.exchange(-1, std::memory_order_relaxed);
  if (q < 0) return;
  shards_[static_cast<unsigned>(q)].depth.fetch_sub(1,
                                                    std::memory_order_relaxed);
  if (board_ != nullptr) board_->add_ready(static_cast<unsigned>(q), -1);
}

/// Appends `n` to `shard`'s deque. Caller holds the shard's mutex (split)
/// or graph_mu_ (global).
void ReadyList::push_ready_shard_held(Node* n, unsigned shard) {
  // xk-order: the shard lock (or graph_mu_) the caller holds is the
  // publication edge; poppers read `queued` only after taking it too.
  n->queued.store(static_cast<std::int32_t>(shard), std::memory_order_relaxed);
  shards_[shard].q.push_back(n);
  const std::int64_t depth =
      shards_[shard].depth.fetch_add(1, std::memory_order_relaxed) + 1;
  nready_.fetch_add(1, std::memory_order_relaxed);
  // The board's ready-depth update rides the same shard lock as the deque
  // push, so a starvation reader never sees depth lag the queue by more
  // than the relaxed-gauge staleness it already tolerates.
  if (board_ != nullptr) board_->add_ready(shard, 1);
  obs::emit(obs::Ev::kRlPush, shard, obs::kProvDeque,
            static_cast<std::uint64_t>(depth > 0 ? depth : 0));
}

void ReadyList::check_epoch_graph_held() {
  const std::uint64_t e = frame_.epoch();
  if (e == frame_epoch_.load(std::memory_order_relaxed)) return;
  // xk-order: written under graph_mu_; the lock-free pop-path probe that
  // races this store upgrades to graph_mu_ on any mismatch, so a stale
  // read costs one slow-path round, never a wrong verdict.
  frame_epoch_.store(e, std::memory_order_relaxed);
  reset_coverage_graph_held();
}

/// Lock-free recycle probe for the pop paths: almost always a single pair
/// of relaxed loads that match. On a mismatch — only possible on a list
/// that survived a Frame::reset(), when no concurrent popper can exist
/// (see the frame_epoch_ declaration) — upgrade to graph_mu_ and drop the
/// stale coverage, so a pop issued before the new incarnation's first
/// extend()/on_complete() cannot serve prior-incarnation entries whose
/// task pointers alias freshly recycled arena storage.
void ReadyList::check_epoch_pop_path() {
  if (frame_.epoch() == frame_epoch_.load(std::memory_order_relaxed)) return;
  std::lock_guard lock(graph_mu_);
  check_epoch_graph_held();
}

/// The frame recycled under this list: every Task* in the graph — and
/// every early-completion key — may now alias a *new* task bump-allocated
/// at the same arena address. Drop the whole coverage state (nodes, index,
/// shard deques, watch list, early completions, live intervals) and
/// restart from index 0 of the new incarnation. Without this, stale
/// `early_completions_` entries leak across sections: the map grows
/// without bound on a long-lived list whose sections end before extend()
/// reaches full coverage, and a leaked entry can mark an address-aliased
/// new task completed before it ever ran.
///
/// Scope note: in-tree this path is defensive — Frame::reset() deletes
/// the attached list before bumping the epoch, so only a list owned
/// *outside* the frame (the test-suite idiom, or an embedder holding its
/// own list) ever observes a recycle. The check makes the list's
/// lifetime contract self-contained instead of relying on every owner to
/// destroy it first; its steady-state cost is one relaxed epoch compare
/// per public entry point.
void ReadyList::reset_coverage_graph_held() {
  if constexpr (check::kEnabled) verify_accounting_quiesced("reset_coverage");
  for (Node& n : nodes_) settle_queued(&n);
  for (unsigned s = 0; s < nshards(); ++s) {
    if (lockfree_) {
      // Reset is only reachable quiesced (see above), so draining the ring
      // single-threadedly is safe; the side deque rides its own mutex.
      Node* dead = nullptr;
      while (shards_[s].ring->try_pop(dead)) {
      }
      std::lock_guard lock(shards_[s].mu);
      shards_[s].q.clear();
      // xk-order: quiesced reset (no concurrent pusher/popper exists, see
      // the function comment); the side mutex held here is belt-and-braces.
      shards_[s].side.store(0, std::memory_order_relaxed);
    } else {
      ShardGuard guard(shards_[s], split_);
      shards_[s].q.clear();
    }
  }
  // xk-order: same quiesced-reset contract as the shard drains above.
  nready_.store(0, std::memory_order_relaxed);
  nodes_.clear();
  index_.clear();
  early_completions_.clear();
  watch_.clear();
  live_.clear();
  extend_ready_scratch_.clear();
  max_span_ = 0;
  edges_ = 0;
  covered_count_ = 0;
  if (lockfree_) {
    // xk-order: the retired chain and the lock-free index point into the
    // nodes_ storage just cleared; no reader can exist here (quiesced).
    retire_head_.store(nullptr, std::memory_order_relaxed);
    index_tab_.store(nullptr, std::memory_order_relaxed);
    index_tabs_.clear();
    index_count_ = 0;
  }
}

void ReadyList::extend(unsigned shard) {
  // Cap the per-round coverage growth: extend() runs inside the victim's
  // scanning window, and the frame owner's pop_frame waits that window out —
  // covering a 100k-task frame in one go would stall the owner for the whole
  // build. Remaining tasks are covered by subsequent combiner rounds.
  constexpr std::uint32_t kMaxPerRound = 2048;
  std::lock_guard lock(graph_mu_);
  shard = wrap_shard(shard);
  check_epoch_graph_held();
  // Epoch boundary of the deferred-retirement scheme: the interval scans
  // below must not walk intervals of long-completed predecessors (they
  // would be skipped via `completed` anyway, but the scan cost compounds).
  if (lockfree_) drain_retired_graph_held();
  const std::uint32_t published = frame_.size_acquire();
  if (covered_count_ >= published) return;
  Frame::Iterator it(frame_);
  it.seek(covered_count_);
  std::uint32_t added = 0;
  extend_ready_scratch_.clear();
  while (covered_count_ < published && added < kMaxPerRound) {
    add_node_graph_held(it.get());
    it.advance();
    ++covered_count_;
    ++added;
  }
  // Initially-ready nodes collected by add_node_graph_held land in the
  // covering combiner's shard under ONE lock acquisition — per-node
  // lock round trips on the combiner's own (hottest) shard would inflate
  // the coverage stall the per-round cap exists to bound. Coverage order
  // is preserved; only the publication is batched.
  if (!extend_ready_scratch_.empty()) {
    if (lockfree_) {
      for (Node* n : extend_ready_scratch_) {
        push_ready_lockfree(n, shard, nullptr);
      }
    } else {
      ShardGuard guard(shards_[shard], split_);
      for (Node* n : extend_ready_scratch_) push_ready_shard_held(n, shard);
    }
    extend_ready_scratch_.clear();
  }
}

void ReadyList::watch_graph_held(Node* n) {
  if (n->watched) return;  // already on the watch deque: one entry suffices
  n->watched = true;
  watch_.push_back(n);
}

void ReadyList::add_node_graph_held(Task* t) {
  nodes_.emplace_back();
  Node* node = &nodes_.back();
  node->task = t;
  index_.emplace(t, node);

  // A task that already completed before coverage: record and move on.
  const TaskState s = t->load_state();
  const bool already_done =
      s == TaskState::kTerm || early_completions_.count(t) != 0;
  if (already_done) {
    // xk-order: mid-construction node, not yet published to any shard,
    // watcher or index; graph_mu_ covers every reader that can find it.
    node->completed.store(true, std::memory_order_relaxed);
    early_completions_.erase(t);
    return;
  }
  // Covered while already claimed: it may have loaded frame.ready_list
  // before the attach and thus terminate without notifying — watch it so
  // the lazy sweep folds the completion in.
  if (s != TaskState::kInit) watch_graph_held(node);

  // Lockfree: a +1 construction bias on npred. Predecessor completions no
  // longer hold graph_mu_, so one could decrement a mid-construction
  // node's count to zero and push it into a ring before the remaining
  // accesses below have contributed their edges. The bias keeps the count
  // positive until this function's closing fetch_sub, which is then the
  // decision point for initially-ready.
  // xk-order: pre-publication bias store — the node reaches the index (and
  // thus any decrementer) only via index_insert's release store below.
  if (lockfree_) node->npred.store(1, std::memory_order_relaxed);

  // Count conflicts against live (non-completed) predecessors' accesses.
  // npred stores are relaxed: the node is not published to any shard or
  // watcher until this function returns, and all graph-side writers hold
  // graph_mu_ (lockfree mode additionally rides the construction bias).
  for (std::uint32_t a = 0; a < t->naccesses; ++a) {
    const Access& acc = t->accesses[a];
    if (acc.mode == AccessMode::kNone || acc.mode == AccessMode::kScratch)
      continue;
    const std::uintptr_t lo = acc.region.lo();
    const std::uintptr_t hi = acc.region.hi();
    // An exclusive contiguous access supersedes every conflicting interval
    // it fully covers: any later access overlapping such an interval also
    // overlaps this one, and so gets an edge from this task, which already
    // waits for the covered one. Dropping the covered interval keeps the
    // graph linear (N writes to one region make N-1 edges, not O(N^2)).
    // Never for reads, for CW (CW peers do not conflict, so a later reader
    // would lose its edge from the covered peer), for strided writers
    // (their bounding interval is not their footprint) or for a partial
    // cover (the uncovered part still needs the interval).
    const bool supersedes =
        (acc.mode == AccessMode::kWrite ||
         acc.mode == AccessMode::kReadWrite) &&
        acc.region.runs == 1;
    // Candidate predecessors: entries whose interval start is in
    // [lo - max_span_, hi). Anything starting earlier cannot reach lo.
    const std::uintptr_t from = lo > max_span_ ? lo - max_span_ : 0;
    for (auto itv = live_.lower_bound(from);
         itv != live_.end() && itv->first < hi;) {
      const ChainEntry& e = itv->second;
      if (e.node == node || !accesses_conflict(*e.acc, acc)) {
        ++itv;
        continue;
      }
      // Acquire: skipping the edge can make this node initially-ready and
      // publish it with NO predecessor decrement on its npred — so the
      // skip itself must carry the predecessor's data writes. In lockfree
      // mode the flag is release-stored by a completer that holds no
      // mutex (complete_node_lockfree); this acquire pairs with it and
      // hands those writes to whichever popper later claims the node. In
      // split/global modes graph_mu_ already provides the edge and the
      // acquire is redundant (and free on x86).
      if (!e.node->completed.load(std::memory_order_acquire)) {
        if (lockfree_) {
          // The append must not race the predecessor's completion swapping
          // its successor list out: take its edge spinlock and re-check.
          // Either the edge lands before the swap (the completion will
          // decrement it) or the completion is observed and no edge is
          // counted — never an increment without a matching decrement.
          edge_lock_acquire(e.node);
          if (!e.node->completed.load(std::memory_order_relaxed)) {
            e.node->successors.push_back(node);
            node->npred.fetch_add(1, std::memory_order_relaxed);
            ++edges_;
          }
          edge_lock_release(e.node);
        } else {
          e.node->successors.push_back(node);
          node->npred.fetch_add(1, std::memory_order_relaxed);
          ++edges_;
        }
      }
      if (supersedes && itv->first >= lo && e.acc->region.hi() <= hi) {
        itv = retire_interval_graph_held(itv);
      } else {
        ++itv;
      }
    }
  }

  // Publish this task's own accesses as live entries for later tasks.
  for (std::uint32_t a = 0; a < t->naccesses; ++a) {
    const Access& acc = t->accesses[a];
    if (acc.mode == AccessMode::kNone || acc.mode == AccessMode::kScratch)
      continue;
    const std::uintptr_t lo = acc.region.lo();
    const std::uintptr_t span = acc.region.hi() - lo;
    max_span_ = std::max(max_span_, span);
    auto itv = live_.emplace(lo, ChainEntry{node, &acc});
    node->live_refs.push_back(itv);
  }

  if (lockfree_) {
    // Publish to the lock-free index only now: every field a lock-free
    // completer touches is initialized, and the slot store's release
    // makes them visible. (on_complete calls racing in before this line
    // miss the table and block on graph_mu_, where the authoritative
    // `index_` map — populated at the top — covers them.)
    index_insert_graph_held(node);
    // Release the construction bias. Observing 1 means every counted
    // predecessor already decremented (or none existed): this decrement
    // is the final one, and no concurrent completer can release the node
    // — the initially-ready decision is ours alone.
    if (node->npred.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      queue_or_watch_graph_held(node);
    }
    return;
  }
  if (node->npred.load(std::memory_order_relaxed) == 0) {
    queue_or_watch_graph_held(node);
  }
}

/// Initially-ready node: no predecessor completion will ever release it.
/// Queued if still unclaimed — deferred to extend()'s one batched
/// shard-lock acquisition; a claim landing between this check and the
/// push just produces a queued-while-claimed entry, absorbed by the pop
/// path's claim-race fold/watch machinery. A node claimed since
/// add_node's first state check is watched instead: its claimer may
/// terminate it without notifying, and with nothing queued and no
/// predecessor left, only the watch sweep can fold that completion in
/// (without it the node's successors were never released).
void ReadyList::queue_or_watch_graph_held(Node* n) {
  if (n->task->load_state() == TaskState::kInit) {
    extend_ready_scratch_.push_back(n);
  } else {
    watch_graph_held(n);
  }
}

/// Drops one live interval ahead of its owner's completion (the
/// superseding-writer rule in add_node_graph_held). The owner's live_refs
/// slot becomes a live_.end() tombstone rather than being erased: a
/// lock-free completer reads live_refs.empty() without graph_mu_, so the
/// vector must not change size. Both erase loops skip tombstones.
ReadyList::LiveMap::iterator ReadyList::retire_interval_graph_held(
    LiveMap::iterator itv) {
  for (LiveMap::iterator& ref : itv->second.node->live_refs) {
    if (ref == itv) {
      ref = live_.end();
      break;
    }
  }
  return live_.erase(itv);
}

void ReadyList::erase_live_refs_graph_held(Node* n) {
  for (auto itv : n->live_refs) {
    if (itv != live_.end()) live_.erase(itv);
  }
  n->live_refs.clear();
}

void ReadyList::on_complete(Task* t, unsigned shard, WorkerStats* stats) {
  shard = wrap_shard(shard);
  if (lockfree_) {
    // The completion hot path: one lock-free index probe, then the
    // edge-spinlock completion protocol — no mutex, so completions of
    // different domains no longer serialize on graph_mu_ here.
    check_epoch_pop_path();
    if (Node* n = index_lookup_lockfree(t)) {
      complete_node_lockfree(n, shard, stats);
      return;
    }
    // Table miss: covered-but-not-yet-published (racing extend), or not
    // covered at all. The authoritative map under graph_mu_ decides;
    // recording an early completion must also happen under it.
    std::lock_guard lock(graph_mu_);
    check_epoch_graph_held();
    auto found = index_.find(t);
    if (found == index_.end()) {
      early_completions_.emplace(t, true);
      return;
    }
    complete_node_lockfree(found->second, shard, stats);
    return;
  }
  std::lock_guard lock(graph_mu_);
  check_epoch_graph_held();
  auto found = index_.find(t);
  if (found == index_.end()) {
    early_completions_.emplace(t, true);
    return;
  }
  complete_node_graph_held(found->second, shard);
}

/// Graph half of a completion (caller holds graph_mu_): marks the node
/// done, settles its gauge, retires its live-access intervals, then
/// releases successors whose last predecessor this was. The release batch
/// takes exactly one shard lock — the target shard's — because producer
/// routing sends every released successor to the finisher's shard; that
/// single lock acquisition is the release/acquire edge handing the
/// finisher's writes to whichever popper claims a successor. Returns the
/// number of successors released.
std::size_t ReadyList::complete_node_graph_held(Node* n, unsigned shard) {
  if (n->completed.load(std::memory_order_relaxed)) return 0;
  // xk-order: graph_mu_ is held (every graph-side reader takes it); the
  // body-writes handoff to poppers rides the shard lock taken below.
  n->completed.store(true, std::memory_order_relaxed);
  // A node can complete while still sitting in a shard deque (the owner's
  // FIFO claimed and ran it); its entry stays queued as a dead one until a
  // pop discards it, but its board contribution must not — phantom depth
  // would veto real starvation verdicts for the shard's domain.
  settle_queued(n);
  erase_live_refs_graph_held(n);
  std::size_t released = 0;
  if (!n->successors.empty()) {
    ShardGuard guard(shards_[shard], split_);
    for (Node* succ : n->successors) {
      // The npred>0 probe guards against underflow on defensive grounds
      // only: every (pred, succ) conflict edge pairs one increment at
      // coverage with one decrement at the predecessor's single
      // completion. acq_rel on the decrement chains the memory effects of
      // every non-final completer into the final one (see readylist.hpp).
      XK_EXPECT(rl_npred_underflow,
                succ->npred.load(std::memory_order_relaxed) != 0);
      if (succ->npred.load(std::memory_order_relaxed) == 0) continue;
      if (succ->npred.fetch_sub(1, std::memory_order_acq_rel) != 1) continue;
      if (succ->completed.load(std::memory_order_relaxed)) continue;
      // Producer-side routing: the released successor joins the finisher's
      // shard — its inputs were just written by a worker of that domain.
      push_ready_shard_held(succ, shard);
      ++released;
    }
    n->successors.clear();
  }
  return released;
}

// ---- lockfree-mode machinery ----------------------------------------------

/// Pointer hash for the lock-free index: drop the alignment bits, then a
/// Fibonacci multiply + fold so bump-allocated (arithmetically clustered)
/// task addresses spread over the table.
static std::size_t task_hash(const Task* t) {
  std::uintptr_t x = reinterpret_cast<std::uintptr_t>(t) >> 4;
  x *= 0x9E3779B97F4A7C15ull;
  x ^= x >> 32;
  return static_cast<std::size_t>(x);
}

void ReadyList::index_insert_graph_held(Node* n) {
  // Linear-probe insert. Single writer (graph_mu_); the release store
  // publishes the fully-initialized node to lock-free readers.
  // Termination: the grow policy keeps every table below 0.7 load.
  auto raw_insert = [](IndexTable* tab, Node* node, const Task* key) {
    for (std::size_t i = task_hash(key) & tab->mask;;
         i = (i + 1) & tab->mask) {
      if (tab->slots[i].load(std::memory_order_relaxed) == nullptr) {
        tab->slots[i].store(node, std::memory_order_release);
        return;
      }
    }
  };
  IndexTable* tab = index_tab_.load(std::memory_order_relaxed);
  if (tab == nullptr || (index_count_ + 1) * 10 > (tab->mask + 1) * 7) {
    // Grow 2x (seed 1024), rehashing from the OLD TABLE, not the
    // authoritative map: the map also holds every node that was already
    // completed at coverage (those skip the table on purpose), so on
    // owner-heavy frames it can exceed any table capacity derived from
    // the table's own occupancy — rehashing from it could overfill the
    // fresh table and turn the linear probe into an infinite loop.
    // Completed nodes are dropped during the rehash as compaction (a
    // lookup miss for them degrades to the graph_mu_ slow path, which
    // finds the completed node in the map and no-ops). The defensive
    // doubling loop keeps the surviving count below the 0.7 bound even
    // when compaction removes nothing. The old table stays allocated in
    // index_tabs_: a racing lookup may still be probing it, and a stale
    // table only costs that lookup a miss (-> the graph_mu_ slow path),
    // never a wrong hit.
    std::size_t ncap = tab == nullptr ? 1024 : (tab->mask + 1) * 2;
    while ((index_count_ + 2) * 10 > ncap * 7) ncap *= 2;
    auto fresh = std::make_unique<IndexTable>(ncap);
    std::size_t live = 0;
    if (tab != nullptr) {
      for (std::size_t i = 0; i <= tab->mask; ++i) {
        Node* old = tab->slots[i].load(std::memory_order_relaxed);
        if (old == nullptr) continue;
        if (old->completed.load(std::memory_order_relaxed)) continue;
        raw_insert(fresh.get(), old, old->task);
        ++live;
      }
    }
    raw_insert(fresh.get(), n, n->task);
    ++live;
    IndexTable* published = fresh.get();
    index_tabs_.push_back(std::move(fresh));
    index_tab_.store(published, std::memory_order_release);
    index_count_ = live;
    return;
  }
  raw_insert(tab, n, n->task);
  ++index_count_;
}

ReadyList::Node* ReadyList::index_lookup_lockfree(const Task* t) const {
  const IndexTable* tab = index_tab_.load(std::memory_order_acquire);
  if (tab == nullptr) return nullptr;
  for (std::size_t i = task_hash(t) & tab->mask;; i = (i + 1) & tab->mask) {
    Node* n = tab->slots[i].load(std::memory_order_acquire);
    if (n == nullptr) return nullptr;  // not in this table: caller's miss path
    if (n->task == t) return n;
  }
}

void ReadyList::drain_retired_graph_held() {
  Node* n = retire_head_.exchange(nullptr, std::memory_order_acquire);
  while (n != nullptr) {
    // A node only joins the Treiber stack after its completion published
    // `completed` and settle_queued() returned its gauge contribution
    // (complete_node_lockfree orders both before the CAS push) — a retired
    // node that is still live, or still holding a gauge, escaped the
    // completion protocol.
    XK_EXPECT(rl_retire_incomplete,
              n->completed.load(std::memory_order_relaxed));
    XK_EXPECT(rl_retire_unsettled, n->queued.load(std::memory_order_relaxed) < 0,
              static_cast<std::uint64_t>(
                  n->queued.load(std::memory_order_relaxed)));
    erase_live_refs_graph_held(n);
    Node* next = n->retire_next;
    n->retire_next = nullptr;
    n = next;
  }
}

/// Appends `n` to `shard`'s queue without holding any lock on the common
/// path: the MPMC ring when it has room (and nothing is spilled), the
/// mutex-guarded side deque otherwise. The side-deque divert rule — spill
/// whenever the side deque is non-empty, even if the ring has room again —
/// keeps per-shard pop order intact across a spill episode: every ring
/// entry predates every side entry, and the shard self-heals back to
/// ring-only pushes once poppers drain the side deque. (Concurrent pushes
/// racing a spill can still interleave the two queues, but concurrent
/// pushes have no defined order to preserve.)
///
/// The divert gate is best-effort by design: `side` is read without the
/// side-deque mutex, so a pusher can observe a stale 0 — from before a
/// concurrent spill's increment became visible — and ring a node while
/// older entries still sit in the side deque, inverting per-shard FIFO
/// for that episode. Tolerated: oldest-ready order is a locality
/// heuristic, not a correctness invariant (no entry is ever lost — the
/// popper serves both queues), and closing the window would put the
/// mutex back on every push. The acquire read does pin down the
/// self-heal transition: a pusher that sees the 0 produced by the final
/// side pop's release decrement is ordered after that drain, so once a
/// spill episode is *observed* drained, subsequent ring entries are
/// genuinely younger than everything the side deque held.
void ReadyList::push_ready_lockfree(Node* n, unsigned shard,
                                    WorkerStats* stats) {
  // xk-order: the ring push's per-slot seq release (or the side-deque
  // mutex on spill) publishes the entry; `queued` travels behind it.
  n->queued.store(static_cast<std::int32_t>(shard), std::memory_order_relaxed);
  Shard& s = shards_[shard];
  // Gauges BEFORE the entry becomes visible: a popper can pop the node
  // the instant the ring push's release lands and run the matching
  // decrements; were the increments ordered after the push, nready_
  // (size_t) would transiently wrap to ~2^64 and the shard depth / board
  // gauges would dip negative. Incremented first, the counts can only
  // *lead* the visible entry — the staleness every reader already
  // tolerates (pop_batch_split's dry retry, the board's relaxed gauge) —
  // and the ring push's release (or the side deque's mutex) sequences
  // each increment before the pop that triggers its decrement, so the
  // pairs can never invert. Split mode needs none of this: its push and
  // gauge bump share the shard lock.
  const std::int64_t depth =
      s.depth.fetch_add(1, std::memory_order_relaxed) + 1;
  nready_.fetch_add(1, std::memory_order_relaxed);
  if (board_ != nullptr) board_->add_ready(shard, 1);
  bool ringed = false;
  if (s.side.load(std::memory_order_acquire) == 0) {
    std::uint64_t retries = 0;
    ringed = s.ring->try_push(n, &retries);
    if (stats != nullptr) stats->rl_ring_retries += retries;
  }
  if (!ringed) {
    {
      std::lock_guard lock(s.mu);
      s.q.push_back(n);
      s.side.fetch_add(1, std::memory_order_relaxed);
    }
    ring_spills_.fetch_add(1, std::memory_order_relaxed);
    if (stats != nullptr) stats->rl_ring_spills++;
  }
  obs::emit(obs::Ev::kRlPush, shard,
            ringed ? obs::kProvRing : obs::kProvSide,
            static_cast<std::uint64_t>(depth > 0 ? depth : 0));
}

/// Pops one entry without a mutex on the common path: per shard in rank
/// order from `home`, the ring first, then — only when the side gauge says
/// something spilled — the side deque under its mutex. The ring pop's
/// seq acquire is the edge carrying the pushing finisher's writes.
ReadyList::Node* ReadyList::pop_entry_lockfree(unsigned home, unsigned* from,
                                               WorkerStats* stats) {
  const unsigned ns = nshards();
  for (unsigned k = 0; k < ns; ++k) {
    const unsigned r = (home + k) % ns;
    Shard& s = shards_[r];
    Node* n = nullptr;
    std::uint64_t retries = 0;
    const bool got = s.ring->try_pop(n, &retries);
    if (stats != nullptr) stats->rl_ring_retries += retries;
    if (got) {
      nready_.fetch_sub(1, std::memory_order_relaxed);
      *from = r;
      obs::emit(obs::Ev::kRlPop, home, r, obs::kProvRing);
      return n;
    }
    if (s.side.load(std::memory_order_relaxed) != 0) {
      std::lock_guard lock(s.mu);
      if (!s.q.empty()) {
        n = s.q.front();
        s.q.pop_front();
        // Release: pairs with the push-side gate's acquire, so a pusher
        // that observes the drained-to-0 gauge is ordered after this pop
        // (see push_ready_lockfree's divert-rule comment).
        s.side.fetch_sub(1, std::memory_order_release);
        nready_.fetch_sub(1, std::memory_order_relaxed);
        side_pops_.fetch_add(1, std::memory_order_relaxed);
        if (stats != nullptr) stats->rl_side_pops++;
        *from = r;
        obs::emit(obs::Ev::kRlPop, home, r, obs::kProvSide);
        return n;
      }
    }
  }
  return nullptr;
}

/// Lock-free completion. The edge spinlock makes {completed := true, take
/// successors} one atomic step against add_node's {check completed, append
/// edge}, so the successor list can neither lose an append nor be read
/// mid-reallocation. Successor decrements are acq_rel — the final
/// decrementer observes every earlier completer's writes before it
/// publishes the successor into a ring. Interval retirement is deferred
/// to the Treiber stack (drained under graph_mu_ at the epoch
/// boundaries); `completed` keeps the lingering intervals inert meanwhile.
std::size_t ReadyList::complete_node_lockfree(Node* n, unsigned shard,
                                              WorkerStats* stats) {
  if (n->completed.load(std::memory_order_relaxed)) return 0;
  edge_lock_acquire(n);
  if (n->completed.load(std::memory_order_relaxed)) {
    edge_lock_release(n);
    return 0;
  }
  // Release: the completer holds no mutex here, and add_node's unlocked
  // conflict-scan pre-check may observe this store and skip the edge —
  // publishing the successor with no npred decrement from this
  // predecessor. The release (paired with the pre-check's acquire) is the
  // only happens-before edge carrying this task's body writes in that
  // case; the edge-locked re-check path gets it from the spinlock instead.
  n->completed.store(true, std::memory_order_release);
  std::vector<Node*> succs = std::move(n->successors);
  n->successors.clear();
  edge_lock_release(n);
  settle_queued(n);
  if (!n->live_refs.empty()) {
    // live_refs has a stable size from here on: add_node finished
    // writing it before the node became findable, a superseding writer
    // only overwrites slots with tombstones, and only the graph_mu_
    // drain — which this push gates — clears it.
    Node* head = retire_head_.load(std::memory_order_relaxed);
    do {
      n->retire_next = head;
    } while (!retire_head_.compare_exchange_weak(head, n,
                                                 std::memory_order_release,
                                                 std::memory_order_relaxed));
  }
  std::size_t released = 0;
  for (Node* succ : succs) {
    // Every counted edge pairs exactly one increment with one decrement
    // (the edge-lock protocol above), and the construction bias keeps the
    // count positive until add_node finished — so a zero-crossing here is
    // the unique release point.
    const std::uint32_t prev =
        succ->npred.fetch_sub(1, std::memory_order_acq_rel);
    assert(prev != 0 && "npred underflow: unpaired edge decrement");
    XK_EXPECT(rl_npred_underflow, prev != 0, prev);
    if (prev != 1) continue;
    if (succ->completed.load(std::memory_order_relaxed)) continue;
    push_ready_lockfree(succ, shard, stats);
    ++released;
  }
  return released;
}

std::size_t ReadyList::complete_node_any(Node* n, unsigned shard) {
  return lockfree_ ? complete_node_lockfree(n, shard, nullptr)
                   : complete_node_graph_held(n, shard);
}

// ---------------------------------------------------------------------------

Task* ReadyList::pop_ready_claimed(unsigned shard, std::uint64_t* shard_hits,
                                   std::uint64_t* shard_misses) {
  Task* t = nullptr;
  return pop_ready_claimed_batch(&t, 1, shard, shard_hits, shard_misses) == 1
             ? t
             : nullptr;
}

std::size_t ReadyList::pop_ready_claimed_batch(Task** out, std::size_t max,
                                               unsigned shard,
                                               std::uint64_t* shard_hits,
                                               std::uint64_t* shard_misses,
                                               WorkerStats* stats) {
  shard = wrap_shard(shard);
  if (mode_ == RlLockMode::kGlobal) {
    std::lock_guard lock(graph_mu_);
    check_epoch_graph_held();
    return pop_batch_global(out, max, shard, shard_hits, shard_misses);
  }
  check_epoch_pop_path();
  return pop_batch_split(out, max, shard, shard_hits, shard_misses, stats);
}

/// Global-mode batch pop: the whole call under graph_mu_, preserving the
/// pre-split behavior exactly — pop order, inline claim-race folds, the
/// single lazy sweep per call (the XK_RL_LOCK ablation baseline).
std::size_t ReadyList::pop_batch_global(Task** out, std::size_t max,
                                        unsigned home,
                                        std::uint64_t* shard_hits,
                                        std::uint64_t* shard_misses) {
  std::size_t got = 0;
  bool swept = false;
  const unsigned ns = nshards();
  while (got < max) {
    if (nready_.load(std::memory_order_relaxed) == 0) {
      // One lazy catch-up pass over the watched (claimed-elsewhere) nodes
      // per call: fold in completions whose notification raced the attach.
      if (swept || !sweep_watch_graph_held(home)) break;
      swept = true;
      continue;
    }
    // Local-shard-first: drain the popper's own domain shard oldest-first,
    // then cross shards in rank order starting just above it. Crossing
    // (the miss path) is what keeps work flowing when a domain's own shard
    // is dry; the hit/miss split is the locality telemetry.
    unsigned shard = home;
    for (unsigned k = 1; k < ns && shards_[shard].q.empty(); ++k) {
      shard = (home + k) % ns;
    }
    Node* node = shards_[shard].q.front();
    shards_[shard].q.pop_front();
    nready_.fetch_sub(1, std::memory_order_relaxed);
    obs::emit(obs::Ev::kRlPop, home, shard, obs::kProvDeque);
    settle_queued(node);  // no-op for dead entries settled at completion
    Task* t = node->task;
    if (t->try_claim(TaskState::kStolenClaim)) {
      // The hit/miss split is only meaningful when there is more than one
      // shard; counting a forced single shard as all-hits would make the
      // sharded-vs-unsharded ablation (XK_RL_SHARD=0, flat machines)
      // indistinguishable from a perfectly-local sharded run.
      if (ns > 1) {
        if (shard == home) {
          if (shard_hits != nullptr) ++*shard_hits;
        } else if (shard_misses != nullptr) {
          ++*shard_misses;
        }
      }
      // Watched as a safety net: the thief that runs a popped task re-reads
      // frame.ready_list before Term, but watching costs one sweep visit
      // and makes a silently-terminated claim impossible to strand.
      watch_graph_held(node);
      out[got++] = t;
      continue;
    }
    // Claimed elsewhere (victim FIFO won the race). Fold a missed
    // completion immediately — its successors enter the popper's shard
    // now, ahead of younger releases, so oldest-ready order survives the
    // contention — otherwise watch it for the lazy sweep.
    if (!node->completed.load(std::memory_order_relaxed)) {
      if (t->load_state() == TaskState::kTerm) {
        ++missed_folds_;
        complete_node_graph_held(node, home);
      } else {
        watch_graph_held(node);
      }
    }
  }
  return got;
}

/// Pops `rank`'s oldest entry, or nullptr when the deque is empty. Caller
/// holds the shard's mutex — this is the one place split-mode pop
/// bookkeeping (deque + nready_) happens, shared by all three passes of
/// pop_entry_split so they cannot drift apart.
ReadyList::Node* ReadyList::take_front_shard_held(unsigned rank,
                                                  unsigned* from) {
  Shard& s = shards_[rank];
  if (s.q.empty()) return nullptr;
  Node* n = s.q.front();
  s.q.pop_front();
  nready_.fetch_sub(1, std::memory_order_relaxed);
  *from = rank;
  return n;
}

/// Pops one entry under shard locks only: the home shard with a blocking
/// lock (it is this domain's own lock — the common case is uncontended and
/// a busy hold is a neighbor about to finish), then every other shard via
/// try_lock in rank order (never stall on a remote domain's lock while it
/// serves its own traffic). Only when the full try pass produced nothing —
/// every other shard either empty or busy — does a pass fall back to
/// blocking locks, so a popper cannot spin past work pinned behind a
/// momentarily-held lock. Returns nullptr when every shard was seen empty.
ReadyList::Node* ReadyList::pop_entry_split(unsigned home, unsigned* from) {
  const unsigned ns = nshards();
  {
    std::lock_guard lock(shards_[home].mu);
    if (Node* n = take_front_shard_held(home, from)) return n;
  }
  bool any_busy = false;
  for (unsigned k = 1; k < ns; ++k) {
    const unsigned r = (home + k) % ns;
    Shard& s = shards_[r];
    if (!s.mu.try_lock()) {
      any_busy = true;
      continue;
    }
    std::lock_guard lock(s.mu, std::adopt_lock);
    if (Node* n = take_front_shard_held(r, from)) return n;
  }
  if (!any_busy) return nullptr;  // every shard inspected and empty
  // Blocking fallback. Any shard seen empty under its lock above — home
  // included: a completion may have routed successors there since the
  // entry probe — could by now hold work again, so the pass re-probes all
  // of them rather than tracking which try_lock failed. The extra
  // uncontended lock/unlock is cheaper than it sounds, and this path only
  // runs when the try pass came up dry with at least one shard busy.
  for (unsigned k = 0; k < ns; ++k) {
    const unsigned r = (home + k) % ns;
    std::lock_guard lock(shards_[r].mu);
    if (Node* n = take_front_shard_held(r, from)) return n;
  }
  return nullptr;
}

/// Claim-race handling off the split pop path (no shard lock held — the
/// entry was already popped): under graph_mu_, fold a silently-terminated
/// claim's completion into the popper's home shard, or put the still-
/// running claim under watch. The rare path: claim races only happen when
/// the owner's FIFO reached a task a combiner had queued.
void ReadyList::fold_or_watch(Node* n, unsigned home) {
  std::lock_guard lock(graph_mu_);
  if (n->completed.load(std::memory_order_relaxed)) return;  // settled
  if (n->task->load_state() == TaskState::kTerm) {
    ++missed_folds_;
    complete_node_any(n, home);
  } else {
    watch_graph_held(n);
  }
}

/// Split- and lockfree-mode batch pop: per-entry shard locking (split) or
/// mutex-free ring pops (lockfree), graph_mu_ only on the rare paths
/// (claim-race folds, the dry-list sweep, and one batched watch
/// registration before returning). The two modes share everything except
/// the per-entry pop primitive, so the claim-race / watch / sweep
/// machinery cannot drift between them.
std::size_t ReadyList::pop_batch_split(Task** out, std::size_t max,
                                       unsigned home,
                                       std::uint64_t* shard_hits,
                                       std::uint64_t* shard_misses,
                                       WorkerStats* stats) {
  std::size_t got = 0;
  bool swept = false;
  int dry_probes = 0;
  const unsigned ns = nshards();
  // Claim-success nodes awaiting watch registration, batched into one
  // graph_mu_ acquisition per kWatchBuf pops (one per call in practice:
  // batches are steal-k sized): the claimed tasks are handed out only when
  // this call returns, so none can run — let alone silently terminate —
  // before its watch entry exists.
  constexpr std::size_t kWatchBuf = 16;
  Node* to_watch[kWatchBuf];
  std::size_t nwatch = 0;
  auto flush_watches = [&] {
    if (nwatch == 0) return;
    std::lock_guard lock(graph_mu_);
    for (std::size_t i = 0; i < nwatch; ++i) watch_graph_held(to_watch[i]);
    nwatch = 0;
  };
  while (got < max) {
    if (nready_.load(std::memory_order_relaxed) == 0) {
      // One lazy catch-up pass over the watched (claimed-elsewhere) nodes
      // per call: fold in completions whose notification raced the attach.
      if (swept) break;
      swept = true;
      bool released;
      {
        std::lock_guard lock(graph_mu_);
        released = sweep_watch_graph_held(home);
      }
      if (!released) break;
      continue;
    }
    unsigned from = home;
    Node* node = lockfree_ ? pop_entry_lockfree(home, &from, stats)
                           : pop_entry_split(home, &from);
    if (node == nullptr) {
      // nready_ was stale: concurrent poppers drained the shards between
      // our read and our probes (or a push's count preceded visibility of
      // its entry). One clean retry, then report what we have — a missed
      // straggler is re-found by the next combiner round, and spinning
      // here against an active producer would hold up the whole deal.
      if (++dry_probes >= 2) break;
      continue;
    }
    dry_probes = 0;
    // Lockfree pops record inside pop_entry_lockfree (they know ring-vs-
    // side provenance); split-mode deque pops are uniform, record here.
    if (!lockfree_) obs::emit(obs::Ev::kRlPop, home, from, obs::kProvDeque);
    settle_queued(node);  // no-op for dead entries settled at completion
    Task* t = node->task;
    if (t->try_claim(TaskState::kStolenClaim)) {
      if (ns > 1) {  // single-shard runs report no telemetry (see global)
        if (from == home) {
          if (shard_hits != nullptr) ++*shard_hits;
        } else if (shard_misses != nullptr) {
          ++*shard_misses;
        }
      }
      if (nwatch == kWatchBuf) flush_watches();
      to_watch[nwatch++] = node;
      out[got++] = t;
      continue;
    }
    // Claimed elsewhere (victim FIFO won the race): settled entries are
    // skipped with a relaxed read; live races fold or watch under
    // graph_mu_ — taken here with no shard lock held (the lock order
    // graph_mu_ -> shard forbids the reverse nesting).
    if (!node->completed.load(std::memory_order_relaxed)) {
      fold_or_watch(node, home);
    }
  }
  flush_watches();
  return got;
}

/// Walks the watch deque once, dropping settled nodes and folding in
/// terminations whose on_complete never arrived (releases land in the
/// sweeping popper's `shard`). Returns true when the fold released at
/// least one task into a shard. Caller holds graph_mu_.
bool ReadyList::sweep_watch_graph_held(unsigned shard) {
  // The sweep's folds consult and mutate the graph; it is also the second
  // epoch boundary of the deferred-retirement scheme (extend is the
  // first) — drain before folding so a fold's released successors are
  // computed against a current interval index.
  if (lockfree_) drain_retired_graph_held();
  std::size_t released = 0;
  for (std::size_t n = watch_.size(); n > 0; --n) {
    Node* node = watch_.front();
    watch_.pop_front();
    if (node->completed.load(std::memory_order_relaxed)) {
      node->watched = false;  // notified normally; settled
      continue;
    }
    if (node->task->load_state() == TaskState::kTerm) {
      ++missed_folds_;
      node->watched = false;
      released += complete_node_any(node, shard);
      continue;
    }
    watch_.push_back(node);  // still in flight; keep watching, FIFO order
  }
  return released != 0;
}

std::size_t ReadyList::covered() const {
  std::lock_guard lock(graph_mu_);
  return covered_count_;
}

std::size_t ReadyList::edge_count() const {
  std::lock_guard lock(graph_mu_);
  return edges_;
}

std::size_t ReadyList::ready_size() const {
  return nready_.load(std::memory_order_relaxed);
}

std::size_t ReadyList::shard_ready_size(unsigned shard) const {
  if (shard >= nshards()) return 0;
  auto& self = *const_cast<ReadyList*>(this);
  if (lockfree_) {
    // Ring occupancy is a racy estimate by construction; the side deque
    // rides its mutex.
    std::lock_guard lock(self.shards_[shard].mu);
    return self.shards_[shard].ring->approx_size() +
           self.shards_[shard].q.size();
  }
  // Global mode guards the deques with graph_mu_, not the (unused) shard
  // mutexes — a no-op guard here would race writers under graph_mu_.
  std::unique_lock<std::mutex> graph_lock;
  if (!split_) graph_lock = std::unique_lock(self.graph_mu_);
  ShardGuard guard(self.shards_[shard], split_);
  return shards_[shard].q.size();
}

std::int64_t ReadyList::shard_live_depth(unsigned shard) const {
  if (shard >= nshards()) return 0;
  return shards_[shard].depth.load(std::memory_order_relaxed);
}

std::size_t ReadyList::watched_size() const {
  std::lock_guard lock(graph_mu_);
  return watch_.size();
}

std::size_t ReadyList::early_completion_count() const {
  std::lock_guard lock(graph_mu_);
  return early_completions_.size();
}

std::uint64_t ReadyList::missed_folds() const {
  std::lock_guard lock(graph_mu_);
  return missed_folds_;
}

std::size_t ReadyList::retire_pending() const {
  // graph_mu_ excludes the drain; concurrent pushes only prepend ahead of
  // the head we load, so the walked chain is stable.
  std::lock_guard lock(graph_mu_);
  std::size_t count = 0;
  for (const Node* n = retire_head_.load(std::memory_order_acquire);
       n != nullptr; n = n->retire_next) {
    ++count;
  }
  return count;
}

}  // namespace xk
