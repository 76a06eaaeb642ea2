#include "core/readylist.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "check/check.hpp"
#include "obs/trace.hpp"

namespace xk {

ReadyList::ReadyList(Frame& frame, unsigned nshards)
    : frame_(frame),
      frame_epoch_(frame.epoch()),
      shards_(std::max(nshards, 1u)) {}

ReadyList::~ReadyList() {
  // No lock: destruction is owner-only, after the Dekker handshake has
  // excluded every scanner and every task reached Term (see
  // Worker::recycle_frame / Frame::reset).
  if constexpr (check::kEnabled) verify_accounting_quiesced("~ReadyList");
}

void ReadyList::verify_accounting_quiesced(const char* where) {
  if constexpr (!check::kEnabled) {
    (void)where;
    return;
  }
  // Dead entries count on both sides — nready_ tracks deque occupancy,
  // not liveness.
  std::uint64_t entries = 0;
  for (const Shard& s : shards_) entries += s.q.size();
  const std::uint64_t counted = nready_;
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

/// Settles `n`'s depth contribution if it still has one. Called
/// right after a pop and at completion — whichever comes first wins; the
/// other sees -1 and does nothing.
void ReadyList::settle_queued(Node* n) {
  const std::int32_t q = n->queued;
  if (q < 0) return;
  n->queued = -1;
  shards_[static_cast<unsigned>(q)].depth.fetch_sub(1,
                                                    std::memory_order_relaxed);
}

/// Appends `n` to `shard`'s deque.
void ReadyList::push_ready_graph_held(Node* n, unsigned shard) {
  n->queued = static_cast<std::int32_t>(shard);
  shards_[shard].q.push_back(n);
  const std::int64_t depth =
      shards_[shard].depth.fetch_add(1, std::memory_order_relaxed) + 1;
  ++nready_;
  obs::emit(obs::Ev::kRlPush, shard,
            static_cast<std::uint64_t>(depth > 0 ? depth : 0));
}

void ReadyList::check_epoch_graph_held() {
  const std::uint64_t e = frame_.epoch();
  if (e == frame_epoch_) return;
  frame_epoch_ = e;
  reset_coverage_graph_held();
}

/// The frame recycled under this list: every Task* in the graph — and
/// every early-completion key — may now alias a *new* task bump-allocated
/// at the same arena address. Drop the whole coverage state (nodes, index,
/// shard deques, watch list, early completions, live intervals) and
/// restart from index 0 of the new incarnation. Without this, stale
/// `early_completions_` entries leak across sections: the map grows
/// without bound on a long-lived list whose sections end before extend()
/// reaches full coverage, and a leaked entry can mark an address-aliased
/// new task completed before it ever ran. A pop issued before the new
/// incarnation's first extend() must likewise not serve a prior-
/// incarnation entry, so every entry point checks the epoch.
///
/// Scope note: in-tree this path is defensive — a frame recycles at every
/// drain, but Frame::reset() deletes the attached list first, so only a
/// list owned *outside* the frame (the test-suite idiom, or an embedder
/// holding its own list) ever observes a recycle. The check makes the
/// list's lifetime contract self-contained; its steady-state cost is one
/// epoch compare per public entry point.
void ReadyList::reset_coverage_graph_held() {
  if constexpr (check::kEnabled) verify_accounting_quiesced("reset_coverage");
  for (Node& n : nodes_) settle_queued(&n);
  for (Shard& s : shards_) s.q.clear();
  nready_ = 0;
  nodes_.clear();
  index_.clear();
  early_completions_.clear();
  watch_.clear();
  live_.clear();
  max_span_ = 0;
  edges_ = 0;
  covered_count_ = 0;
}

void ReadyList::extend(unsigned shard) {
  // Cap the per-round coverage growth: extend() runs inside the victim's
  // scanning window, and the frame owner's recycle waits that window out —
  // covering a 100k-task frame in one go would stall the owner for the whole
  // build. Remaining tasks are covered by subsequent combiner rounds.
  constexpr std::uint32_t kMaxPerRound = 2048;
  std::lock_guard lock(graph_mu_);
  shard = wrap_shard(shard);
  check_epoch_graph_held();
  const std::uint32_t published = frame_.size_acquire();
  if (covered_count_ >= published) return;
  Frame::Iterator it(frame_);
  it.seek(covered_count_);
  for (std::uint32_t added = 0;
       covered_count_ < published && added < kMaxPerRound; ++added) {
    add_node_graph_held(it.get(), shard);
    it.advance();
    ++covered_count_;
  }
}

void ReadyList::watch_graph_held(Node* n) {
  if (n->watched) return;  // already on the watch deque: one entry suffices
  n->watched = true;
  watch_.push_back(n);
}

void ReadyList::add_node_graph_held(Task* t, unsigned shard) {
  nodes_.emplace_back();
  Node* node = &nodes_.back();
  node->task = t;
  index_.emplace(t, node);

  // A task that already completed before coverage: record and move on.
  const TaskState s = t->load_state();
  if (s == TaskState::kTerm || early_completions_.count(t) != 0) {
    node->completed = true;
    early_completions_.erase(t);
    return;
  }
  // Covered while already claimed: it may have loaded frame.ready_list
  // before the attach and thus terminate without notifying — watch it so
  // the lazy sweep folds the completion in.
  if (s != TaskState::kInit) watch_graph_held(node);

  // Count conflicts against live (non-completed) predecessors' accesses.
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
      if (!e.node->completed) {
        e.node->successors.push_back(node);
        ++node->npred;
        ++edges_;
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

  if (node->npred == 0) queue_or_watch_graph_held(node, shard);
}

/// Initially-ready node: no predecessor completion will ever release it.
/// Queued in the covering combiner's `shard` if still unclaimed; a claim
/// landing after this check just produces a queued-while-claimed entry,
/// absorbed by the pop path's claim-race fold/watch machinery. A node
/// claimed since add_node's first state check is watched instead: its
/// claimer may terminate it without notifying, and with nothing queued and
/// no predecessor left, only the watch sweep can fold that completion in
/// (without it the node's successors were never released).
void ReadyList::queue_or_watch_graph_held(Node* n, unsigned shard) {
  if (n->task->load_state() == TaskState::kInit) {
    push_ready_graph_held(n, shard);
  } else {
    watch_graph_held(n);
  }
}

/// Drops one live interval ahead of its owner's completion (the
/// superseding-writer rule in add_node_graph_held). The owner's live_refs
/// slot becomes a live_.end() tombstone; erase_live_refs skips it.
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

void ReadyList::on_complete(Task* t, unsigned shard) {
  std::lock_guard lock(graph_mu_);
  shard = wrap_shard(shard);
  check_epoch_graph_held();
  auto found = index_.find(t);
  if (found == index_.end()) {
    early_completions_.emplace(t, true);
    return;
  }
  complete_node_graph_held(found->second, shard);
}

/// Marks the node done, settles its depth, retires its live-access
/// intervals, then releases successors whose last predecessor this was
/// into `shard` (producer-side routing: the finisher's domain just wrote
/// their inputs). Returns the number of successors released.
std::size_t ReadyList::complete_node_graph_held(Node* n, unsigned shard) {
  if (n->completed) return 0;
  n->completed = true;
  // A node can complete while still sitting in a shard deque (the owner's
  // FIFO claimed and ran it); its entry stays queued as a dead one until a
  // pop discards it, but its live depth must not — phantom depth would
  // send the owner's help loop after work that is not there.
  settle_queued(n);
  erase_live_refs_graph_held(n);
  std::size_t released = 0;
  for (Node* succ : n->successors) {
    // Every (pred, succ) conflict edge pairs one increment at coverage
    // with one decrement at the predecessor's single completion; the
    // zero probe is defensive.
    XK_EXPECT(rl_npred_underflow, succ->npred != 0);
    if (succ->npred == 0) continue;
    if (--succ->npred != 0 || succ->completed) continue;
    push_ready_graph_held(succ, shard);
    ++released;
  }
  n->successors.clear();
  return released;
}

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
                                               std::uint64_t* shard_misses) {
  std::lock_guard lock(graph_mu_);
  shard = wrap_shard(shard);
  check_epoch_graph_held();
  return pop_batch_graph_held(out, max, shard, shard_hits, shard_misses);
}

/// The batch pop: claim-race folds inline, at most one lazy watch sweep
/// per call.
std::size_t ReadyList::pop_batch_graph_held(Task** out, std::size_t max,
                                            unsigned home,
                                            std::uint64_t* shard_hits,
                                            std::uint64_t* shard_misses) {
  std::size_t got = 0;
  bool swept = false;
  const unsigned ns = nshards();
  while (got < max) {
    if (nready_ == 0) {
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
    --nready_;
    obs::emit(obs::Ev::kRlPop, home, shard);
    settle_queued(node);  // no-op for dead entries settled at completion
    Task* t = node->task;
    if (t->try_claim(TaskState::kStolenClaim)) {
      // The hit/miss split is only meaningful when there is more than one
      // shard; on a flat machine's single shard every pop would count as a
      // hit and read as a perfectly-local sharded run.
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
    if (!node->completed) {
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

/// Walks the watch deque once, dropping settled nodes and folding in
/// terminations whose on_complete never arrived (releases land in the
/// sweeping popper's `shard`). Returns true when the fold released at
/// least one task into a shard.
bool ReadyList::sweep_watch_graph_held(unsigned shard) {
  std::size_t released = 0;
  for (std::size_t n = watch_.size(); n > 0; --n) {
    Node* node = watch_.front();
    watch_.pop_front();
    if (node->completed) {
      node->watched = false;  // notified normally; settled
      continue;
    }
    if (node->task->load_state() == TaskState::kTerm) {
      ++missed_folds_;
      node->watched = false;
      released += complete_node_graph_held(node, shard);
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
  std::lock_guard lock(graph_mu_);
  return nready_;
}

std::size_t ReadyList::shard_ready_size(unsigned shard) const {
  if (shard >= nshards()) return 0;
  std::lock_guard lock(graph_mu_);
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

}  // namespace xk
