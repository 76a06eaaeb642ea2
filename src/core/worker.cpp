// Worker implementation: FIFO owner execution, the steal protocol with
// request aggregation, incremental steal-time readiness computation,
// renaming, idle parking, and the ready-list integration.
// See worker.hpp for the protocol overview.
#include "core/worker.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/adaptive.hpp"
#include "core/readylist.hpp"
#include "core/runtime.hpp"
#include "obs/trace.hpp"

namespace xk {

namespace {

/// Checked-build guard for the plain (non-CAS) task state stores: loads
/// the prior state and asserts the edge against the claim/commit table
/// (task.hpp). The CAS transitions need no guard — their from-state is
/// part of the exchange. Compiles to nothing without XK_CHECK=ON.
inline void check_task_store(Task* t, TaskState next) {
  if constexpr (check::kEnabled) {
    const TaskState prev = t->load_state(std::memory_order_relaxed);
    XK_EXPECT(task_transition, task_transition_ok(prev, next),
              static_cast<std::uint64_t>(prev),
              static_cast<std::uint64_t>(next));
    (void)prev;  // XK_EXPECT is a no-op in the discarded-branch compile
  }
  (void)t;
  (void)next;
}

/// Failed local-tier steal rounds before a thief widens its victim draw to
/// remote locality domains. Each failed round costs a yield (see
/// try_steal_once), so the budget bounds how long a thief stays loyal to a
/// dry domain while its work sits elsewhere.
constexpr int kLocalStealTries = 4;
}  // namespace

Worker::Worker(Runtime& rt, unsigned id, unsigned nworkers)
    : rt_(rt),
      id_(id),
      reclaim_enabled_(!rt.config().renaming),
      svc_(&rt.service_),
      work_parker_(&rt.work_parker()),
      frames_(kMaxDepth),
      reqbox_(nworkers),
      scan_state_(kMaxDepth),
      rng_(0x853c49e6748fea9bULL ^ (id * 0x9e3779b97f4a7c15ULL)) {
  // Locality snapshot: Runtime computes the placement (and sizes the
  // occupancy board) before constructing any worker, so the victim
  // ordering and the board pointer are stable for the runtime's life.
  const Placement& pl = rt.placement();
  if (id_ < pl.slots.size()) {
    domain_ = pl.slots[id_].domain;
    domain_rank_ = pl.slots[id_].domain_rank;
  }
  VictimOrder vo = steal_victim_order(pl, id_);
  victim_order_ = std::move(vo.order);
  nlocal_victims_ = vo.nlocal;
  occupancy_ = &rt.occupancy();
  deterministic_victims_ = pl.deterministic;
  victim_rr_ = id_;  // stagger rotating thieves off a common first victim
}

Worker::~Worker() = default;

// ---------------------------------------------------------------------------
// Frame stack: owner push / Dekker-protected recycle (see worker.hpp).
// ---------------------------------------------------------------------------

void Worker::frame_overflow() {
  throw std::runtime_error("xk: frame stack overflow");
}

void Worker::publish_occupancy(bool occupied) {
  // Published after the depth store on push: a thief that sees the bit and
  // probes finds the frame already there.
  const unsigned folds = occupancy_->publish_occupied(id_, occupied);
  stats_->quiesce_folds += folds;
  if (folds != 0) obs::emit(obs::Ev::kQuiesceFold, folds, occupied ? 1 : 0);
}

void Worker::recycle_frame(Frame& f, std::uint32_t d) {
  // seq_cst on both sides of the Dekker handshake (store-buffering litmus):
  // a combiner sets scanning_ (seq_cst) before reading depth_ (seq_cst).
  // Either it sees the lowered depth and never touches this frame, or we
  // see scanning_ true here and wait the scan out before recycling the
  // frame's memory. Neither store may be demoted: with plain release the
  // combiner's depth load and our scanning_ load could both read the old
  // values and the frame would be reset under a live scan.
  depth_.store(d - 1, std::memory_order_seq_cst);
  while (scanning_.load(std::memory_order_seq_cst)) {
    std::this_thread::yield();
  }
  if (f.steal_claimed()) {
    // Join-side reclaim can terminate a steal-claimed task before the
    // thief holding its reply consumed it; drain in-flight replies so no
    // stale pointer into this frame survives the reset. Bounded: a thief
    // with a Served slot is spinning on exactly that slot, and replies
    // produced after the Dekker handshake cannot reference this frame.
    for (auto& slot : reqbox_) {
      while (slot.value.status.load(std::memory_order_acquire) ==
             StealRequest::kServed) {
        std::this_thread::yield();
      }
    }
  }
  f.reset();
  // Republish the frame. Release, as in push_frame: a combiner that reads
  // depth d acquires the reset (new epoch, empty chunk list, no list).
  depth_.store(d, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Owner-side execution.
// ---------------------------------------------------------------------------

namespace {

/// Commits renamed writes in program order and frees the records.
void commit_renames(Task* t) {
  RenameRecord* r = t->renames;
  while (r != nullptr) {
    std::memcpy(r->target, r->buffer, r->bytes);
    RenameRecord* next = r->next;
    delete[] static_cast<unsigned char*>(r->buffer);
    delete r;
    r = next;
  }
  t->renames = nullptr;
}

/// Locks (in address order) the serialization guards of a task's
/// cumulative-write regions for the duration of the body. Two CW tasks on
/// the same region are scheduler-independent; this guard keeps their bodies
/// from interleaving (see Runtime::cw_guard).
class CwBodyGuard {
 public:
  CwBodyGuard(Runtime& rt, const Task& t) {
    for (std::uint32_t i = 0; i < t.naccesses; ++i) {
      const Access& a = t.accesses[i];
      if (a.mode == AccessMode::kCumulWrite) {
        locks_.push_back(&rt.cw_guard(a.region.base));
      }
    }
    std::sort(locks_.begin(), locks_.end());
    locks_.erase(std::unique(locks_.begin(), locks_.end()), locks_.end());
    for (std::mutex* m : locks_) m->lock();
  }
  ~CwBodyGuard() {
    for (auto it = locks_.rbegin(); it != locks_.rend(); ++it) (*it)->unlock();
  }

 private:
  std::vector<std::mutex*> locks_;
};

}  // namespace

void Worker::run_task(Task* t, Frame* src, bool stolen) {
  if (stolen) {
    // The caller already won the StolenClaim -> RunThief CAS (the second
    // arbitration point against a frame owner's reclaim; see
    // try_steal_once and wait_and_finalize).
    stats_->tasks_run_thief++;
  } else {
    stats_->tasks_run_owner++;
  }
  // The task span covers body + child drain (the frame's lifetime), not
  // the rename-commit / successor-release tail — that tail is what the
  // steal/ready events attribute.
  const std::uint64_t span_t0 = obs::span_begin();
  push_frame();
  try {
    if (t->has_cw) [[unlikely]] {
      CwBodyGuard guard(rt_, *t);
      t->body(t->args, *this);
    } else {
      t->body(t->args, *this);
    }
  } catch (...) {
    t->exception = std::current_exception();
  }
  if (t->splitter != nullptr) {
    t->splitter_armed.store(false, std::memory_order_release);
  }
  check_task_store(
      t, stolen ? TaskState::kBodyDoneThief : TaskState::kBodyDoneOwner);
  t->state.store(stolen ? TaskState::kBodyDoneThief : TaskState::kBodyDoneOwner,
                 std::memory_order_release);
  try {
    drain_current_frame();
  } catch (...) {
    if (!t->exception) t->exception = std::current_exception();
  }
  pop_frame();
  obs::emit_span(stolen ? obs::Ev::kTaskThief : obs::Ev::kTaskOwner, span_t0,
                 depth_.load(std::memory_order_relaxed));

  if (stolen && t->renames != nullptr) {
    // The body wrote into rename buffers; the frame owner commits them in
    // program order (wait_and_finalize) and publishes Term. seq_cst store:
    // half of the no-lost-wakeup pairing with the owner's registration
    // (see wake_joiner, which execute_reply calls next).
    check_task_store(t, TaskState::kCommitReady);
    t->state.store(TaskState::kCommitReady, std::memory_order_seq_cst);
    return;
  }
  if (!stolen && t->renames != nullptr) {
    // Reclaimed after the combiner applied renaming: the drain is in-order,
    // so every program-order predecessor already terminated and the renamed
    // writes can land immediately.
    commit_renames(t);
  }
  if (src != nullptr) {
    if (ReadyList* rl = src->ready_list.load(std::memory_order_acquire)) {
      // Before Term (see ReadyList locking notes); released successors
      // join this worker's domain shard — it just wrote their inputs.
      rl->on_complete(t, domain_rank_);
    }
  }
  check_task_store(t, TaskState::kTerm);
  t->state.store(TaskState::kTerm,
                 stolen ? std::memory_order_seq_cst
                        : std::memory_order_release);
  if (stolen) {
    // The completion may have released dataflow successors into the ready
    // list above, which is new stealable work: ping one idle thief through
    // the standard (rate-limited) work wake. The frame owner, which may be
    // suspended on exactly this task, is woken by execute_reply.
    rt_.notify_work();
  }
}

void Worker::wake_joiner(Worker& owner, Task* t) {
  // Runs after this thief's final seq_cst state store. `t` is used only
  // as a pointer *value* from here on — the owner may observe that store,
  // return from its join and recycle the descriptor's arena block at any
  // moment, so dereferencing it again would race with the reuse. The
  // owner's stable join cell is read instead: a seq_cst load paired with
  // the owner's seq_cst registration store, so either this load observes
  // the registration (and the wake lands) or the owner's seq_cst state
  // re-check is ordered after our final state store and it never parks on
  // a completed task. Only the frame owner can be registered on a task of
  // its frame, so no other worker's cell needs a look.
  if (owner.join_target_.load(std::memory_order_seq_cst) == t) {
    stats_->join_wakes++;
    owner.wake();
  }
}

void Worker::drain_current_frame() {
  Frame& f = current_frame();
  std::exception_ptr first_exc;
  for (;;) {
    const std::uint32_t n = f.size_relaxed();
    if (f.exec_cursor() >= n) break;
    Task* t = f.exec_current();
    f.exec_advance();
    if (t->try_claim(TaskState::kRunOwner)) {
      run_task(t, &f, /*stolen=*/false);
    } else {
      wait_and_finalize(t, f);
    }
    if (t->exception) {
      if (!first_exc) first_exc = t->exception;
      // Arena-allocated descriptors are recycled without destruction; drop
      // the exception_ptr reference here so it cannot leak.
      t->exception = nullptr;
    }
  }
  // Every task reached Term: recycle in place, so a section that loops
  // spawn+sync (a time loop, say) reuses one arena.
  if (!f.pristine()) recycle_frame(f, depth_.load(std::memory_order_relaxed));
  if (first_exc) std::rethrow_exception(first_exc);
}

void Worker::wait_and_finalize(Task* t, Frame& f) {
  TaskState s = t->load_state();
  // Settled already: a thief finished it, or this worker ran it while it
  // helped from the frame's ready list (help_from_ready_list).
  if (s == TaskState::kTerm) return;
  // Reclaim: if the steal side claimed this descriptor but no thief has
  // started it (the reply may be parked at a busy or descheduled worker),
  // take it back and run it inline — this is exactly the task the drain is
  // idle waiting for, so running it here is optimal for the critical path.
  // Disabled under renaming: a combiner applies renaming *after* winning
  // the claim CAS, so a reclaim could start the body while the combiner is
  // still rewriting the argument pointers; without renaming the descriptor
  // is immutable once published and the reclaim is race-free.
  if (reclaim_enabled_ && s == TaskState::kStolenClaim &&
      t->state.compare_exchange_strong(s, TaskState::kRunOwner,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
    stats_->steal_reclaims++;
    run_task(t, &f, /*stolen=*/false);
    return;
  }
  // Register the task in this worker's own join cell, then steal (and
  // eventually park on this worker's own parker) until the thief parks the
  // task in a final state. The registration is re-asserted on *every*
  // predicate evaluation: stolen work executed inside steal_until may
  // itself sync and overwrite the cell with a nested wait, and the
  // re-store restores the outer registration before the next park. Both
  // thief-side final transitions are seq_cst stores followed by a seq_cst
  // load of this cell (wake_joiner); the seq_cst registration + seq_cst
  // predicate load close the store-buffering window, so either the
  // thief's load sees the registration (wake lands) or this load sees the
  // final state (never parks) — the park timeout remains only as the
  // generic backstop.
  //
  // A frame with a ready list is this worker's own schedule: the owner
  // pops from it before stealing anywhere else, and the steal loop hands
  // back to the list whenever it holds ready work again.
  for (;;) {
    if (help_from_ready_list(t, f)) break;
    bool list_ready = false;
    steal_until([&] {
      join_target_.store(t, std::memory_order_seq_cst);
      const TaskState cur = t->load_state(std::memory_order_seq_cst);
      if (cur == TaskState::kTerm || cur == TaskState::kCommitReady) {
        list_ready = false;
        return true;
      }
      list_ready = own_ready_list(f) != nullptr;
      return list_ready;
    });
    if (!list_ready) break;
  }
  // xk-order: deregistration only — the seq_cst *registration* store is
  // the half of the no-lost-wakeup pairing that matters; a thief reading
  // a stale non-null target sends one spurious (benign) wake.
  join_target_.store(nullptr, std::memory_order_relaxed);
  if (t->load_state() == TaskState::kCommitReady) {
    // All program-order predecessors terminated (the drain is in-order),
    // so the renamed writes can land on their true targets.
    commit_renames(t);
    if (ReadyList* rl = f.ready_list.load(std::memory_order_acquire)) {
      rl->on_complete(t, domain_rank_);
    }
    check_task_store(t, TaskState::kTerm);
    t->state.store(TaskState::kTerm, std::memory_order_release);
  }
}

ReadyList* Worker::own_ready_list(Frame& f) {
  if (depth_.load(std::memory_order_relaxed) > kMaxDepth - 64) return nullptr;
  ReadyList* rl = f.ready_list.load(std::memory_order_acquire);
  return rl != nullptr && rl->approx_ready() > 0 ? rl : nullptr;
}

bool Worker::help_from_ready_list(Task* t, Frame& f) {
  for (;;) {
    const TaskState cur = t->load_state();
    if (cur == TaskState::kTerm || cur == TaskState::kCommitReady) return true;
    ReadyList* rl = own_ready_list(f);
    if (rl == nullptr) return false;
    // One popper per list at a time: combiners pop this frame's list only
    // while holding this worker's steal mutex, and so does the owner. A
    // busy mutex means a combiner is dealing from the list right now.
    if (!steal_mutex_.try_lock()) {
      std::this_thread::yield();
      continue;
    }
    Task* r = rl->pop_ready_claimed(domain_rank_, &stats_->shard_hits,
                                    &stats_->shard_misses);
    steal_mutex_.unlock();
    if (r == nullptr) return false;
    stats_->readylist_pops++;
    // The pop left the task StolenClaim with no reply slot holding it, so
    // the reclaim edge cannot lose. A body exception stays on the
    // descriptor until the drain's cursor reaches it, which keeps sync's
    // rethrow in program order.
    TaskState claimed = TaskState::kStolenClaim;
    [[maybe_unused]] const bool won = r->state.compare_exchange_strong(
        claimed, TaskState::kRunOwner, std::memory_order_acq_rel,
        std::memory_order_acquire);
    assert(won);
    run_task(r, &f, /*stolen=*/false);
  }
}

// ---------------------------------------------------------------------------
// Thief side: request posting, combining, readiness.
// ---------------------------------------------------------------------------

Worker* Worker::pick_victim(bool& local_phase) {
  const auto nv = static_cast<unsigned>(victim_order_.size());
  local_phase = nlocal_victims_ != 0 && nlocal_victims_ != nv &&
                local_fails_ < kLocalStealTries;
  // The draw never lands on this worker: victim_order_ excludes self by
  // construction, so the first probe is always a real victim (the old flat
  // draw could burn its start slot on self and fall through to the busy
  // scan). Synthetic topologies rotate deterministically so tests can
  // predict the probe sequence; real machines keep the random start.
  const unsigned turn = deterministic_victims_
                            ? victim_rr_++
                            : static_cast<unsigned>(rng_.next());
  // Tier 1: the local tier, rotated start within it. Probing tiers in
  // order (rather than one draw over the whole vector) is what makes the
  // preference strict: a busy same-domain victim always beats a remote
  // one, even after escalation. On a flat machine every victim is local,
  // so this tier is the whole draw.
  if (nlocal_victims_ != 0) {
    const unsigned start = turn % nlocal_victims_;
    for (unsigned k = 0; k < nlocal_victims_; ++k) {
      Worker& v =
          rt_.worker(victim_order_[(start + k) % nlocal_victims_]);
      if (probe_victim(v)) return &v;
    }
  }
  if (local_phase) return nullptr;  // escalation not yet earned
  // Tier 2: remote domains, rotated start within the remote slice.
  const unsigned nremote = nv - nlocal_victims_;
  if (nremote == 0) return nullptr;
  const unsigned start = turn % nremote;
  for (unsigned k = 0; k < nremote; ++k) {
    Worker& v = rt_.worker(
        victim_order_[nlocal_victims_ + (start + k) % nremote]);
    if (probe_victim(v)) return &v;
  }
  return nullptr;
}

bool Worker::try_run_job() { return jobs_waiting() && svc_->try_run(*this); }

bool Worker::jobs_waiting() const {
  return depth_.load(std::memory_order_relaxed) <= kMaxDepth - 64 &&
         svc_->jobs_waiting();
}

bool Worker::try_steal_once() {
  // Master slots count as victims (and thieves): a one-worker pool with a
  // service section open still moves work between the two.
  const unsigned nw = rt_.nworkers_total();
  if (nw < 2) return false;
  // Helping while suspended nests the stolen subtree on this C++ stack;
  // refuse new work near the frame-stack ceiling and just wait instead.
  if (depth_.load(std::memory_order_relaxed) > kMaxDepth - 64) return false;
  bool local_phase = false;
  Worker* victim = pick_victim(local_phase);
  if (victim == nullptr) {
    // An idle local tier counts as a failed local round: kLocalStealTries
    // such rounds escalate the draw to remote domains (work may all be
    // remote while this domain drains). Each failed round costs a yield —
    // without it the escalation budget burns in a handful of relaxed loads
    // and the local preference is meaningless; with it, a runnable peer
    // that is about to publish (or a closer thief racing for the same
    // remote victim) gets the cpu first.
    if (local_phase) {
      ++local_fails_;
      std::this_thread::yield();
    }
    return false;
  }
  stats_->steal_attempts++;
  // Steal round-trip span: request post -> reply consumed. Started before
  // the post so combiner self-election time is attributed to the request.
  const std::uint64_t req_t0 = obs::span_begin();

  StealRequest& slot = victim->request_slot(id_);
  // Idle = nothing on the frame stack (a pure thief). A suspended owner
  // helping while it waits still holds runnable work, so scarce combiners
  // serve it last.
  slot.idle = depth_.load(std::memory_order_relaxed) == 0;
  // Release suffices (down from seq_cst): the combiner's acquire load of
  // the status sees the idle bit above, and a combiner that misses the
  // post entirely is benign — the thief keeps spinning and, when the mutex
  // frees up, elects itself and serves its own slot.
  slot.status.store(StealRequest::kPosted, std::memory_order_release);

  int spins = 0;
  for (;;) {
    const int s = slot.status.load(std::memory_order_acquire);
    if (s == StealRequest::kServed) {
      // Start-claim the reply (StolenClaim -> RunThief) *while the slot is
      // still Served*: the victim's frame recycle treats a Served slot as a
      // live reference into its frames, and a task we won cannot reach
      // Term without us, pinning its frame past this point. A task whose
      // CAS fails was reclaimed by the frame owner (wait_and_finalize) —
      // drop it before the slot clears and never touch it again. A fresh
      // splitter reply (heap task, no frame) is unclaimed and ours alone.
      Task* const t = slot.reply;
      Frame* const fr = slot.reply_frame;
      TaskState expected = TaskState::kStolenClaim;
      const bool won =
          (t->heap_owned() && fr == nullptr) ||
          t->state.compare_exchange_strong(expected, TaskState::kRunThief,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire);
      // Release: the victim's recycle_frame acquires this store when draining
      // in-flight replies before a frame reset (stale-reply protection).
      slot.status.store(StealRequest::kEmpty, std::memory_order_release);
      stats_->steals_ok++;
      if (won) stats_->steal_tasks++;
      const bool remote = victim->domain() != domain_;
      if (remote) {
        stats_->steals_remote++;
      } else {
        stats_->steals_local++;
      }
      obs::emit_span(obs::Ev::kStealServed, req_t0, victim->id(), won ? 1 : 0,
                     remote ? 1 : 0);
      // Any success re-engages the local-first preference.
      local_fails_ = 0;
      if (won) execute_reply(t, fr, *victim);
      return true;
    }
    if (s == StealRequest::kFailed) {
      // xk-order: recycling the thief's own reply slot after the verdict
      // acquire-load above; the next request's posting store re-publishes
      // the slot with its own release edge.
      slot.status.store(StealRequest::kEmpty, std::memory_order_relaxed);
      obs::emit_span(obs::Ev::kStealFailed, req_t0, victim->id());
      if (local_phase) ++local_fails_;
      return false;
    }
    if (try_combine(*victim)) continue;  // our slot is now Served or Failed
    if (++spins > 64) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

bool Worker::try_combine(Worker& victim) {
  if (!victim.steal_mutex_.try_lock()) return false;
  victim.scanning_.store(true, std::memory_order_seq_cst);
  combine_on(victim);
  victim.scanning_.store(false, std::memory_order_release);
  victim.steal_mutex_.unlock();
  return true;
}

void Worker::execute_reply(Task* t, Frame* src, Worker& victim) {
  if (t->heap_owned() && src == nullptr) {
    // Splitter-produced task (fresh, unclaimed, owned by no frame yet):
    // host it in a fresh frame of this stack so it is visible to further
    // steals/splits, then run it like a local child. A heap task WITH a
    // source frame is one stolen out of the frame already hosting it —
    // re-hosting it would give it two owning frames (double delete at
    // reset), so it runs below as a regular stolen descriptor instead.
    Frame& f = push_frame();
    f.push_task(t);
    try {
      drain_current_frame();
    } catch (...) {
      // Adaptive tasks own their error reporting (e.g. the foreach body
      // captures user exceptions into the loop's shared state); an exception
      // escaping here has already been recorded on the task.
    }
    pop_frame();
  } else {
    // Every reply comes from `victim`'s frames, and only that frame's
    // owner can be joined on it: the rule wake_joiner's O(1) wake rests on.
    assert(src >= victim.frames_.data() &&
           src < victim.frames_.data() + victim.frames_.size());
    run_task(t, src, /*stolen=*/true);
    wake_joiner(victim, t);
  }
}

namespace {

/// Conflict check of candidate `t` against one predecessor. Updates
/// `false_only` (starts true): stays true only while every conflict is a
/// breakable WAR/WAW against a renameable contiguous Write access of `t`.
bool conflicts_with(const Task& pred, const Task& t, bool& false_only) {
  bool any = false;
  for (std::uint32_t i = 0; i < pred.naccesses; ++i) {
    for (std::uint32_t j = 0; j < t.naccesses; ++j) {
      const Access& pa = pred.accesses[i];
      const Access& ta = t.accesses[j];
      if (!accesses_conflict(pa, ta)) continue;
      any = true;
      const bool breakable = ta.mode == AccessMode::kWrite &&
                             ta.region.runs == 1 &&
                             ta.arg_offset != kNoArgOffset &&
                             conflict_is_false_dependency(pa, ta);
      if (!breakable) false_only = false;
    }
  }
  return any;
}

/// Redirects every contiguous Write access of a claimed task to a fresh
/// buffer; the frame owner commits the buffers in program order.
void apply_renaming(Task& t) {
  for (std::uint32_t j = 0; j < t.naccesses; ++j) {
    const Access& a = t.accesses[j];
    if (a.mode != AccessMode::kWrite || a.region.runs != 1 ||
        a.arg_offset == kNoArgOffset) {
      continue;
    }
    auto* buffer = new unsigned char[a.region.run_bytes];
    auto* rec = new RenameRecord{reinterpret_cast<void*>(a.region.base), buffer,
                                 a.region.run_bytes, t.renames};
    t.renames = rec;
    *reinterpret_cast<void**>(static_cast<char*>(t.args) + a.arg_offset) =
        buffer;
  }
}

/// Is a claimed (non-Init) task still interesting to future scans? Pure
/// fork-join descriptors stop mattering the moment their claim settles —
/// they block nobody and can never be claimed again — unless a splitter may
/// still be invoked on them.
bool entry_retired(const Task& t, TaskState s) {
  if (s == TaskState::kTerm || s == TaskState::kBodyDoneOwner) return true;
  return s != TaskState::kInit && t.naccesses == 0 && !t.splittable();
}

}  // namespace

void Worker::refresh_scan_state(FrameScanState& fs, Frame& f) {
  const std::uint64_t fe = f.epoch();
  if (fs.epoch != fe) {
    // The frame was recycled since we last saw it (or never seen): every
    // cached pointer is stale. Restart from index 0 of this incarnation.
    fs.epoch = fe;
    fs.ingested = 0;
    fs.listed_round = 0;
    fs.entries.clear();
    stats_->scan_rebuilds++;
  }
  const std::uint32_t published = f.size_acquire();
  if (fs.ingested >= published) return;
  Frame::Iterator it(f);
  it.seek(fs.ingested);
  for (std::uint32_t i = fs.ingested; i < published; ++i, it.advance()) {
    Task* t = it.get();
    // Ingest-time filter: tasks that already settled never enter the cache.
    if (!entry_retired(*t, t->load_state())) {
      fs.entries.push_back(FrameScanState::Entry{t, i});
    }
  }
  fs.ingested = published;
}

FrameScanState& Worker::ensure_scan_lists(Worker& victim, std::uint32_t d,
                                          std::uint64_t round) {
  FrameScanState& fs = victim.scan_state_[d];
  if (fs.listed_round == round) return fs;
  refresh_scan_state(fs, victim.frame_at(d));
  fs.listed_round = round;
  fs.thief_side.clear();
  fs.strong.clear();
  std::size_t w = 0;
  for (const FrameScanState::Entry& e : fs.entries) {
    const TaskState s = e.task->load_state();
    if (entry_retired(*e.task, s)) {
      stats_->scan_retired++;
      continue;
    }
    if (e.task->naccesses != 0) {
      switch (s) {
        case TaskState::kStolenClaim:
        case TaskState::kRunThief:
        case TaskState::kBodyDoneThief:
        case TaskState::kCommitReady:
          fs.thief_side.push_back(e.task);
          fs.strong.push_back(e.task);
          break;
        case TaskState::kInit:
        case TaskState::kRunOwner:
          fs.strong.push_back(e.task);
          break;
        default:
          break;  // unreachable: retired above
      }
    }
    fs.entries[w++] = e;
  }
  fs.entries.resize(w);
  return fs;
}

/// Readiness of candidate `t` in frame `d` given the already-walked live
/// prefix of its own frame. Scans all program-order predecessors still in
/// flight (§II-C "traversal of the victim stack from the top most task (the
/// oldest), to look all its predecessors have been completed").
///
/// Predecessor rules (see task.hpp for the state rationale):
///   frames < d : only thief-side tasks precede the candidate (Init tasks
///                there run after the whole subtree; RunOwner/BodyDoneOwner
///                are its ancestors);
///   frame == d : every earlier, still-blocking sibling precedes it (the
///                `prefix` scratch built by the candidate walk);
///   frames > d : every blocking task precedes it (descendants of an earlier
///                sibling).
///
/// Cross-frame lists are pulled lazily per consulted frame and memoized for
/// the round; a single-frame dataflow program therefore never pays for a
/// cross-frame sweep at all. Sound under state monotonicity + the
/// hierarchical-dataflow contract: a blocker observed late can only have
/// *stopped* blocking, and children published after a list was built are
/// covered by their still-listed running ancestor's declared accesses.
Readiness Worker::check_ready(Worker& victim, std::uint64_t round,
                              std::uint32_t depth, std::uint32_t d,
                              const std::vector<const Task*>& prefix,
                              const Task& t) {
  if (t.naccesses == 0) return Readiness::kReady;
  bool blocked = false;
  bool false_only = true;
  for (std::uint32_t f = 0; f < d; ++f) {
    const FrameScanState& fs = ensure_scan_lists(victim, f, round);
    for (const Task* p : fs.thief_side) {
      blocked |= conflicts_with(*p, t, false_only);
    }
  }
  for (const Task* p : prefix) {
    blocked |= conflicts_with(*p, t, false_only);
  }
  for (std::uint32_t f = d + 1; f < depth; ++f) {
    const FrameScanState& fs = ensure_scan_lists(victim, f, round);
    for (const Task* p : fs.strong) {
      blocked |= conflicts_with(*p, t, false_only);
    }
  }
  if (!blocked) return Readiness::kReady;
  return false_only ? Readiness::kFalseOnly : Readiness::kBlocked;
}

// Batch-pops from the frame's ready list into the reply pool. A short (even
// empty) batch is fine: the deal serves whatever the pool holds, an
// unserved thief's request simply fails and is re-posted, and the next
// combiner round re-pours.
void Worker::pour_ready_list(ReadyList& rl, Frame& f,
                             std::size_t pool_target) {
  if (reply_scratch_.size() >= pool_target) return;
  batch_scratch_.resize(pool_target - reply_scratch_.size());
  const std::size_t got = rl.pop_ready_claimed_batch(
      batch_scratch_.data(), batch_scratch_.size(), domain_rank_,
      &stats_->shard_hits, &stats_->shard_misses);
  stats_->readylist_pops += got;
  if (got != 0) f.mark_steal_claimed();
  for (std::size_t k = 0; k < got; ++k) {
    reply_scratch_.push_back({batch_scratch_[k], &f});
  }
}

std::size_t Worker::deal_pool(std::vector<PendingReq>& pending,
                              std::size_t served, StealRequest* self_slot) {
  std::vector<PooledReply>& pool = reply_scratch_;
  if (pool.empty()) return served;
  const std::size_t remaining = pending.size() - served;
  if (pool.size() < remaining) {
    // Scarce replies: not every waiting thief gets one this round. Serve
    // idle thieves first (empty stacks); a suspended owner that gets
    // kFailed here still has its own frames to mind and a reclaim
    // fallback. The reorder is a stable partition through a reused scratch
    // vector (std::stable_partition may malloc a temporary buffer, and
    // this runs under the victim's steal mutex); box order still breaks
    // ties, and when every requester is idle the order is untouched. The
    // combiner's own slot gets no special treatment: if it ends up past
    // the receiver window, the deal below still hands one task to each
    // receiver and strands nothing.
    std::vector<PendingReq>& scratch = deal_scratch_;
    scratch.resize(remaining);
    // Idle entries fill the scratch from the front, the rest from the back
    // in reverse — one reverse restores their box order.
    std::size_t lo = 0, hi = remaining;
    for (std::size_t i = served; i < pending.size(); ++i) {
      if (pending[i].idle) {
        scratch[lo++] = pending[i];
      } else {
        scratch[--hi] = pending[i];
      }
    }
    if (lo != 0 && lo != remaining) {
      std::reverse(scratch.begin() + static_cast<std::ptrdiff_t>(lo),
                   scratch.end());
      std::copy(scratch.begin(), scratch.end(),
                pending.begin() + static_cast<std::ptrdiff_t>(served));
    }
  }
  // One task per receiver. Hand the *youngest* pooled tasks to the other
  // thieves and keep the oldest for our own slot: we execute immediately,
  // so the oldest work — whose program-order successors the victim's drain
  // reaches first — starts with no pickup latency, while a
  // briefly-descheduled peer only delays work the drain is farthest from.
  // The pool never exceeds the unserved requests (the pour targets), so
  // nothing claimed is ever stranded in it.
  assert(pool.size() <= remaining);
  const std::size_t receivers = pool.size();
  std::size_t back = receivers;  // youngest not-yet-assigned task
  for (std::size_t r = 0; r < receivers; ++r) {
    StealRequest* s = pending[served + r].slot;
    const PooledReply& reply = s == self_slot ? pool[0] : pool[--back];
    s->reply = reply.task;
    s->reply_frame = reply.frame;
  }
  // Publish only after every reply is written.
  for (std::size_t r = 0; r < receivers; ++r) {
    pending[served + r].slot->status.store(StealRequest::kServed,
                                           std::memory_order_release);
  }
  pool.clear();
  return served + receivers;
}

void Worker::combine_on(Worker& victim) {
  stats_->combiner_rounds++;
  const std::uint64_t round_t0 = obs::span_begin();
  const bool aggregate = rt_.config().steal_aggregation;
  StealRequest* const self_slot = &victim.request_slot(id_);
  std::vector<PendingReq>& pending = pending_scratch_;
  pending.clear();
  for (unsigned i = 0; i < victim.nslots(); ++i) {
    StealRequest& s = victim.request_slot(i);
    if (s.status.load(std::memory_order_acquire) == StealRequest::kPosted) {
      if (aggregate || i == id_) {
        pending.push_back({&s, s.idle});
      }
    }
  }
  if (pending.empty()) {
    obs::emit_span(obs::Ev::kCombine, round_t0, victim.id(), 0, 0);
    return;
  }

  std::size_t served = 0;
  const std::uint64_t round = ++victim.scan_round_;
  const std::uint32_t depth = victim.depth_acquire();
  std::vector<Task*>& adaptives = adaptive_scratch_;
  adaptives.clear();
  // Pooling: one traversal claims one task per pending request into the
  // pool; a single deal after the loop serves every thief. The walk stops
  // early — once the pool is full there is nothing left to look for.
  std::vector<PooledReply>& pool = reply_scratch_;
  pool.clear();
  const std::size_t pool_target = pending.size();
  std::size_t scanned_blocked = 0;
  Frame* hottest = nullptr;
  std::size_t hottest_blocked = 0;
  const bool renaming = rt_.config().renaming;
  const std::size_t threshold = rt_.config().ready_list_threshold;

  for (std::uint32_t d = 0; d < depth && pool.size() < pool_target; ++d) {
    Frame& f = victim.frame_at(d);

    if (ReadyList* rl = f.ready_list.load(std::memory_order_acquire)) {
      // Accelerated path (§II-C): the list is authoritative for this frame.
      rl->extend(domain_rank_);
      pour_ready_list(*rl, f, pool_target);
      continue;
    }

    // Candidate walk over the frame's persistent scan entries: every task
    // is state-loaded once, settled entries are compacted out so the next
    // round never revisits them, and the walk stops the moment all pending
    // requests are served.
    FrameScanState& fs = victim.scan_state_[d];
    refresh_scan_state(fs, f);
    std::vector<const Task*>& prefix = prefix_scratch_;
    prefix.clear();
    std::size_t blocked_here = 0;
    std::vector<FrameScanState::Entry>& es = fs.entries;
    std::size_t w = 0;  // compaction write cursor
    std::size_t i = 0;
    bool stop = false;

    for (; i < es.size() && !stop; ++i) {
      Task* t = es[i].task;
      const TaskState s = t->load_state();
      stats_->scan_entries++;
      if (entry_retired(*t, s)) {
        stats_->scan_retired++;
        continue;
      }
      if (s == TaskState::kInit) {
        stats_->scan_visited++;
        const Readiness r = check_ready(victim, round, depth, d, prefix, *t);
        if (r == Readiness::kReady ||
            (r == Readiness::kFalseOnly && renaming)) {
          if (t->try_claim(TaskState::kStolenClaim)) {
            f.mark_steal_claimed();
            if (r == Readiness::kFalseOnly) {
              apply_renaming(*t);
              stats_->renames++;
            }
            pool.push_back({t, &f});
            if (t->naccesses != 0 && fs.listed_round == round) {
              // Deeper frames consult this frame's thief-side list later
              // this round; the claim just moved t into that category.
              fs.thief_side.push_back(t);
            }
            if (pool.size() == pool_target) stop = true;
          }
        } else {
          ++blocked_here;
          ++scanned_blocked;
          // Don't finish an expensive traversal that already qualified this
          // frame for the accelerating structure: bail out and attach it
          // (the per-candidate cost grows with the live prefix, so full
          // scans of big blocked frames are quadratic — exactly the cost
          // §II-C's ready list exists to remove).
          if (threshold != 0 && scanned_blocked > threshold) {
            hottest_blocked = blocked_here;
            hottest = &f;
            stop = true;
          }
        }
      } else if ((s == TaskState::kRunOwner || s == TaskState::kRunThief) &&
                 t->splittable()) {
        adaptives.push_back(t);
      }
      // Still-relevant entry: keep it and record it as a program-order
      // blocker for the candidates that follow in this frame.
      if (t->naccesses != 0) prefix.push_back(t);
      es[w++] = es[i];
    }
    // Close the compaction gap without touching the unwalked tail.
    if (w < i) es.erase(es.begin() + static_cast<std::ptrdiff_t>(w),
                        es.begin() + static_cast<std::ptrdiff_t>(i));

    if (blocked_here > hottest_blocked) {
      hottest_blocked = blocked_here;
      hottest = &f;
    }
    if (threshold != 0 && scanned_blocked > threshold) break;
  }

  served = deal_pool(pending, served, self_slot);

  // On-demand task creation (§II-D): ask running adaptive tasks to split.
  if (served < pending.size()) {
    for (Task* t : adaptives) {
      if (served >= pending.size()) break;
      std::vector<StealRequest*> rest;
      rest.reserve(pending.size() - served);
      for (std::size_t i = served; i < pending.size(); ++i) {
        rest.push_back(pending[i].slot);
      }
      SplitContext sc(rest.data(), rest.size());
      stats_->splitter_calls++;
      t->splitter(t->args, sc);
      served += sc.replied();
    }
  }

  // Attach the accelerating structure once traversals get expensive
  // (§II-C), sharded one ready deque per locality domain so producers and
  // consumers of different domains stop funneling through one deque's
  // cache lines (flat machines get a single shard).
  if (served < pending.size() && threshold != 0 &&
      scanned_blocked > threshold && hottest != nullptr &&
      hottest->ready_list.load(std::memory_order_relaxed) == nullptr) {
    auto* rl = new ReadyList(*hottest, rt_.ndomains());
    hottest->ready_list.store(rl, std::memory_order_release);
    rl->extend(domain_rank_);
    stats_->readylist_attach++;
    obs::emit(obs::Ev::kRlAttach, hottest->size_acquire());
    pour_ready_list(*rl, *hottest, pending.size() - served);
    served = deal_pool(pending, served, self_slot);
  }

  stats_->requests_served += served;
  for (std::size_t i = 0; i < served; ++i) {
    if (pending[i].slot != self_slot) {
      stats_->requests_aggregated++;
    }
  }
  for (std::size_t i = served; i < pending.size(); ++i) {
    pending[i].slot->status.store(StealRequest::kFailed,
                                  std::memory_order_release);
  }
  obs::emit_span(obs::Ev::kCombine, round_t0, victim.id(), pending.size(),
                 served);
}

}  // namespace xk
