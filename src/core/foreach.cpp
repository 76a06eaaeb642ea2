#include "core/foreach.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/runtime.hpp"
#include "obs/trace.hpp"

namespace xk::detail {

int WorkInterval::split_tail(
    int parts, std::int64_t min_keep,
    std::vector<std::pair<std::int64_t, std::int64_t>>& out) {
  lk.lock();
  const std::int64_t r = e - b;
  if (r <= min_keep || parts < 2) {
    lk.unlock();
    return 0;
  }
  const auto pieces =
      static_cast<int>(std::min<std::int64_t>(parts, r));  // each >= 1
  const std::int64_t q = r / pieces;
  const std::int64_t rem = r % pieces;
  // The owner keeps the first piece: [b, b + q + (rem ? 1 : 0)).
  std::int64_t cut = b + q + (rem > 0 ? 1 : 0);
  const std::int64_t old_e = e;
  e = cut;
  lk.unlock();
  // The carved tail [cut, old_e) is now exclusively ours; partition it.
  int emitted = 0;
  for (int p = 1; p < pieces; ++p) {
    const std::int64_t len = q + (p < rem ? 1 : 0);
    if (len <= 0) break;
    out.emplace_back(cut, cut + len);
    cut += len;
    ++emitted;
  }
  // Rounding slack (if any) goes to the last piece.
  if (emitted > 0 && cut < old_e) out.back().second = old_e;
  return emitted;
}

void ForeachShared::record_error(std::exception_ptr e) {
  {
    std::lock_guard lock(exc_mu);
    if (!exc) exc = e;
  }
  error.store(true, std::memory_order_release);
}

namespace {

/// Tries to claim one unclaimed reserved slice into `w.interval`,
/// restricted to slices homed to `domain` when `domain_only` is set.
bool claim_slice_pass(ForeachShared& sh, ForeachWork& w, unsigned domain,
                      bool domain_only) {
  for (auto& padded : sh.slices) {
    ForeachShared::Slice& s = padded.value;
    if (domain_only && s.domain != domain) continue;
    if (s.taken.load(std::memory_order_relaxed)) continue;
    if (!s.taken.exchange(true, std::memory_order_acq_rel)) {
      w.interval.lk.lock();
      w.interval.b = s.b;
      w.interval.e = s.e;
      w.interval.lk.unlock();
      return true;
    }
  }
  return false;
}

/// Claims an unclaimed reserved slice into `w.interval`. Under the domain
/// partition the claimer drains its own domain's remainder queue before
/// going remote (the slices double as per-domain remainder queues); the
/// flat partition keeps the original first-fit order. The local/cross
/// split feeds the same shard_hits/shard_misses telemetry as the sharded
/// ready lists — one consistent "stayed in my domain's pool" signal.
/// (Only the *counters* are shared: slice claims are a per-slice atomic
/// exchange and take no ReadyList lock.)
/// Returns false when all slices are claimed.
bool claim_reserved_slice(ForeachShared& sh, ForeachWork& w, Worker& self) {
  const unsigned domain = self.domain();
  if (!sh.domain_mode) {
    return claim_slice_pass(sh, w, domain, /*domain_only=*/false);
  }
  // Count the local/cross split only when the placement actually spans
  // several domains — mirroring the ready-list rule that a single shard
  // reports no telemetry (a forced kDomain run on a one-domain machine
  // would read as all-hits and pollute the ablation comparison).
  const bool count = self.runtime().ndomains() > 1;
  if (claim_slice_pass(sh, w, domain, /*domain_only=*/true)) {
    if (count) self.stats().shard_hits++;
    return true;
  }
  // Own remainder queue dry (the local-only pass saw every local slice
  // taken): any slice the fallback pass finds is another domain's.
  if (claim_slice_pass(sh, w, domain, /*domain_only=*/false)) {
    if (count) self.stats().shard_misses++;
    return true;
  }
  return false;
}

/// Body of every foreach task, root and pieces alike: `args` is the task's
/// ForeachWork, which the splitter receives as well.
void foreach_body(void* args, Worker& wk) {
  auto* w = static_cast<ForeachWork*>(args);
  foreach_run(*w, wk);
  // xk-order: the waiter is read before the decrement — once
  // `outstanding` reaches zero the waiter may return and release `sh`; the
  // Worker itself lives as long as the runtime. The decrement then pairs
  // with the waiter's park like any publish (support/parker.hpp): either
  // the waiter's announced re-check sees zero, or wake() sees the waiter,
  // with the park timeout as the backstop for the store/load window.
  Worker* const waiter = w->shared->waiter;
  if (w->shared->outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // The last live body: the waiter may be parked on sh.finished() in
    // foreach_execute — wake it, and only it.
    waiter->wake();
  }
}

/// Splitter-produced piece: a heap task carrying its own ForeachWork and
/// one shared ref, released when the hosting frame deletes it.
struct ForeachPiece : Task {
  ForeachWork work;

  ForeachPiece(ForeachShared* sh, std::int64_t b, std::int64_t e) {
    work.shared = sh;
    work.interval.b = b;
    work.interval.e = e;
    body = &foreach_body;
    args = &work;
    heap_deleter = [](Task* t) { delete static_cast<ForeachPiece*>(t); };
    arm_splitter(*this, &foreach_splitter);
  }
  ForeachPiece(const ForeachPiece&) = delete;
  ForeachPiece& operator=(const ForeachPiece&) = delete;
  ~ForeachPiece() { work.shared->release(); }
};

/// Creates one splitter reply covering [b, e). The new task is itself
/// adaptive (recursively splittable). Callers check sc.size() > 0 right
/// before each call and the SplitContext is consumed by this thread only,
/// so the reply slot is guaranteed; losing iterations here would be silent
/// data corruption, hence the hard stop.
void reply_piece(SplitContext& sc, ForeachShared& sh, std::int64_t b,
                 std::int64_t e) {
  sh.add_ref();
  sh.outstanding.fetch_add(1, std::memory_order_acq_rel);
  if (!sc.reply_raw(new ForeachPiece(&sh, b, e))) std::abort();
}

}  // namespace

void foreach_run(ForeachWork& w, Worker& self) {
  ForeachShared& sh = *w.shared;
  const unsigned wid = self.id();
  for (;;) {
    if (sh.error.load(std::memory_order_acquire)) break;
    std::int64_t lo = 0;
    const std::int64_t n = w.interval.pop_front(sh.grain, &lo);
    if (n > 0) {
      const std::uint64_t chunk_t0 = obs::span_begin();
      try {
        sh.invoke(sh.ctx, lo, lo + n, wid);
      } catch (...) {
        sh.record_error(std::current_exception());
        break;
      }
      sh.done.fetch_add(n, std::memory_order_acq_rel);
      self.stats().foreach_chunks++;
      obs::emit_span(obs::Ev::kForeachChunk, chunk_t0,
                     static_cast<std::uint64_t>(lo),
                     static_cast<std::uint64_t>(n));
      continue;
    }
    if (!claim_reserved_slice(sh, w, self)) break;
  }
}

namespace {

/// One splitter pass over the reserved slices; hands each claimed slice to
/// a pending request. Restricted to `domain`-homed slices when asked.
void split_reserved_pass(SplitContext& sc, ForeachShared& sh, unsigned domain,
                         bool domain_only) {
  while (sc.size() > 0) {
    bool got = false;
    for (auto& padded : sh.slices) {
      ForeachShared::Slice& s = padded.value;
      if (domain_only && s.domain != domain) continue;
      if (s.taken.load(std::memory_order_relaxed)) continue;
      if (!s.taken.exchange(true, std::memory_order_acq_rel)) {
        reply_piece(sc, sh, s.b, s.e);
        got = true;
        break;
      }
    }
    if (!got) break;
  }
}

}  // namespace

void foreach_splitter(void* state, SplitContext& sc) {
  auto* w = static_cast<ForeachWork*>(state);
  ForeachShared& sh = *w->shared;
  if (sh.error.load(std::memory_order_acquire)) return;

  // 1. Hand out reserved slices first (§II-E: "it grabs the reserved slice
  //    if available"). The splitter runs on the combiner's thread, so its
  //    domain is the domain the stolen pieces will (mostly) execute in:
  //    under the domain partition, drain that domain's remainder queue
  //    before pulling slices homed to other domains.
  if (sh.domain_mode) {
    Worker* combiner = this_worker();
    const unsigned domain = combiner != nullptr ? combiner->domain() : 0u;
    split_reserved_pass(sc, sh, domain, /*domain_only=*/true);
  }
  split_reserved_pass(sc, sh, 0, /*domain_only=*/false);

  // 2. Split this task's live interval into k+1 equal parts, one kept by
  //    the victim (§II-E aggregation-aware split).
  const auto k = static_cast<int>(sc.size());
  if (k > 0) {
    std::vector<std::pair<std::int64_t, std::int64_t>> parts;
    parts.reserve(static_cast<std::size_t>(k));
    w->interval.split_tail(k + 1, sh.grain, parts);
    for (const auto& [b, e] : parts) reply_piece(sc, sh, b, e);
  }
}

void foreach_execute(ForeachShared& sh, std::int64_t first, std::int64_t last,
                     ForeachPartition partition) {
  Worker& w = *this_worker();
  Runtime& rt = w.runtime();
  const unsigned nw = rt.nworkers();

  // Drain pending siblings first: the loop must not run concurrently with
  // program-order predecessors (OpenMP-like region semantics).
  sync();

  // Reserved slices: near-equal partition of [first, last), one per worker.
  //
  // Flat mode deals slices in worker-id order (the original scheme). Domain
  // mode deals them in domain-grouped order instead, so each locality
  // domain owns one contiguous sub-range of the iteration space
  // (first-touch-friendly) and slice i is homed to worker i's domain —
  // the per-domain remainder queues that claim_reserved_slice and the
  // splitter drain locally first.
  sh.domain_mode =
      partition == ForeachPartition::kDomain ||
      (partition == ForeachPartition::kAuto && rt.ndomains() > 1);
  sh.slices = std::vector<Padded<ForeachShared::Slice>>(nw);
  std::vector<unsigned> deal_order(nw);
  for (unsigned i = 0; i < nw; ++i) deal_order[i] = i;
  if (sh.domain_mode) {
    std::stable_sort(deal_order.begin(), deal_order.end(),
                     [&](unsigned a, unsigned b) {
                       return rt.worker(a).domain() < rt.worker(b).domain();
                     });
  }
  const std::int64_t total = last - first;
  std::int64_t pos = first;
  for (unsigned i = 0; i < nw; ++i) {
    const unsigned slot = deal_order[i];
    const std::int64_t len =
        total / nw + (static_cast<std::int64_t>(i) < total % nw ? 1 : 0);
    sh.slices[slot]->b = pos;
    sh.slices[slot]->e = pos + len;
    sh.slices[slot]->domain = sh.domain_mode ? rt.worker(slot).domain() : 0u;
    pos += len;
  }

  // Root work: claims its own reserved slice up front (slice 0 in flat
  // mode, preserving the original behavior; the caller's own domain-homed
  // slice in domain mode). A master slot (id >= nworkers) folds onto the
  // pool slot whose placement it shares — slices stay one-per-pool-worker.
  const unsigned root_slot = sh.domain_mode ? (w.id() % nw) : 0u;
  ForeachWork root;
  root.shared = &sh;
  // xk-order: pre-publication init — `sh` is invisible to thieves until
  // the adaptive root task lands in the frame below; that publication
  // carries the release edge for these stores (and for sh.waiter).
  sh.slices[root_slot]->taken.store(true, std::memory_order_relaxed);
  root.interval.b = sh.slices[root_slot]->b;
  root.interval.e = sh.slices[root_slot]->e;
  sh.outstanding.store(1, std::memory_order_relaxed);
  sh.waiter = &w;

  // Publish the adaptive root task in the current frame and run it through
  // the normal FIFO path (sync claims it; if a thief wins the claim race the
  // sync suspends and helps, §II-B).
  auto* t = new (w.frame_alloc(sizeof(Task), alignof(Task))) Task();
  t->body = &foreach_body;
  t->args = &root;
  arm_splitter(*t, &foreach_splitter);
  w.push_task(t);
  sync();
  // The sync recycled the frame: `t` reached Term before the drain ended
  // and its arena block is reused from here on. Nothing below reads it —
  // only the stack state `root` and `sh`. A combiner reaches `root` (to
  // call the splitter) only through `t`, inside a scan window on this
  // worker, and the recycle waited every such window out before the
  // reset, so no scanner still holds `root` when it leaves scope.

  // The root's slice is done; other pieces may still run. Help until the
  // whole interval completed (§II-E completion).
  w.steal_until([&] { return sh.finished(); });

  std::exception_ptr exc = sh.exc;  // safe: all writers retired
  sh.release();
  if (exc) std::rethrow_exception(exc);
}

}  // namespace xk::detail
