// Per-worker scheduler counters, plus the shared occupancy board.
//
// The WorkerStats counters are plain (non-atomic) because each instance is
// written only by its owning worker and sits on its own cache line;
// aggregation snapshots tolerate slight staleness (they are for
// tests/benches, not control flow). The OccupancyBoard is the opposite: a
// deliberately *shared* signal surface, written with relaxed atomics —
// per-worker occupancy bits with a domain/root fold, the victim-probe and
// quiescence side of the scheduler.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

#include "support/cache.hpp"
#include "support/parker.hpp"

namespace xk {

/// Every WorkerStats counter, in declaration order. The aggregation
/// (operator+=), the dump (operator<<) and the metrics snapshot are all
/// generated from this one list, so a counter cannot be summed but
/// silently missing from a dump again; the static_assert below the
/// struct catches a field added to the struct but not to the list.
#define XK_WORKER_COUNTERS(X) \
  X(tasks_spawned)            \
  X(tasks_run_owner)          \
  X(tasks_run_thief)          \
  X(steal_attempts)           \
  X(steals_ok)                \
  X(steal_tasks)              \
  X(steals_local)             \
  X(steals_remote)            \
  X(steal_reclaims)           \
  X(combiner_rounds)          \
  X(requests_served)          \
  X(requests_aggregated)      \
  X(splitter_calls)           \
  X(readylist_attach)         \
  X(readylist_pops)           \
  X(shard_hits)               \
  X(shard_misses)             \
  X(renames)                  \
  X(scan_visited)             \
  X(scan_entries)             \
  X(scan_retired)             \
  X(scan_rebuilds)            \
  X(parks)                    \
  X(park_wakes)               \
  X(probes_skipped)           \
  X(quiesce_folds)            \
  X(join_wakes)               \
  X(foreach_chunks)           \
  X(svc_jobs_run)             \
  X(svc_jobs_skipped)

struct WorkerStats {
  std::uint64_t tasks_spawned = 0;
  std::uint64_t tasks_run_owner = 0;   ///< claimed via the FIFO fast path
  std::uint64_t tasks_run_thief = 0;   ///< executed after a successful steal
  std::uint64_t steal_attempts = 0;    ///< requests posted
  std::uint64_t steals_ok = 0;         ///< requests answered with work
  std::uint64_t steal_tasks = 0;       ///< tasks received across all replies
  std::uint64_t steals_local = 0;      ///< successful steals from a same-domain victim
  std::uint64_t steals_remote = 0;     ///< successful steals across a domain boundary
  std::uint64_t steal_reclaims = 0;    ///< claimed-unstarted tasks taken back at a join
  std::uint64_t combiner_rounds = 0;   ///< times this worker was the combiner
  std::uint64_t requests_served = 0;   ///< replies produced as combiner
  std::uint64_t requests_aggregated = 0;  ///< replies produced for *others*
  std::uint64_t splitter_calls = 0;
  std::uint64_t readylist_attach = 0;
  std::uint64_t readylist_pops = 0;
  std::uint64_t shard_hits = 0;    ///< pops served from the popper's own domain
                                   ///  shard (ready shards + foreach remainder
                                   ///  queues)
  std::uint64_t shard_misses = 0;  ///< pops that crossed into another domain's
                                   ///  shard after the local one ran dry
  std::uint64_t renames = 0;
  std::uint64_t scan_visited = 0;      ///< candidates readiness-checked
  std::uint64_t scan_entries = 0;      ///< live cache entries walked by scans
  std::uint64_t scan_retired = 0;      ///< entries dropped as never-again relevant
  std::uint64_t scan_rebuilds = 0;     ///< per-frame scan caches (re)built from scratch
  std::uint64_t parks = 0;             ///< times this worker went to sleep idle
  std::uint64_t park_wakes = 0;        ///< parks ended by a notification (rest timed out)
  std::uint64_t probes_skipped = 0;    ///< victim draws that skipped a candidate on
                                       ///  its cleared occupancy bit
  std::uint64_t quiesce_folds = 0;     ///< occupancy fold levels climbed by this
                                       ///  worker's 0<->1 depth transitions
  std::uint64_t join_wakes = 0;        ///< targeted wakes of a registered join
                                       ///  waiter after a stolen-task completion
  std::uint64_t foreach_chunks = 0;
  std::uint64_t svc_jobs_run = 0;      ///< service jobs whose body this worker
                                       ///  executed
  std::uint64_t svc_jobs_skipped = 0;  ///< service jobs this worker popped
                                       ///  but did not run: the job was
                                       ///  cancelled while still queued

  WorkerStats& operator+=(const WorkerStats& o) {
#define XK_STAT_ADD(f) f += o.f;
    XK_WORKER_COUNTERS(XK_STAT_ADD)
#undef XK_STAT_ADD
    return *this;
  }

  /// Visits (name, value) for every counter in declaration order — the one
  /// enumeration path behind operator<< and the metrics snapshot.
  template <typename Fn>
  void for_each(Fn&& fn) const {
#define XK_STAT_VISIT(f) fn(#f, f);
    XK_WORKER_COUNTERS(XK_STAT_VISIT)
#undef XK_STAT_VISIT
  }
};

/// Counters in the X-macro list.
inline constexpr std::size_t kWorkerStatCount = []() {
  std::size_t n = 0;
#define XK_STAT_COUNT(f) ++n;
  XK_WORKER_COUNTERS(XK_STAT_COUNT)
#undef XK_STAT_COUNT
  return n;
}();

// Every field is a std::uint64_t, so a field present in the struct but
// missing from XK_WORKER_COUNTERS (or vice versa) changes one side of
// this equality.
static_assert(sizeof(WorkerStats) == kWorkerStatCount * sizeof(std::uint64_t),
              "WorkerStats fields and XK_WORKER_COUNTERS out of sync");

inline std::ostream& operator<<(std::ostream& os, const WorkerStats& s) {
  bool first = true;
  s.for_each([&](const char* name, std::uint64_t v) {
    os << (first ? "" : " ") << name << "=" << v;
    first = false;
  });
  return os;
}

/// One "has work" byte per worker, published by the owner only on its
/// 0<->1 frame-depth transitions, plus a two-level fold: per-domain
/// occupied-worker counts (one cache-line-padded gauge per dense
/// locality-domain rank, Placement::Slot::domain_rank, written at the
/// worker's 0<->1 bit transitions) and a machine-wide occupied-domain count
/// at the root (written at a domain's 0<->1 transitions). The bytes are
/// packed unpadded on purpose: transitions are rare (once per stolen reply,
/// not per task), so the line stays read-mostly and a thief's victim draw
/// reads many bits from one line instead of many workers' hot depth words.
/// Everything is a relaxed heuristic hint EXCEPT the root count's last
/// 1->0 edge, which doubles as the section-quiescence event: when armed, it
/// fires the registered parker exactly once (the exchange below), in place
/// of per-completion progress broadcasts.
class OccupancyBoard {
 public:
  /// Sizes the per-domain fold for `ndomains` dense domain ranks. Must be
  /// called before workers run (Runtime does it right after computing
  /// placement); all methods are safe no-ops on an un-init'ed board.
  void init(unsigned ndomains) {
    gauges_ = std::vector<Padded<Gauge>>(std::max(ndomains, 1u));
  }

  unsigned ndomains() const { return static_cast<unsigned>(gauges_.size()); }

  /// Sizes the per-worker occupancy bits; `worker_ranks[i]` is worker i's
  /// dense domain rank. Must be called after init() and before workers run.
  void init_occupancy(const std::vector<unsigned>& worker_ranks) {
    occ_ = std::vector<OccSlot>(std::max<std::size_t>(worker_ranks.size(), 1));
    for (std::size_t i = 0; i < worker_ranks.size(); ++i) {
      occ_[i].domain_rank = worker_ranks[i];
    }
  }

  /// Publishes worker `w`'s has-work bit and folds the change up the
  /// domain/root counts. Owner-called only (one writer per bit). Returns
  /// the number of fold levels the transition climbed (0 when the bit did
  /// not change, up to 3 for bit + domain + root) — the quiesce_folds
  /// telemetry — and fires the armed quiescence parker on the root's
  /// 1->0 edge.
  unsigned publish_occupied(unsigned w, bool occupied) {
    if (w >= occ_.size() || gauges_.empty()) return 0;
    OccSlot& s = occ_[w];
    const std::uint8_t bit = occupied ? 1 : 0;
    if (s.occupied.load(std::memory_order_relaxed) == bit) return 0;
    // xk-order: owner-written edge-detect bit; only this worker writes its
    // slot, and the quiescence decision below rides the gauge fetch_adds
    // (whose counts, not this bit, are what fire_quiesce consumes).
    s.occupied.store(bit, std::memory_order_relaxed);
    unsigned folds = 1;
    Gauge* g = gauge(s.domain_rank);
    const std::int64_t before =
        g->occupied.fetch_add(occupied ? 1 : -1, std::memory_order_relaxed);
    if (occupied ? before != 0 : before != 1) return folds;
    ++folds;
    const std::int64_t root_before =
        root_occupied_.value.fetch_add(occupied ? 1 : -1,
                                       std::memory_order_relaxed);
    if (!occupied && root_before == 1) {
      ++folds;
      fire_quiesce();
    }
    return folds;
  }

  bool occupied(unsigned w) const {
    return w < occ_.size() &&
           occ_[w].occupied.load(std::memory_order_relaxed) != 0;
  }

  std::int64_t domain_occupied(unsigned rank) const {
    const Gauge* g = gauge(rank);
    return g != nullptr ? g->occupied.load(std::memory_order_relaxed) : 0;
  }

  std::int64_t root_occupied() const {
    return root_occupied_.value.load(std::memory_order_relaxed);
  }

  /// Arms the quiescence event: the next root 1->0 fold notify_all()s
  /// `parker` exactly once (the pointer is consumed by an exchange).
  /// Runtime::begin() arms the work parker before pushing the root frame,
  /// so the root count is non-zero for the entire section and the only
  /// firing edge is the master's root-frame pop in Runtime::end(). Only
  /// idle thieves can be asleep then: a worker waiting in a join or a
  /// foreach holds a frame, so its bit keeps the root count above zero.
  void arm_quiesce(Parker* parker) {
    quiesce_.store(parker, std::memory_order_release);
  }

  /// Drops an unfired arming (defensive; after a normal section end the
  /// fold already consumed the pointer).
  void disarm_quiesce() { quiesce_.store(nullptr, std::memory_order_release); }

  /// True while the quiescence parker is still armed (tests).
  bool quiesce_armed() const {
    return quiesce_.load(std::memory_order_acquire) != nullptr;
  }

 private:
  struct Gauge {
    std::atomic<std::int64_t> occupied{0};  ///< workers of this domain with
                                            ///  a non-empty frame stack
  };

  /// Per-worker occupancy byte. Deliberately unpadded (see above); the
  /// domain rank rides along so the fold never needs a placement lookup.
  struct OccSlot {
    std::atomic<std::uint8_t> occupied{0};
    std::uint32_t domain_rank = 0;
  };

  void fire_quiesce() {
    // The exchange is the exactly-once guarantee (two racing 1->0 edges
    // cannot both see a non-null pointer), taken before the wake so the
    // event reads disarmed right after the root's 1->0 edge, not a futex
    // syscall later. notify_all: notify_one's limiter may drop wakes.
    if (Parker* p = quiesce_.exchange(nullptr, std::memory_order_acq_rel)) {
      p->notify_all();
    }
  }

  Gauge* gauge(unsigned rank) {
    if (gauges_.empty()) return nullptr;
    return &gauges_[rank < gauges_.size() ? rank : 0].value;
  }
  const Gauge* gauge(unsigned rank) const {
    if (gauges_.empty()) return nullptr;
    return &gauges_[rank < gauges_.size() ? rank : 0].value;
  }

  std::vector<Padded<Gauge>> gauges_;
  std::vector<OccSlot> occ_;
  Padded<std::atomic<std::int64_t>> root_occupied_;
  std::atomic<Parker*> quiesce_{nullptr};
};

}  // namespace xk
