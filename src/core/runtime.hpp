// Runtime: the thread pool and session management.
//
// "The execution of a X-KAAPI program ... starts by the creation of a pool of
// threads responsible to execute the tasks generated at runtime" (§II). The
// calling thread is registered as worker 0; `workers() - 1` additional
// threads are spawned and parked between parallel sections.
//
// Three usage styles:
//   Runtime rt(cfg);
//   rt.run([&]{ xk::spawn(...); xk::sync(); });          // scoped section
// or
//   rt.begin();  ...spawn/sync from the calling thread...  rt.end();
// or
//   JobToken t = rt.submit([]{ ... });  t.wait();        // service mode
// The second style backs long-lived clients such as the QUARK ABI layer
// (insert tasks / barrier / finalize); the third is the async job
// submission surface (see core/service.hpp and docs/SERVICE.md).
//
// Sections may overlap: up to Config::sections threads can hold open
// begin()/end() pairs concurrently. Each open section binds its caller to
// a distinct *master slot* — worker 0 plus Config::sections - 1 extra
// Worker instances that exist beyond the pool (ids >= nworkers()). All
// masters' frames are stealable by the pool; quiescence detection and
// the trace drain key off the *last* section closing, serialized by
// section_mu_.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/service.hpp"
#include "core/stats.hpp"
#include "core/task.hpp"
#include "core/worker.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/parker.hpp"
#include "topo/topology.hpp"

namespace xk {

class Runtime {
 public:
  explicit Runtime(Config cfg = Config::from_env());
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  const Config& config() const { return cfg_; }

  /// Pool worker count (what benches, foreach partitioning and the victim
  /// draw's "how parallel is this machine" questions mean by "workers").
  unsigned nworkers() const { return nw_; }

  /// Pool workers plus the extra master slots (Config::sections - 1) that
  /// back overlapping sections. Protocol-level scans — victim orders,
  /// reqbox sizing, trace-ring drains — must span this count: a master's
  /// frames are stealable like any pool worker's.
  unsigned nworkers_total() const {
    return static_cast<unsigned>(workers_.size());
  }

  Worker& worker(unsigned i) { return *workers_[i]; }

  /// The machine shape this runtime was placed on (real sysfs discovery or
  /// the XK_TOPO synthetic override) and the worker→(cpu, domain) map
  /// derived from it. Computed once at construction; read-only afterwards.
  const Topology& topology() const { return topo_; }
  const Placement& placement() const { return placement_; }

  /// Distinct locality domains actually occupied by workers (1 on a flat
  /// machine). The foreach auto-partition mode and the ready-list shard
  /// count key off this.
  unsigned ndomains() const { return placement_.ndomains; }

  /// Shared occupancy board (see stats.hpp): per-worker has-work bits the
  /// victim draw probes, folded per domain and machine-wide into the
  /// section-quiescence event. Sized to ndomains() at construction.
  OccupancyBoard& occupancy() { return occupancy_; }
  const OccupancyBoard& occupancy() const { return occupancy_; }

  /// Opens a parallel section: binds the caller to a free master slot
  /// (worker 0 when available), pushes its root frame and — if this is the
  /// first open section — wakes the pool. Throws std::logic_error when the
  /// calling thread is already bound (nesting) or when every one of the
  /// Config::sections master slots is busy.
  void begin();

  /// Closes the caller's section: drains its root frame (implicit sync),
  /// releases the master slot and unregisters the caller. The last section
  /// to close parks the pool and drains observability. Rethrows the first
  /// task exception.
  void end();

  /// Scoped section: begin(); fn(); end(). fn runs on the caller thread as
  /// the root task and may spawn/sync freely.
  template <typename Fn>
  void run(Fn&& fn) {
    begin();
    try {
      fn();
    } catch (...) {
      end_silent();
      throw;
    }
    end();
  }

  /// True while at least one section is open (spawn/sync are legal on the
  /// threads bound to those sections).
  bool in_section() const {
    return open_sections_.load(std::memory_order_acquire) > 0;
  }

  // ---- service mode (async job submission; see core/service.hpp) --------

  /// Submits a job from any thread (worker or not). The job waits in its
  /// tenant lane until an idle worker pulls it; the returned token
  /// supports completion waiting, cooperative + pre-execution
  /// cancellation, and error retrieval. A submit to a full tenant lane
  /// (Config::svc_queue_cap) returns an already-terminal kRejected token.
  /// The first submit lazily starts the service thread, which holds a
  /// section open while jobs flow.
  JobToken submit(std::function<void()> fn, SubmitOptions opts = {});

  /// Cancellation-aware variant: the body receives a JobContext to poll
  /// for cooperative cancellation (JobToken::request_cancel).
  JobToken submit(std::function<void(JobContext&)> fn,
                  SubmitOptions opts = {});

  /// Sets tenant `tenant`'s scheduling weight (see Config::svc_weights).
  void set_tenant_weight(unsigned tenant, unsigned weight);

  /// Service accounting (zeros when no submit ever happened).
  ServiceStats service_stats() const;

  /// Aggregated scheduler counters across all workers.
  WorkerStats stats_snapshot() const;

  /// Machine-readable telemetry: the aggregated counters in declaration
  /// order plus the occupancy board's per-domain occupied-worker counts
  /// and the root occupancy count. The shape
  /// benches embed into their JSON reports, the trace file carries under
  /// "metrics", and XK_STATS dumps to stderr.
  obs::MetricsSnapshot metrics_snapshot() const;

  /// Resets all counters (between benchmark repetitions).
  void reset_stats();

  /// True when XK_TRACE armed the per-worker trace rings at construction.
  bool tracing() const { return trace_pid_ != 0; }

  /// Worker `i`'s trace ring, or nullptr when tracing is off (tests).
  obs::TraceRing* trace_ring(unsigned i) {
    return i < trace_rings_.size() ? trace_rings_[i].get() : nullptr;
  }

  /// Serialization guard for cumulative-write (reduction) task bodies: two
  /// CW tasks on overlapping regions are independent for the scheduler but
  /// their bodies must not interleave; the runtime hashes the region base to
  /// one of these locks around the body.
  std::mutex& cw_guard(std::uintptr_t base) {
    return cw_locks_[(base >> 6) % kCwLocks].value;
  }

  /// Idle-loop coordination: workers steal while a section is open.
  bool section_active() const {
    return section_active_.load(std::memory_order_acquire);
  }

  /// The one shared eventcount for in-section idle parking (see
  /// support/parker.hpp and docs/STEALING.md): idle thieves waiting for
  /// anything stealable (Worker::steal_idle), woken one at a time by task
  /// publication — any of them can take it — and all at once by the
  /// occupancy board's quiescence fold (OccupancyBoard::arm_quiesce) when
  /// the last section's root-frame pop empties the machine. A worker
  /// waiting on one specific event — a stolen task's join, a foreach's
  /// last piece — sleeps on its own parker instead (Worker::steal_until),
  /// woken by name by the thread that ends the wait (Worker::wake).
  Parker& work_parker() { return work_parker_; }

  /// New stealable work was published: wake one idle thief. Hot path — a
  /// probe load (or two) when nobody sleeps.
  void notify_work() {
    if (work_parker_.has_waiters()) work_parker_.notify_one();
  }


 private:
  friend class Worker;
  friend struct detail::ServiceState;

  void worker_main(unsigned index);
  void end_silent();  // end() that never throws (exception cleanup path)

  /// End-of-section observability: records the section span, drains every
  /// worker's trace ring into the global Chrome writer (after quiescing
  /// the pool — the same mutex edge stats_snapshot rides, so no ring is
  /// drained while its owner can still record), refreshes the writer's
  /// metrics snapshot, and honors XK_STATS. No-op when neither is armed.
  void drain_observability();

  /// Blocks until every pool worker is back in its between-sections wait
  /// (no-op while a section is open). Gives counter reads a defined order.
  void quiesce_pool() const;

  static constexpr std::size_t kCwLocks = 64;

  Config cfg_;
  unsigned nw_ = 0;  ///< pool worker count (workers_ also holds masters)
  Topology topo_;
  Placement placement_;
  OccupancyBoard occupancy_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Section lifecycle. section_mu_ serializes every master-slot claim /
  // release, the root-frame push/pop of each section, and the first-open /
  // last-close transitions (quiesce arming, pool wake, observability
  // drain) — so overlapping sections cannot double-drain a trace ring or
  // race a begin() against the previous batch's ring copy-out. The
  // invariant it maintains: while the lock is free, open_sections_ equals
  // the number of pushed master root frames, so the board's
  // root-occupancy count stays >= 1 for as long as any section is open
  // and the only firing 1->0 edge is the last section's root pop. Lock
  // order: section_mu_ before park_mutex_.
  std::mutex section_mu_;
  std::atomic<unsigned> open_sections_{0};
  std::vector<unsigned> master_slots_;  ///< worker ids usable as masters
  std::vector<char> master_open_;       ///< parallel to master_slots_
  // Checked-build (XK_CHECK=ON) section-batch accounting, written only
  // under section_mu_: a batch is first-open -> last-close, and the
  // observability drain must run exactly once per batch (the invariant
  // XK_EXPECT(section_drain) pins in begin()/end()). Plain fields so the
  // header layout does not depend on the build flavor; unused otherwise.
  std::uint64_t check_batches_ = 0;  ///< first-opens observed
  std::uint64_t check_drains_ = 0;   ///< last-close drains observed

  // Service mode: the tenant lanes every worker polls in its idle loop and
  // the service thread. Destroyed after the pool joined, so no worker can
  // poll freed lanes; declared after cfg_, which its constructor reads.
  detail::ServiceState service_;

  // Between-sections park/wake machinery (pool idle between begin/end
  // pairs). In-section idle parking goes through the Parkers instead.
  // Mutable: quiesce_pool() is conceptually const (stats readers).
  mutable std::mutex park_mutex_;
  mutable std::condition_variable park_cv_;
  mutable std::condition_variable idle_cv_;
  std::size_t idle_workers_ = 0;  ///< workers inside the park_cv_ wait
  Parker work_parker_;
  std::uint64_t epoch_ = 0;
  bool shutdown_ = false;
  std::atomic<bool> section_active_{false};

  // Observability (src/obs/): one owner-written trace ring per worker
  // (masters included) when XK_TRACE armed tracing, the runtime's pid in
  // the process-global Chrome writer (0 = untraced), each master slot's
  // section span start stamp, and the XK_STATS stderr-dump flag.
  std::vector<std::unique_ptr<obs::TraceRing>> trace_rings_;
  int trace_pid_ = 0;
  std::vector<std::uint64_t> section_t0_;
  bool stats_dump_ = false;

  std::vector<Padded<std::mutex>> cw_locks_{kCwLocks};
};

}  // namespace xk
