// Service mode: async job submission from non-worker threads.
//
// The paper's runtime is entered one closed parallel region at a time; a
// server substrate instead absorbs an open stream of independent jobs.
// This header is the submission surface:
//
//  * `JobToken` — the caller's handle: completion waiting (wait/wait_for),
//    pre-execution cancellation (cancel: a single CAS against the job's
//    state machine, it wins iff the body has not started), cooperative
//    in-flight cancellation (request_cancel + JobContext polling), and
//    error retrieval (get rethrows the body's exception).
//  * `ServiceQueue` — per-tenant admission-controlled lanes drained by
//    smooth weighted round-robin. Deterministic (no clock, no RNG): given
//    the same push sequence it yields the same pick sequence, which is
//    what the seeded priority tests pin. The lanes are the service's only
//    hand-off: every idle loop (Worker::steal_until_on) pops a job before
//    each steal attempt and runs it in a fresh frame of its own stack.
//  * `detail::ServiceState` — the lanes, the counters and the service
//    thread, owned by the Runtime. The thread dispatches nothing: on the
//    first job after a lull it pops that job, opens a section on one of
//    the master slots (see Runtime::begin) so the pool is awake and a
//    1-worker runtime still has an executor, runs the job, then runs the
//    same idle loop as the pool and closes the section once the lanes
//    stayed dry for an idle grace with no pulled job still running.
//
// Job state machine (one atomic byte):
//
//   kQueued --submit            kQueued  -> kRunning   (executor's CAS)
//   kQueued --cancel()--------> kCancelled             (caller's CAS)
//   kRunning -> kDone | kFailed                        (executor store)
//   full lane at submit ------> kRejected              (never queued)
//
// Exactly one of the two CASes out of kQueued wins; every terminal store
// notifies the job's parker, so waiters never sleep past completion.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "check/check.hpp"
#include "support/parker.hpp"

namespace xk {

class Runtime;
class Worker;
class JobContext;

enum class JobStatus : std::uint8_t {
  kQueued,     ///< admitted, waiting in its tenant lane
  kRunning,    ///< body executing on some worker
  kDone,       ///< body returned normally
  kFailed,     ///< body threw; JobToken::get rethrows
  kCancelled,  ///< cancel() won before execution; body never ran
  kRejected,   ///< admission control refused it (full tenant lane)
};

namespace detail {

/// The edges of the job state machine drawn above, as a predicate: the
/// checked build asserts every terminal settle against it. kDone/kFailed/
/// kCancelled/kRejected are terminal — no edge leaves them, which is what
/// makes XK_EXPECT(job_settle_twice) below equivalent to "terminal states
/// are mutually exclusive and settle exactly once".
constexpr bool job_transition_ok(JobStatus from, JobStatus to) {
  switch (from) {
    case JobStatus::kQueued:
      return to == JobStatus::kRunning || to == JobStatus::kCancelled ||
             to == JobStatus::kRejected;
    case JobStatus::kRunning:
      return to == JobStatus::kDone || to == JobStatus::kFailed;
    case JobStatus::kDone:
    case JobStatus::kFailed:
    case JobStatus::kCancelled:
    case JobStatus::kRejected:
      return false;
  }
  return false;
}

struct JobState {
  std::atomic<std::uint8_t> status{
      static_cast<std::uint8_t>(JobStatus::kQueued)};
  std::atomic<bool> cancel_requested{false};
  std::exception_ptr exc;  ///< written before the kFailed release store
  std::function<void(JobContext&)> fn;
  unsigned tenant = 0;
  Parker done;  ///< notified on every terminal transition

  JobStatus load_status() const {
    return static_cast<JobStatus>(status.load(std::memory_order_acquire));
  }

  bool terminal() const {
    const JobStatus s = load_status();
    return s != JobStatus::kQueued && s != JobStatus::kRunning;
  }

  /// Terminal store + waiter wake (executor side). The unchecked build
  /// stores; the checked build exchanges so the displaced status is
  /// available to assert against the state machine — this plain store
  /// (unlike the two CASes out of kQueued) is where a double settle or a
  /// terminal->terminal overwrite would otherwise pass silently.
  void finish(JobStatus s) {
    if constexpr (check::kEnabled) {
      const auto prev = static_cast<JobStatus>(status.exchange(
          static_cast<std::uint8_t>(s), std::memory_order_acq_rel));
      XK_EXPECT(job_settle_twice,
                prev == JobStatus::kQueued || prev == JobStatus::kRunning,
                static_cast<std::uint64_t>(prev),
                static_cast<std::uint64_t>(s));
      XK_EXPECT(job_transition, job_transition_ok(prev, s),
                static_cast<std::uint64_t>(prev),
                static_cast<std::uint64_t>(s));
      (void)prev;  // XK_EXPECT is a no-op in the discarded-branch compile
    } else {
      status.store(static_cast<std::uint8_t>(s), std::memory_order_release);
    }
    done.notify_all();
  }
};

struct ServiceState;

}  // namespace detail

/// Handed to cancellation-aware job bodies; polling is the only
/// cooperation channel (the runtime never interrupts a running body).
class JobContext {
 public:
  explicit JobContext(detail::JobState* st) : st_(st) {}
  bool cancel_requested() const {
    return st_->cancel_requested.load(std::memory_order_acquire);
  }

 private:
  detail::JobState* st_;
};

struct SubmitOptions {
  /// Tenant lane (folded into [0, ServiceQueue::kMaxTenants)). Lanes have
  /// independent admission caps and scheduling weights.
  unsigned tenant = 0;
};

/// Caller-side job handle. Copyable; an empty (default) token is invalid.
class JobToken {
 public:
  JobToken() = default;

  bool valid() const { return st_ != nullptr; }

  JobStatus status() const { return st_->load_status(); }

  /// True once the job reached kDone/kFailed/kCancelled/kRejected.
  bool done() const { return st_->terminal(); }

  /// Pre-execution cancellation: wins iff the body has not started (and
  /// was not already cancelled/rejected). On success the body will never
  /// run and waiters wake immediately. Always sets the cooperative flag,
  /// so a body that already started can still observe the request.
  bool cancel() {
    st_->cancel_requested.store(true, std::memory_order_release);
    std::uint8_t expected = static_cast<std::uint8_t>(JobStatus::kQueued);
    if (st_->status.compare_exchange_strong(
            expected, static_cast<std::uint8_t>(JobStatus::kCancelled),
            std::memory_order_acq_rel, std::memory_order_acquire)) {
      st_->done.notify_all();
      return true;
    }
    return false;
  }

  /// Cooperative-only cancellation: sets the flag a JobContext-polling
  /// body sees, without trying to stop a queued job from starting.
  void request_cancel() {
    st_->cancel_requested.store(true, std::memory_order_release);
  }

  bool cancel_requested() const {
    return st_->cancel_requested.load(std::memory_order_acquire);
  }

  /// Blocks until the job is terminal (eventcount park with a timed
  /// backstop, same discipline as the scheduler's idle parking).
  void wait() const {
    wait_until(std::chrono::steady_clock::time_point::max());
  }

  /// wait() with a deadline; true when the job turned terminal in time.
  bool wait_for(std::chrono::nanoseconds timeout) const {
    return wait_until(std::chrono::steady_clock::now() + timeout);
  }

  /// wait(), then rethrows a kFailed body's exception; a kRejected token
  /// throws std::runtime_error (the job never ran).
  void get() const {
    wait();
    const JobStatus s = st_->load_status();
    if (s == JobStatus::kFailed && st_->exc) {
      std::rethrow_exception(st_->exc);
    }
    if (s == JobStatus::kRejected) {
      throw std::runtime_error("xk::JobToken::get: job rejected (full lane)");
    }
  }

 private:
  friend struct detail::ServiceState;
  explicit JobToken(std::shared_ptr<detail::JobState> st)
      : st_(std::move(st)) {}

  bool wait_until(std::chrono::steady_clock::time_point deadline) const {
    while (!st_->terminal()) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return st_->terminal();
      const std::uint32_t e = st_->done.prepare();
      st_->done.announce();
      if (!st_->terminal()) {
        st_->done.park(e, std::min<std::chrono::nanoseconds>(
                              deadline - now, std::chrono::milliseconds(2)));
      }
      st_->done.retract();
    }
    return true;
  }

  std::shared_ptr<detail::JobState> st_;
};

/// Service accounting, all monotonically increasing except `queued`.
/// Cancel/complete counts are settled by the worker that pops the job, so
/// a cancelled job's count lags its token until some worker pops it.
struct ServiceStats {
  std::uint64_t submitted = 0;   ///< admitted into a lane
  std::uint64_t rejected = 0;    ///< refused at admission
  std::uint64_t completed = 0;   ///< bodies that returned (kDone)
  std::uint64_t failed = 0;      ///< bodies that threw (kFailed)
  std::uint64_t cancelled = 0;   ///< cancel() wins observed at the pop
  std::uint64_t sections = 0;    ///< service-thread sections opened
  std::uint64_t queued = 0;      ///< currently waiting in lanes
  std::uint64_t max_queued = 0;  ///< lane-total high-water mark
};

/// Per-tenant admission + smooth weighted round-robin pick. Thread-safe;
/// one mutex for pushes (submitters) and pops (idle workers), plus a
/// lock-free lane-depth word so an idle poll of dry lanes costs one load.
/// Deterministic by construction — the priority tests replay it.
class ServiceQueue {
 public:
  static constexpr unsigned kMaxTenants = 32;

  /// `cap` = per-tenant queued-job limit (0 = unbounded).
  explicit ServiceQueue(std::size_t cap) : cap_(cap) {}

  static unsigned fold_tenant(unsigned tenant) {
    return tenant % kMaxTenants;
  }

  void set_weight(unsigned tenant, unsigned weight) {
    std::lock_guard lock(mu_);
    Lane& l = lane(fold_tenant(tenant));
    l.weight = std::max(weight, 1u);
  }

  /// Admission: false when the tenant's lane is at cap (caller marks the
  /// job kRejected; it was never queued).
  bool push(std::shared_ptr<detail::JobState> job) {
    std::lock_guard lock(mu_);
    Lane& l = lane(fold_tenant(job->tenant));
    if (cap_ != 0 && l.q.size() >= cap_) return false;
    l.q.push_back(std::move(job));
    const std::size_t d = depth_.load(std::memory_order_relaxed) + 1;
    // xk-order: the lane-depth word is only a hint for idle polls; the job
    // itself is handed over under mu_, which every popper takes.
    depth_.store(d, std::memory_order_relaxed);
    if (d > max_depth_) max_depth_ = d;
    return true;
  }

  /// Smooth weighted round-robin over non-empty lanes: each pick adds
  /// every contender's weight to its credit, takes the highest-credit
  /// lane (lowest tenant id on ties) and charges it the contenders' total
  /// weight. A weight-w lane gets w picks per sum-of-weights rounds and a
  /// weight-1 lane is never starved. Returns null when everything is dry.
  std::shared_ptr<detail::JobState> pop() {
    std::lock_guard lock(mu_);
    std::int64_t total = 0;
    Lane* best = nullptr;
    for (Lane& l : lanes_) {
      if (l.q.empty()) continue;
      l.credit += l.weight;
      total += l.weight;
      if (best == nullptr || l.credit > best->credit) best = &l;
    }
    if (best == nullptr) return nullptr;
    best->credit -= total;
    auto job = std::move(best->q.front());
    best->q.pop_front();
    // xk-order: hint only, as in push(); the hand-off rides mu_.
    depth_.store(depth_.load(std::memory_order_relaxed) - 1,
                 std::memory_order_relaxed);
    return job;
  }

  /// Jobs queued across all lanes: a lock-free hint (see jobs_waiting).
  std::size_t depth() const { return depth_.load(std::memory_order_relaxed); }

  std::size_t max_depth() const {
    std::lock_guard lock(mu_);
    return max_depth_;
  }

 private:
  struct Lane {
    std::deque<std::shared_ptr<detail::JobState>> q;
    std::int64_t credit = 0;
    unsigned weight = 1;
  };

  /// Lanes materialize on first touch (mu_ held).
  Lane& lane(unsigned t) {
    if (t >= lanes_.size()) lanes_.resize(t + 1);
    return lanes_[t];
  }

  mutable std::mutex mu_;
  std::vector<Lane> lanes_;
  std::size_t cap_;
  std::atomic<std::size_t> depth_{0};  ///< written under mu_
  std::size_t max_depth_ = 0;
};

namespace detail {

/// The lanes, the service counters and the service thread. A Runtime
/// member, so the lanes outlive every worker that can poll them; only the
/// thread starts lazily, at the first submit. ~Runtime stops it before
/// the pool joins: every job still queued runs (admission is a promise).
struct ServiceState {
  explicit ServiceState(Runtime& rt);

  JobToken submit(std::function<void(JobContext&)> fn,
                  const SubmitOptions& opts);
  ServiceStats stats() const;

  /// True when the lanes may hold a job: one relaxed load of the
  /// lane-depth word. Possibly stale; a poll that misses a fresh push is
  /// covered by the submit's wake.
  bool jobs_waiting() const { return queue.depth() != 0; }

  /// Pops one queued job and runs it on `w`: body, children, settle.
  /// False, after a single load, when the lanes look dry.
  bool try_run(Worker& w) { return jobs_waiting() && run_one(w); }

  /// Stops the service thread once every admitted job ran.
  void shutdown();

  Runtime& rt;
  ServiceQueue queue;
  Parker submit_parker;  ///< the thread sleeps here between sections
  std::atomic<bool> stop{false};
  std::atomic<unsigned> running{0};  ///< pulled jobs not yet settled
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> sections{0};
  std::once_flag started;
  std::thread thread;

 private:
  bool run_one(Worker& w);
  void service_main();
};

}  // namespace detail

}  // namespace xk
