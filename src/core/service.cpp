// Service-mode implementation: the dispatcher thread and the job wrapper
// (see service.hpp for the state machine and runtime.hpp for how master
// slots make the dispatcher's sections overlap client begin()/end() pairs).
#include "core/service.hpp"

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/runtime.hpp"
#include "core/spawn.hpp"
#include "obs/trace.hpp"

namespace xk {
namespace detail {

namespace {

/// Dispatcher pacing: jobs spawned per burst before the tenant scheduler
/// is consulted again, jobs between two syncs of a stream that never runs
/// dry (each sync recycles the section's root frame, bounding its arena),
/// and how long a drained section stays open for the next arrival.
constexpr std::size_t kBatch = 32;
constexpr std::size_t kSyncEvery = 8192;
constexpr std::chrono::microseconds kIdleGrace{200};

/// Executes one job on whichever worker claimed its task. The CAS out of
/// kQueued races only the token's cancel(); exactly one wins. Every
/// exception is captured into the job state — a job body must never leak
/// into Task::exception, where it would surface at the *dispatcher's*
/// section end instead of the submitter's token.
void run_job(JobState& st, ServiceState& svc) {
  std::uint8_t expected = static_cast<std::uint8_t>(JobStatus::kQueued);
  if (!st.status.compare_exchange_strong(
          expected, static_cast<std::uint8_t>(JobStatus::kRunning),
          std::memory_order_acq_rel, std::memory_order_acquire)) {
    // cancel() won while the job sat queued; the token already turned
    // terminal and woke its waiters. Settle the accounting here, on the
    // executor side, so the counter writer always outlives the write.
    if (Worker* w = this_worker()) w->stats().svc_jobs_skipped++;
    svc.cancelled.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t t0 = obs::span_begin();
  JobContext ctx(&st);
  try {
    // Move the body out so captured resources die at job completion, not
    // at the shared_ptr's last release (a waiter may hold the token long
    // after).
    auto fn = std::move(st.fn);
    st.fn = nullptr;
    fn(ctx);
    // Counters before finish(): a waiter woken by the terminal store must
    // already see this job in service_stats() (the release store orders
    // the increment ahead of the status flip).
    svc.completed.fetch_add(1, std::memory_order_relaxed);
    st.finish(JobStatus::kDone);
  } catch (...) {
    st.exc = std::current_exception();
    svc.failed.fetch_add(1, std::memory_order_relaxed);
    st.finish(JobStatus::kFailed);
  }
  if (Worker* w = this_worker()) w->stats().svc_jobs_run++;
  obs::emit_span(obs::Ev::kJob, t0, st.tenant);
}

}  // namespace

ServiceState::ServiceState(Runtime& runtime)
    : rt(runtime), queue(runtime.config().svc_queue_cap) {
  // XK_SVC_WEIGHTS="4,2,1" seeds tenants 0,1,2; set_tenant_weight can
  // override later. Malformed entries are skipped (env knob policy).
  const std::string& spec = rt.config().svc_weights;
  unsigned tenant = 0;
  std::size_t pos = 0;
  while (pos < spec.size() && tenant < ServiceQueue::kMaxTenants) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string tok = spec.substr(pos, comma - pos);
    if (!tok.empty()) {
      char* endp = nullptr;
      const long w = std::strtol(tok.c_str(), &endp, 10);
      // Upper bound alongside the sign check: a 64-bit long narrowed to
      // unsigned could wrap a huge weight to 0 and silently starve the
      // tenant the operator meant to boost.
      if (endp != tok.c_str() && w > 0 && w <= 0xffffffffL) {
        queue.set_weight(tenant, static_cast<unsigned>(w));
      }
    }
    ++tenant;
    pos = comma + 1;
  }
  thread = std::thread(&ServiceState::dispatcher_main, this);
}

ServiceState::~ServiceState() {
  stop.store(true, std::memory_order_release);
  submit_parker.notify_all();
  if (thread.joinable()) thread.join();
}

JobToken ServiceState::submit(std::function<void(JobContext&)> fn,
                              const SubmitOptions& opts) {
  auto st = std::make_shared<JobState>();
  st->fn = std::move(fn);
  st->tenant = ServiceQueue::fold_tenant(opts.tenant);
  if (stop.load(std::memory_order_acquire) || !queue.push(st)) {
    st->fn = nullptr;
    st->finish(JobStatus::kRejected);
    rejected.fetch_add(1, std::memory_order_relaxed);
    return JobToken(std::move(st));
  }
  submitted.fetch_add(1, std::memory_order_relaxed);
  JobToken token(std::move(st));
  if (submit_parker.has_waiters()) submit_parker.notify_all();
  return token;
}

ServiceStats ServiceState::stats() const {
  ServiceStats s;
  s.submitted = submitted.load(std::memory_order_relaxed);
  s.rejected = rejected.load(std::memory_order_relaxed);
  s.completed = completed.load(std::memory_order_relaxed);
  s.failed = failed.load(std::memory_order_relaxed);
  s.cancelled = cancelled.load(std::memory_order_relaxed);
  s.sections = sections.load(std::memory_order_relaxed);
  s.queued = queue.depth();
  s.max_queued = queue.max_depth();
  return s;
}

void ServiceState::spawn_job(std::shared_ptr<JobState> job) {
  ServiceState* svc = this;
  xk::spawn([job = std::move(job), svc] { run_job(*job, *svc); });
}

void ServiceState::dispatcher_main() {
  for (;;) {
    // Long park between job batches (queue empty, no section open).
    while (!stop.load(std::memory_order_acquire) && queue.depth() == 0) {
      const std::uint32_t e = submit_parker.prepare();
      submit_parker.announce();
      if (stop.load(std::memory_order_acquire) || queue.depth() != 0) {
        submit_parker.retract();
        break;
      }
      submit_parker.park(e, std::chrono::milliseconds(5));
      submit_parker.retract();
    }
    if (stop.load(std::memory_order_acquire) && queue.depth() == 0) return;
    run_open_section();
  }
  // Unreached: the loop above returns only through the stop branch — a
  // stopping dispatcher still drains the whole queue first (admission is
  // a promise; tokens must all turn terminal before ~ServiceState joins).
}

void ServiceState::run_open_section() {
  // With a lone pool worker there is no thief to execute spawned jobs
  // while the dispatcher keeps feeding; sync after every burst instead.
  const bool solo = rt.nworkers() < 2;

  try {
    rt.begin();  // claims a free master slot
  } catch (const std::logic_error&) {
    // Every master slot is busy with client sections (XK_SECTIONS too
    // low for this mix). Back off and retry from the dispatcher loop —
    // the queued jobs stay admitted.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return;
  }
  sections.fetch_add(1, std::memory_order_relaxed);
  std::size_t since_sync = 0;
  for (;;) {
    std::size_t burst = 0;
    while (burst < kBatch) {
      auto job = queue.pop();
      if (!job) break;
      spawn_job(std::move(job));
      ++burst;
    }
    since_sync += burst;
    if (burst != 0) {
      if (solo || since_sync >= kSyncEvery) {
        xk::sync();
        since_sync = 0;
      }
      continue;
    }
    // Queue dry: finish what's in flight (helping the pool), then hold
    // the section open for an idle grace so a burst in progress doesn't
    // pay a close/reopen per lull.
    xk::sync();
    since_sync = 0;
    if (queue.depth() != 0) continue;
    if (stop.load(std::memory_order_acquire)) break;
    const std::uint32_t e = submit_parker.prepare();
    submit_parker.announce();
    if (queue.depth() == 0 && !stop.load(std::memory_order_acquire)) {
      submit_parker.park(e, kIdleGrace);
    }
    submit_parker.retract();
    if (queue.depth() == 0) break;  // grace expired: close and long-park
  }
  rt.end();  // drains everything still in flight
}

}  // namespace detail

// ---- Runtime service glue (declared in runtime.hpp) -----------------------

detail::ServiceState& Runtime::service() {
  if (detail::ServiceState* s = service_live_.load(std::memory_order_acquire)) {
    return *s;
  }
  std::lock_guard lock(service_mu_);
  if (!service_) {
    service_ = std::make_unique<detail::ServiceState>(*this);
    service_live_.store(service_.get(), std::memory_order_release);
  }
  return *service_;
}

JobToken Runtime::submit(std::function<void()> fn, SubmitOptions opts) {
  return service().submit(
      [fn = std::move(fn)](JobContext&) { fn(); }, opts);
}

JobToken Runtime::submit(std::function<void(JobContext&)> fn,
                         SubmitOptions opts) {
  return service().submit(std::move(fn), opts);
}

void Runtime::set_tenant_weight(unsigned tenant, unsigned weight) {
  service().queue.set_weight(tenant, weight);
}

ServiceStats Runtime::service_stats() const {
  // const_cast-free read path: the atomic pointer is set once service()
  // constructs the state and cleared only in ~Runtime.
  if (detail::ServiceState* s = service_live_.load(std::memory_order_acquire)) {
    return s->stats();
  }
  return ServiceStats{};
}

}  // namespace xk
