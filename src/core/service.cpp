// Service-mode implementation: the job runner idle workers call, and the
// service thread that holds a section open while jobs flow (see
// service.hpp for the state machine and runtime.hpp for how master slots
// make its sections overlap client begin()/end() pairs).
#include "core/service.hpp"

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/runtime.hpp"
#include "obs/trace.hpp"

namespace xk {
namespace detail {

namespace {

/// How long the service thread keeps its section open after the lanes ran
/// dry, so a burst in progress doesn't pay a close/reopen per lull.
constexpr std::chrono::microseconds kIdleGrace{200};

/// Executes one popped job on `w` in a fresh frame. The CAS out of kQueued
/// races only the token's cancel(); exactly one wins. A job is its body
/// plus its children: the frame is drained before the settle, and the
/// first exception of the body or of a child fails the job. Nothing leaks
/// into the enclosing frame, where it would surface in some section
/// instead of at the submitter's token.
void run_job(JobState& st, ServiceState& svc, Worker& w) {
  std::uint8_t expected = static_cast<std::uint8_t>(JobStatus::kQueued);
  if (!st.status.compare_exchange_strong(
          expected, static_cast<std::uint8_t>(JobStatus::kRunning),
          std::memory_order_acq_rel, std::memory_order_acquire)) {
    // cancel() won while the job sat queued; the token already turned
    // terminal and woke its waiters. Settle the accounting here, on the
    // executor side, so the counter writer always outlives the write.
    w.stats().svc_jobs_skipped++;
    svc.cancelled.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t t0 = obs::span_begin();
  JobContext ctx(&st);
  std::exception_ptr exc;
  // Move the body out so its captures die with the job (after the
  // children, which may reference them), not at the shared_ptr's last
  // release (a waiter may hold the token long after).
  auto fn = std::move(st.fn);
  st.fn = nullptr;
  w.push_frame();
  try {
    fn(ctx);
  } catch (...) {
    exc = std::current_exception();
  }
  try {
    w.drain_current_frame();
  } catch (...) {
    if (!exc) exc = std::current_exception();
  }
  w.pop_frame();
  fn = nullptr;
  // Counters before finish(): a waiter woken by the terminal store must
  // already see this job in service_stats() (the release store orders
  // the increment ahead of the status flip).
  if (exc) {
    st.exc = exc;
    svc.failed.fetch_add(1, std::memory_order_relaxed);
    st.finish(JobStatus::kFailed);
  } else {
    svc.completed.fetch_add(1, std::memory_order_relaxed);
    st.finish(JobStatus::kDone);
  }
  w.stats().svc_jobs_run++;
  obs::emit_span(obs::Ev::kJob, t0, st.tenant);
}

}  // namespace

ServiceState::ServiceState(Runtime& runtime)
    : rt(runtime), queue(runtime.config().svc_queue_cap) {
  // XK_SVC_WEIGHTS="4,2,1" seeds tenants 0,1,2; set_tenant_weight can
  // override later. Malformed entries are skipped (env knob policy).
  std::istringstream spec(rt.config().svc_weights);
  std::string tok;
  for (unsigned tenant = 0;
       tenant < ServiceQueue::kMaxTenants && std::getline(spec, tok, ',');
       ++tenant) {
    char* endp = nullptr;
    const long w = std::strtol(tok.c_str(), &endp, 10);
    // Upper bound alongside the sign check: a 64-bit long narrowed to
    // unsigned could wrap a huge weight to 0 and silently starve the
    // tenant the operator meant to boost.
    if (endp != tok.c_str() && w > 0 && w <= 0xffffffffL) {
      queue.set_weight(tenant, static_cast<unsigned>(w));
    }
  }
}

void ServiceState::shutdown() {
  stop.store(true, std::memory_order_release);
  submit_parker.notify_all();
  rt.work_parker().notify_all();
  if (thread.joinable()) thread.join();
}

JobToken ServiceState::submit(std::function<void(JobContext&)> fn,
                              const SubmitOptions& opts) {
  std::call_once(started, [this] {
    thread = std::thread(&ServiceState::service_main, this);
  });
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
  rt.notify_work();
  // The service thread, alone on its own parker between sections.
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

bool ServiceState::run_one(Worker& w) {
  // Counted before the pop: the service thread reads the lanes dry and
  // then `running` at zero, so it cannot miss a job popped in between.
  running.fetch_add(1, std::memory_order_seq_cst);
  std::shared_ptr<JobState> job = queue.pop();
  if (job) run_job(*job, *this, w);
  running.fetch_sub(1, std::memory_order_seq_cst);
  return job != nullptr;
}

void ServiceState::service_main() {
  for (;;) {
    // No section open and the lanes dry: sleep until a submit (or the
    // stop) wakes this thread.
    while (!stop.load(std::memory_order_acquire) && !jobs_waiting()) {
      const std::uint32_t e = submit_parker.prepare();
      submit_parker.announce();
      if (stop.load(std::memory_order_acquire) || jobs_waiting()) {
        submit_parker.retract();
        break;
      }
      submit_parker.park(e, std::chrono::milliseconds(5));
      submit_parker.retract();
    }
    // Open a section only holding a job. Idle loops still inside client
    // sections pull jobs too; a section opened on a depth read they
    // already emptied would close again on nothing, after the job's
    // token settled.
    std::shared_ptr<JobState> job = queue.pop();
    if (!job) {
      if (stop.load(std::memory_order_acquire) && !jobs_waiting()) return;
      continue;
    }
    for (;;) {
      try {
        rt.begin();  // claims a free master slot and wakes the pool
        break;
      } catch (const std::logic_error&) {
        // Every master slot is busy with client sections (XK_SECTIONS too
        // low for this mix); their idle loops pull the other jobs
        // meanwhile. Back off and retry.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    sections.fetch_add(1, std::memory_order_relaxed);
    run_job(*job, *this, *this_worker());
    job.reset();
    // Idle like a pool worker (pull, steal, park) until the lanes stayed
    // dry for the grace with no pulled job still running, so the ring and
    // stats drains in end() never race a job. Stopping skips the grace,
    // never the drain.
    auto busy_at = std::chrono::steady_clock::now();
    this_worker()->steal_idle([&] {
      const auto now = std::chrono::steady_clock::now();
      if (jobs_waiting() || running.load(std::memory_order_seq_cst) != 0) {
        busy_at = now;
        return false;
      }
      return stop.load(std::memory_order_acquire) ||
             now - busy_at >= kIdleGrace;
    });
    rt.end();
  }
}

}  // namespace detail

// ---- Runtime service glue (declared in runtime.hpp) -----------------------

JobToken Runtime::submit(std::function<void()> fn, SubmitOptions opts) {
  return service_.submit(
      [fn = std::move(fn)](JobContext&) { fn(); }, opts);
}

JobToken Runtime::submit(std::function<void(JobContext&)> fn,
                         SubmitOptions opts) {
  return service_.submit(std::move(fn), opts);
}

void Runtime::set_tenant_weight(unsigned tenant, unsigned weight) {
  service_.queue.set_weight(tenant, weight);
}

ServiceStats Runtime::service_stats() const { return service_.stats(); }

}  // namespace xk
