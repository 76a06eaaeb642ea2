// Service workloads: service_light and service_heavy.
//
// Open loop: a seeded Poisson schedule fixes every arrival in advance and
// the generator (main, pinned off the pool's CPUs) submits each job at its
// scheduled instant whatever the runtime is doing. A job's latency runs
// from its *scheduled* arrival to the completion stamp its body writes,
// so a stall also charges the jobs queued behind it; how late the
// generator itself ran is reported separately. Tokens are dropped right
// after the admission check; completion is accounted through one stamp
// slot per job, which keeps memory flat over millions of jobs.
//
// A run is about four rounds a second, each of three blocks in rotating
// order: an open-loop segment on the pool of P-1 workers (pool +
// dispatcher + generator = P threads), a closed-loop segment on a 1-worker
// runtime (submit, wait, repeat), and the reference: the same job body
// handed to a bare helper thread and back, with no runtime in between.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "spans.hpp"
#include "suite.hpp"
#include "support/rng.hpp"
#include "support/timing.hpp"

namespace suite {

namespace {

constexpr unsigned kTenants = 2;
constexpr double kOpenShare = 0.75;   ///< of a round: open-loop segment
constexpr double kClosedShare = 0.2;  ///< of a round: closed loop
constexpr int kRefPerRound = 40;      ///< reference hand-offs per round

struct Spec {
  double rate;  ///< offered jobs per second
};

// service_heavy offers ~40% of the rate at which this pool saturates
// (~550k jobs/s on a 4-core Xeon VM: at 600k/s the lanes fill and
// admission starts rejecting).
Spec spec_for(const std::string& name) {
  return name == "service_light" ? Spec{20000.0} : Spec{200000.0};
}

/// Exponential gaps at `rate` for `seconds`: arrival offsets in ns.
std::vector<std::uint64_t> poisson_schedule(xk::Rng& rng, double rate,
                                            double seconds) {
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.next_double(0.0, 1.0)) / rate;
    if (t >= seconds) break;
    out.push_back(static_cast<std::uint64_t>(t * 1e9));
  }
  return out;
}

/// One open-loop segment's per-job slots, shared with the job bodies.
struct Segment {
  explicit Segment(std::size_t n, bool traced_)
      : done(new std::atomic<std::uint64_t>[n]), traced(traced_) {
    for (std::size_t i = 0; i < n; ++i) {
      done[i].store(0, std::memory_order_relaxed);
    }
    if (traced) {
      start.assign(n, 0);
      submit_end.assign(n, 0);
      submit_ns.assign(n, 0);
    }
  }

  std::unique_ptr<std::atomic<std::uint64_t>[]> done;  ///< completion stamp
  std::vector<std::uint64_t> start;       ///< body start (traced)
  std::vector<std::uint64_t> submit_end;  ///< submit() return (traced)
  std::vector<std::uint64_t> submit_ns;   ///< submit() duration (traced)
  std::atomic<std::uint64_t> finished{0};
  std::atomic<std::uint64_t> stamped_twice{0};
  std::uint64_t id_base = 0;
  bool traced;
};

void job_body(Segment* s, std::size_t i) {
  {
    spans::Scope sp("core.service.job", s->id_base + i);
    if (s->traced) s->start[i] = xk::monotonic_ns();
    volatile double sink = spin_work(kJobSpinIters);
    (void)sink;
    if (s->done[i].exchange(xk::monotonic_ns(), std::memory_order_relaxed) !=
        0) {
      s->stamped_twice.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Release: the stamps and span above happen-before the generator's
  // acquire read of the count.
  s->finished.fetch_add(1, std::memory_order_release);
}

/// Per-job results of the open-loop segments of one kind.
struct OpenSeries {
  Rounds lat_us;               ///< scheduled arrival -> completion
  std::vector<double> lag_us;  ///< how late the generator submitted
  JobStamps stamps;            ///< traced segments only
  std::uint64_t rejected = 0;
  std::uint64_t jobs = 0;
};

/// Waits until `pred` holds or 30 s have passed; false on time-out.
template <typename Pred>
bool wait_until(Pred&& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

/// Runs one open-loop segment on `rt`. Returns false when jobs did not
/// finish in time (their slots are then leaked, never freed under them).
bool open_loop(xk::Runtime& rt, const std::vector<std::uint64_t>& sched,
               bool traced, std::uint64_t id_base, OpenSeries& out,
               Result& res) {
  const std::size_t n = sched.size();
  auto seg = std::make_unique<Segment>(n, traced);
  seg->id_base = id_base;
  Segment* s = seg.get();
  const xk::ServiceStats before = rt.service_stats();
  std::vector<char> rejected(n, 0);
  std::uint64_t nrejected = 0;
  spans::enable(traced);

  const std::uint64_t t0 = xk::monotonic_ns();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t due = t0 + sched[i];
    std::uint64_t now = xk::monotonic_ns();
    while (now < due) now = xk::monotonic_ns();
    out.lag_us.push_back(static_cast<double>(now - due) * 1e-3);
    xk::SubmitOptions o;
    o.tenant = static_cast<unsigned>(i % kTenants);
    bool refused = false;
    if (traced) {
      spans::Scope sp("core.service.submit", id_base + i);
      const std::uint64_t s0 = xk::monotonic_ns();
      const xk::JobToken tok = rt.submit([s, i] { job_body(s, i); }, o);
      const std::uint64_t s1 = xk::monotonic_ns();
      refused = tok.status() == xk::JobStatus::kRejected;
      s->submit_ns[i] = s1 - s0;
      s->submit_end[i] = s1;
    } else {
      refused = rt.submit([s, i] { job_body(s, i); }, o).status() ==
                xk::JobStatus::kRejected;
    }
    if (refused) {
      rejected[i] = 1;
      ++nrejected;
    }
  }
  const std::uint64_t admitted = n - nrejected;
  const bool finished = wait_until([&] {
    return s->finished.load(std::memory_order_acquire) >= admitted &&
           rt.service_stats().completed - before.completed >= admitted;
  });
  spans::enable(false);
  res.attempted += n;
  out.jobs += n;
  out.rejected += nrejected;
  res.failed += nrejected;
  if (!finished) {
    const std::uint64_t got = s->finished.load(std::memory_order_acquire);
    res.failed += admitted - got;
    res.error("open loop: " + std::to_string(admitted - got) +
              " admitted jobs unfinished after 30 s");
    (void)seg.release();  // bodies may still run: leave their slots alive
    return false;
  }

  std::uint64_t missing = 0, stray = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t done = s->done[i].load(std::memory_order_relaxed);
    if (rejected[i]) {
      stray += done != 0 ? 1 : 0;
      continue;
    }
    if (done == 0) {
      ++missing;
      continue;
    }
    out.lat_us.add(static_cast<double>(done - (t0 + sched[i])) * 1e-3);
    if (traced) {
      out.stamps.submit_ns.push_back(static_cast<double>(s->submit_ns[i]));
      const std::uint64_t st = s->start[i];
      const std::uint64_t se = s->submit_end[i];
      out.stamps.queue_us.push_back(
          st > se ? static_cast<double>(st - se) * 1e-3 : 0.0);
      out.stamps.run_us.push_back(static_cast<double>(done - st) * 1e-3);
    }
  }
  const xk::ServiceStats after = rt.service_stats();
  const std::uint64_t twice = s->stamped_twice.load(std::memory_order_relaxed);
  if (missing != 0 || stray != 0 || twice != 0) {
    res.failed += missing + stray + twice;
    res.error("open loop: " + std::to_string(missing) +
              " admitted jobs without a stamp, " + std::to_string(stray) +
              " rejected jobs with one, " + std::to_string(twice) +
              " stamped twice");
  }
  if (after.completed - before.completed != admitted ||
      after.rejected - before.rejected != nrejected ||
      after.failed != before.failed || after.cancelled != before.cancelled) {
    res.error("open loop: service_stats accounting differs (completed " +
              std::to_string(after.completed - before.completed) + " of " +
              std::to_string(admitted) + ", rejected " +
              std::to_string(after.rejected - before.rejected) + " of " +
              std::to_string(nrejected) + ")");
  }
  return true;
}

/// Closed loop on `rt` for `seconds`: submit one job, wait, repeat.
/// Latency = submit call -> completion stamp.
void closed_loop(xk::Runtime& rt, double seconds, Rounds& lat_us,
                 Result& res) {
  const std::uint64_t end =
      xk::monotonic_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    std::atomic<std::uint64_t> done{0};
    const std::uint64_t t0 = xk::monotonic_ns();
    const xk::JobToken tok = rt.submit([&done] {
      volatile double sink = spin_work(kJobSpinIters);
      (void)sink;
      done.store(xk::monotonic_ns(), std::memory_order_relaxed);
    });
    tok.wait();
    ++res.attempted;
    const std::uint64_t stamp = done.load(std::memory_order_relaxed);
    if (tok.status() != xk::JobStatus::kDone || stamp == 0) {
      res.fail("closed loop: job did not complete");
      continue;
    }
    lat_us.add(static_cast<double>(stamp - t0) * 1e-3);
  } while (xk::monotonic_ns() < end);
}

/// The reference for one job: its body run by a bare helper thread, woken
/// through std::atomic wait/notify (a futex) and waking the caller back
/// the same way — what a job hand-off costs on this host without the
/// runtime.
class Handoff {
 public:
  explicit Handoff(unsigned cpu)
      : helper_([this, cpu] {
          pin_self(cpu);
          std::uint32_t seen = 0;
          for (;;) {
            req_.wait(seen, std::memory_order_acquire);
            seen = req_.load(std::memory_order_acquire);
            if (stop_.load(std::memory_order_acquire)) return;
            volatile double sink = spin_work(kJobSpinIters);
            (void)sink;
            ack_.store(seen, std::memory_order_release);
            ack_.notify_one();
          }
        }) {}

  ~Handoff() {
    stop_.store(true, std::memory_order_release);
    req_.fetch_add(1, std::memory_order_acq_rel);
    req_.notify_one();
    helper_.join();
  }

  Handoff(const Handoff&) = delete;
  Handoff& operator=(const Handoff&) = delete;

  /// One hand-off and back, in us.
  double round_trip_us() {
    const std::uint64_t t0 = xk::monotonic_ns();
    const std::uint32_t v = req_.fetch_add(1, std::memory_order_acq_rel) + 1;
    req_.notify_one();
    std::uint32_t got = ack_.load(std::memory_order_acquire);
    while (got != v) {
      ack_.wait(got, std::memory_order_acquire);
      got = ack_.load(std::memory_order_acquire);
    }
    return static_cast<double>(xk::monotonic_ns() - t0) * 1e-3;
  }

 private:
  std::atomic<std::uint32_t> req_{0};
  std::atomic<std::uint32_t> ack_{0};
  std::atomic<bool> stop_{false};
  std::thread helper_;  ///< last: starts once the atomics exist
};

}  // namespace

void service_layer_metrics(const JobStamps& st, double sections_per_kjob,
                           double max_queued, Metrics& out) {
  out.set("core.service.submit_ns_p50", median(st.submit_ns), "ns");
  out.set("core.service.submit_ns_p99", quantile(st.submit_ns, 0.99), "ns");
  out.set("core.service.queue_us_p50", median(st.queue_us), "us");
  out.set("core.service.queue_us_p99", quantile(st.queue_us, 0.99), "us");
  out.set("core.service.run_us_p50", median(st.run_us), "us");
  out.set("core.service.sections_per_kjob", sections_per_kjob, "count");
  out.set("core.service.max_queued", max_queued, "count");
}

int run_service(const Options& opt, Result& res) {
  const Spec spec = spec_for(opt.workload);
  const unsigned nworkers = std::max(opt.P, 2u) - 1;
  const int rounds = rounds_for(opt.seconds);
  const double round_s = opt.seconds / rounds;
  // Segment k of the run: open-loop halves in the traced pass.
  const int segs_per_round = opt.traced ? 2 : 1;
  const double seg_s = kOpenShare * round_s / segs_per_round;

  // Set-up of an epoch (see kSetups): the arrival schedules of its rounds,
  // both runtimes, and the warm-up.
  std::vector<double> setup_s;
  xk::Rng rng(opt.seed);
  std::vector<std::vector<std::uint64_t>> schedules(
      static_cast<std::size_t>(rounds * segs_per_round));
  std::unique_ptr<xk::Runtime> rt_p;
  std::unique_ptr<xk::Runtime> rt_1;
  std::uint64_t max_queued = 0;  // over every epoch's pool
  const auto set_up = [&](int epoch) {
    if (rt_p) {
      max_queued = std::max(max_queued, rt_p->service_stats().max_queued);
    }
    rt_p.reset();
    rt_1.reset();
    const std::uint64_t t0 = xk::monotonic_ns();
    for (int r = 0; r < rounds; ++r) {
      if (epoch_of(r, rounds) != epoch) continue;
      for (int h = 0; h < segs_per_round; ++h) {
        schedules[static_cast<std::size_t>(r * segs_per_round + h)] =
            poisson_schedule(rng, spec.rate, seg_s);
      }
    }
    const std::vector<std::uint64_t> warm =
        poisson_schedule(rng, spec.rate, 1000.0 / spec.rate);
    rt_p = std::make_unique<xk::Runtime>(make_config(nworkers));
    rt_1 = std::make_unique<xk::Runtime>(make_config(1));
    pin_outside(*rt_p);
    // Warm-up: ~1000 jobs at the workload's rate (starts the dispatcher
    // and faults in the pool), then closed-loop jobs on the 1-worker side.
    Result warm_res;
    OpenSeries ignored;
    ignored.lat_us.next_round();
    open_loop(*rt_p, warm, false, 0, ignored, warm_res);
    Rounds ignored_lat;
    ignored_lat.next_round();
    closed_loop(*rt_1, 0.02, ignored_lat, warm_res);
    if (!warm_res.errors.empty()) res.error("warm-up: " + warm_res.errors[0]);
    setup_s.push_back(static_cast<double>(xk::monotonic_ns() - t0) * 1e-9);
  };
  set_up(0);
  res.sizes.emplace_back("rate_per_s", std::to_string(spec.rate));
  res.sizes.emplace_back("tenants", std::to_string(kTenants));
  res.sizes.emplace_back("job_spin_iters", std::to_string(kJobSpinIters));
  res.sizes.emplace_back("pool_workers", std::to_string(nworkers));

  Sentinel sentinel;
  // The helper sits on the dispatcher's CPU, idle while the reference runs.
  Handoff handoff(rt_p->placement().slots[0].cpu_os_id);
  OpenSeries untraced, traced;
  Rounds lat_1w, ref;
  CounterDelta counters;
  double sections = 0.0;
  std::uint64_t next_id = 1;
  const auto open_block = [&](int r) {
    for (int h = 0; h < segs_per_round; ++h) {
      const auto& sched =
          schedules[static_cast<std::size_t>(r * segs_per_round + h)];
      bool ok = true;
      if (opt.traced && (h + r) % 2 == 1) {
        ok = open_loop(*rt_p, sched, true, next_id, traced, res);
      } else {
        // Let the dispatcher's idle grace expire so the counter reads see
        // a quiesced pool.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const auto sec0 = rt_p->service_stats().sections;
        counters.begin(*rt_p);
        ok = open_loop(*rt_p, sched, false, next_id, untraced, res);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        counters.end(*rt_p);
        sections +=
            static_cast<double>(rt_p->service_stats().sections - sec0);
      }
      next_id += sched.size();
      if (!ok) return false;
    }
    return true;
  };
  for (int r = 0; r < rounds; ++r) {
    if (new_epoch(r, rounds)) set_up(epoch_of(r, rounds));
    for (Rounds* s : {&untraced.lat_us, &traced.lat_us, &lat_1w, &ref}) {
      s->next_round();
    }
    sentinel.sample();
    for (int b = 0; b < 3; ++b) {
      switch ((b + r) % 3) {
        case 0:
          if (!open_block(r)) return 1;
          break;
        case 1:
          closed_loop(*rt_1, kClosedShare * round_s, lat_1w, res);
          break;
        default:
          // Gaps long enough for the helper to fall asleep, as the
          // dispatcher does between arrivals.
          for (int i = 0; i < kRefPerRound; ++i) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            ref.add(handoff.round_trip_us());
          }
          break;
      }
    }
    std::fprintf(stderr, "%s round %d: open loop p50 %.2f us p90 %.2f us, "
                 "1w %.2f us, ref %.2f us\n", opt.workload.c_str(), r,
                 median(untraced.lat_us.last()),
                 quantile(untraced.lat_us.last(), 0.9), median(lat_1w.last()),
                 median(ref.last()));
  }

  Metrics& m = res.metrics;
  res.sizes.emplace_back("jobs_open_loop", std::to_string(untraced.jobs));
  res.sizes.emplace_back("jobs_closed_loop", std::to_string(lat_1w.size()));
  if (!opt.traced) {
    op_e2e_metrics(setup_s, untraced.lat_us, lat_1w, ref, m);
    return 0;
  }

  const std::vector<double> lat_all = untraced.lat_us.all();
  counter_metrics(counters, static_cast<double>(lat_all.size()), m);
  op_layer_metrics(untraced.lat_us, traced.lat_us, lat_1w, ref, sentinel, m);
  tail_metrics(lat_all, untraced.lag_us, untraced.rejected, m);
  m.set("linalg.body_frac", 0.0, "ratio");
  m.set("core.foreach.body_frac", 0.0, "ratio");
  max_queued = std::max(max_queued, rt_p->service_stats().max_queued);
  service_layer_metrics(traced.stamps,
                        untraced.jobs > 0
                            ? 1000.0 * sections /
                                  static_cast<double>(untraced.jobs)
                            : 0.0,
                        static_cast<double>(max_queued), m);
  res.sizes.emplace_back("jobs_traced", std::to_string(traced.jobs));
  run_probes(*rt_p, *rt_1, res, false);
  return 0;
}

}  // namespace suite
