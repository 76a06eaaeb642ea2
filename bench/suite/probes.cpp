// Layer probes: short, fixed micro-runs on the workload's own runtimes,
// each timing one layer of the task path from outside (traced pass only).
//
//   spawn / frame  1024 empty spawns at 1 worker (plain, and with one
//                  xk::write each); the sync that drains them
//   access         1024 tasks with xk::rw on distinct cells vs on one cell
//                  (each completion releases the next), at P workers
//   steal / park   the root spawns a task that stamps its start and spins
//                  on the stamp without syncing: spawn return -> start, hot
//                  and after a 2 ms idle gap (the thief has parked)
//   runtime        an empty section; the Runtime constructor
//   foreach        parallel_for(0, 4096) with an empty body
//   service        closed-loop submit -> wait round trips
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "suite.hpp"
#include "support/timing.hpp"

namespace suite {

namespace {

constexpr int kTasks = 1024;

double per_task_ns(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) / kTasks;
}

/// Spawn return -> task start (ns) for `n` single-task rounds, each after
/// `gap` of idling. Needs at least two workers.
std::vector<double> steal_probe(xk::Runtime& rt, int n,
                                std::chrono::microseconds gap) {
  std::vector<double> out;
  rt.run([&] {
    for (int i = 0; i < n; ++i) {
      if (gap.count() > 0) std::this_thread::sleep_for(gap);
      std::atomic<std::uint64_t> started{0};
      xk::spawn([&started] {
        started.store(xk::monotonic_ns(), std::memory_order_release);
      });
      const std::uint64_t t_ret = xk::monotonic_ns();
      std::uint64_t s = 0;
      while ((s = started.load(std::memory_order_acquire)) == 0 &&
             xk::monotonic_ns() - t_ret < 100000000) {
      }
      if (s != 0) out.push_back(s > t_ret ? static_cast<double>(s - t_ret) : 0);
      xk::sync();  // runs the task here if no thief took it in 100 ms
    }
  });
  return out;
}

}  // namespace

void run_probes(xk::Runtime& rt_p, xk::Runtime& rt_1, Result& res,
                bool service_detail) {
  Metrics& m = res.metrics;

  // Spawn path at 1 worker.
  std::vector<double> spawn_ns, write_ns, drain_ns;
  std::vector<std::uint64_t> cells(kTasks, 0);
  for (int rep = 0; rep < 64; ++rep) {
    rt_1.run([&] {
      std::uint64_t t0 = xk::monotonic_ns();
      for (int i = 0; i < kTasks; ++i) xk::spawn([] {});
      std::uint64_t t1 = xk::monotonic_ns();
      xk::sync();
      const std::uint64_t t2 = xk::monotonic_ns();
      spawn_ns.push_back(per_task_ns(t0, t1));
      drain_ns.push_back(per_task_ns(t1, t2));
      t0 = xk::monotonic_ns();
      for (int i = 0; i < kTasks; ++i) {
        xk::spawn([](std::uint64_t* c) { *c = 1; }, xk::write(&cells[i]));
      }
      t1 = xk::monotonic_ns();
      xk::sync();
      write_ns.push_back(per_task_ns(t0, t1));
    });
  }
  m.set("core.spawn.ns", median(spawn_ns), "ns");
  m.set("core.spawn.write_ns", median(write_ns), "ns");
  m.set("core.frame.drain_ns", median(drain_ns), "ns");

  // Access declarations at P workers: independent vs chained rw tasks.
  std::vector<double> rw_ns, chain_ns;
  std::vector<std::uint64_t> distinct(kTasks, 0);
  std::uint64_t one = 0;
  constexpr int kAccessReps = 32;
  for (int rep = 0; rep < kAccessReps; ++rep) {
    for (const bool chained : {false, true}) {
      rt_p.run([&] {
        const std::uint64_t t0 = xk::monotonic_ns();
        for (int i = 0; i < kTasks; ++i) {
          xk::spawn([](std::uint64_t* c) { ++*c; },
                    xk::rw(chained ? &one : &distinct[i]));
        }
        xk::sync();
        (chained ? chain_ns : rw_ns).push_back(
            per_task_ns(t0, xk::monotonic_ns()));
      });
    }
  }
  if (one != std::uint64_t{kAccessReps} * kTasks ||
      distinct[kTasks - 1] != kAccessReps) {
    res.error("access probe: rw tasks lost or repeated an update");
  }
  m.set("core.access.rw_ns", median(rw_ns), "ns");
  m.set("core.access.chain_ns", median(chain_ns), "ns");

  // Steal round trip and park -> wake, on the pool (a temporary 2-worker
  // runtime when the pool has a single worker).
  std::unique_ptr<xk::Runtime> pair;
  xk::Runtime* thieves = &rt_p;
  if (rt_p.nworkers() < 2) {
    pair = std::make_unique<xk::Runtime>(make_config(2));
    thieves = pair.get();
  }
  const std::vector<double> hot =
      steal_probe(*thieves, 400, std::chrono::microseconds(0));
  const std::vector<double> parked =
      steal_probe(*thieves, 100, std::chrono::microseconds(2000));
  pair.reset();
  m.set("core.steal.roundtrip_ns_p50", median(hot), "ns");
  m.set("core.steal.roundtrip_ns_p99", quantile(hot, 0.99), "ns");
  m.set("core.park.wake_us_p50", median(parked) * 1e-3, "us");
  m.set("core.park.wake_us_p99", quantile(parked, 0.99) * 1e-3, "us");

  // Section open/close and Runtime construction.
  std::vector<double> section_us;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t t0 = xk::monotonic_ns();
    rt_p.run([] {});
    section_us.push_back(static_cast<double>(xk::monotonic_ns() - t0) * 1e-3);
  }
  m.set("core.runtime.section_us", median(section_us), "us");
  std::vector<double> ctor_ms;
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t0 = xk::monotonic_ns();
    auto rt = std::make_unique<xk::Runtime>(make_config(rt_p.nworkers()));
    ctor_ms.push_back(static_cast<double>(xk::monotonic_ns() - t0) * 1e-6);
  }
  m.set("core.runtime.ctor_ms", median(ctor_ms), "ms");

  // One adaptive foreach over an empty body.
  std::vector<double> call_us;
  rt_p.run([&] {
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t t0 = xk::monotonic_ns();
      xk::parallel_for(0, 4096, [](std::int64_t, std::int64_t) {});
      call_us.push_back(static_cast<double>(xk::monotonic_ns() - t0) * 1e-3);
    }
  });
  m.set("core.foreach.call_us", median(call_us), "us");

  // Closed-loop service round trips on the pool.
  const xk::ServiceStats before = rt_p.service_stats();
  JobStamps st;
  std::vector<double> roundtrip_us;
  for (int i = 0; i < 520; ++i) {
    std::atomic<std::uint64_t> start{0}, done{0};
    const std::uint64_t t0 = xk::monotonic_ns();
    const xk::JobToken tok = rt_p.submit([&start, &done] {
      start.store(xk::monotonic_ns(), std::memory_order_relaxed);
      volatile double sink = spin_work(kJobSpinIters);
      (void)sink;
      done.store(xk::monotonic_ns(), std::memory_order_relaxed);
    });
    const std::uint64_t t1 = xk::monotonic_ns();
    tok.wait();
    const std::uint64_t s = start.load(std::memory_order_relaxed);
    const std::uint64_t d = done.load(std::memory_order_relaxed);
    if (tok.status() != xk::JobStatus::kDone || d == 0) {
      res.error("service probe: job did not complete");
      continue;
    }
    if (i < 20) continue;  // the first jobs start the dispatcher
    roundtrip_us.push_back(static_cast<double>(d - t0) * 1e-3);
    st.submit_ns.push_back(static_cast<double>(t1 - t0));
    st.queue_us.push_back(s > t1 ? static_cast<double>(s - t1) * 1e-3 : 0.0);
    st.run_us.push_back(static_cast<double>(d - s) * 1e-3);
  }
  m.set("core.service.roundtrip_us_p50", median(roundtrip_us), "us");
  if (service_detail) {
    const xk::ServiceStats after = rt_p.service_stats();
    service_layer_metrics(
        st,
        1000.0 * static_cast<double>(after.sections - before.sections) /
            static_cast<double>(
            std::max<std::uint64_t>(after.completed - before.completed, 1)),
        static_cast<double>(after.max_queued), m);
  }
}

}  // namespace suite
