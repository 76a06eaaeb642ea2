// Micro — steal-path contention: N thieves vs 1 victim.
//
// The ROADMAP gap this closes: "the steal path has TSan coverage but no
// contention benchmark CI trend yet". Two workload shapes stress the two
// halves of the thief-side hot path:
//
//  * fib-tail — a fork-join recursion (each node spawns one child with a
//    Write access and recurses inline). Work per task is near zero, so the
//    run time is dominated by spawn + steal protocol cost: request posting,
//    combiner election, one-task replies, and idle parking once the tree
//    thins out.
//  * dataflow-grid — `rows` independent RW chains of length `steps`,
//    interleaved in program order. Steal-time readiness computation has to
//    skip blocked candidates, so this shape measures the incremental scan
//    cache. It seldom attaches a ready list (the `readylist_attach` counter
//    reads 0 in most rows), so it is not a measure of the ready-list pop
//    path.
//
// All worker counts run the same total work on the same machine; the
// *shape* of the curve (flat ≈ healthy steal path on an oversubscribed box,
// exploding ≈ contention) plus the emitted scheduler counters are the
// regression signal. Counters land in BENCH_micro_steal.json as the
// optional schema-v1 "counters" object.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/xkaapi.hpp"

namespace {

void fib_tail(std::uint64_t* r, int n) {
  if (n < 2) {
    *r = static_cast<std::uint64_t>(n);
    return;
  }
  std::uint64_t r1 = 0, r2 = 0;
  xk::spawn(fib_tail, xk::write(&r1), n - 1);
  fib_tail(&r2, n - 2);
  xk::sync();
  *r = r1 + r2;
}

void dataflow_grid(std::vector<double>& cells, int rows, int steps,
                   int work) {
  for (int step = 0; step < steps; ++step) {
    for (int row = 0; row < rows; ++row) {
      xk::spawn(
          [work](double* c) {
            double x = *c;
            for (int i = 0; i < work; ++i) x = x * 1.0000001 + 1e-9;
            *c = x;
          },
          xk::rw(&cells[static_cast<std::size_t>(row)]));
    }
  }
  xk::sync();
}

void add_counter_row(xk::Table& table, const char* shape, unsigned cores,
                     double t, const xk::WorkerStats& s) {
  const double per_round =
      s.combiner_rounds != 0
          ? static_cast<double>(s.requests_served) /
                static_cast<double>(s.combiner_rounds)
          : 0.0;
  table.add_row({shape, std::to_string(cores), xk::Table::num(t, 4),
                 std::to_string(s.steal_attempts),
                 std::to_string(s.steals_ok), std::to_string(s.steal_tasks),
                 std::to_string(s.combiner_rounds), xk::Table::num(per_round, 2),
                 std::to_string(s.scan_entries),
                 std::to_string(s.parks), std::to_string(s.park_wakes)});
}

}  // namespace

int main() {
  xkbench::json_begin("micro_steal");
  xkbench::preamble("Micro (steal contention)",
                    "N thieves vs 1 victim: fib-tail and dataflow-grid");
  const int fib_n = static_cast<int>(xk::env_int("XKREPRO_STEAL_FIB_N", 24));
  const int rows = static_cast<int>(xk::env_int("XKREPRO_STEAL_ROWS", 48));
  const int steps = static_cast<int>(xk::env_int("XKREPRO_STEAL_STEPS", 32));
  const int work = static_cast<int>(xk::env_int("XKREPRO_STEAL_WORK", 200));

  xk::Table table({"shape", "cores", "time(s)", "attempts", "steals-ok",
                   "steal-tasks", "combiner-rounds", "served/round",
                   "scan-entries", "parks", "park-wakes"});

  // Unrecorded process warmup so the first swept core count doesn't absorb
  // the cold start (page faults, thread spawn, frequency ramp).
  {
    xk::Runtime rt;
    std::uint64_t r = 0;
    rt.run([&] {
      fib_tail(&r, fib_n > 4 ? fib_n - 4 : fib_n);
      xk::sync();
    });
    std::vector<double> cells(static_cast<std::size_t>(rows), 1.0);
    rt.run([&] { dataflow_grid(cells, rows, steps > 4 ? steps / 4 : steps,
                               work); });
  }

  for (unsigned cores : xkbench::core_counts()) {
    // from_env so topology/placement knobs (XK_TOPO, XK_PLACE, ...) shape
    // this run like any production one (the topo CI leg sets XK_TOPO and
    // checks the steals_local/steals_remote split emitted below).
    xk::Config cfg = xk::Config::from_env();
    cfg.nworkers = cores;
    xk::Runtime rt(cfg);

    rt.reset_stats();
    std::uint64_t r = 0;
    xkbench::json_context("fib-tail", cores);
    const double t_fib = xkbench::time_best([&] {
      r = 0;
      rt.run([&] {
        fib_tail(&r, fib_n);
        xk::sync();
      });
    });
    xk::WorkerStats s = rt.stats_snapshot();
    xkbench::json_counters(rt.metrics_snapshot());
    add_counter_row(table, "fib-tail", cores, t_fib, s);

    rt.reset_stats();
    std::vector<double> cells(static_cast<std::size_t>(rows), 1.0);
    xkbench::json_context("dataflow-grid", cores);
    const double t_grid = xkbench::time_best(
        [&] { rt.run([&] { dataflow_grid(cells, rows, steps, work); }); });
    s = rt.stats_snapshot();
    xkbench::json_counters(rt.metrics_snapshot());
    add_counter_row(table, "dataflow-grid", cores, t_grid, s);
  }

  table.print_auto(std::cout);
  return 0;
}
