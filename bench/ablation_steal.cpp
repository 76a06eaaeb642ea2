// Ablation — the two §II-C optimizations, isolated:
//
//  * steal-request aggregation: k pending requests served by one elected
//    combiner ("a reduction of the total steal request number", [26]);
//  * the ready-list accelerating structure: steal cost drops from a stack
//    traversal to a pop.
//
// Workloads: fib (fork-join, aggregation-sensitive: many simultaneous
// thieves) and a wide dataflow grid (readiness-scan-heavy: the traversal
// cost the ready list amortizes). Reported: wall time + scheduler counters.
#include <cstdio>
#include <iostream>
#include <string>

#include "bench/common.hpp"
#include "core/xkaapi.hpp"

namespace {

void fib_xk(std::uint64_t* r, int n) {
  if (n < 2) {
    *r = static_cast<std::uint64_t>(n);
    return;
  }
  std::uint64_t r1 = 0, r2 = 0;
  xk::spawn(fib_xk, xk::write(&r1), n - 1);
  fib_xk(&r2, n - 2);
  xk::sync();
  *r = r1 + r2;
}

// Wide dataflow grid: `rows` independent RW chains of length `len`,
// interleaved in program order so readiness scans must skip blocked tasks.
void dataflow_grid(std::vector<double>& cells, int rows, int len) {
  for (int step = 0; step < len; ++step) {
    for (int row = 0; row < rows; ++row) {
      xk::spawn(
          [](double* c) {
            double x = *c;
            for (int i = 0; i < 2000; ++i) x = x * 1.0000001 + 1e-9;
            *c = x;
          },
          xk::rw(&cells[static_cast<std::size_t>(row)]));
    }
  }
  xk::sync();
}

struct Variant {
  const char* name;
  bool aggregation;
  std::size_t readylist_threshold;
};

}  // namespace

int main() {
  xkbench::json_begin("ablation_steal");
  xkbench::preamble("Ablation (steal path)",
                    "request aggregation and ready-list, isolated");
  const int fib_n = static_cast<int>(xk::env_int("XKREPRO_FIB_N", 25));
  const unsigned cores = static_cast<unsigned>(xk::env_int(
      "XKREPRO_ABL_CORES",
      static_cast<std::int64_t>(xkbench::core_counts().back())));

  // The ready-list variants use the default attach threshold.
  const std::size_t rl = xk::Config{}.ready_list_threshold;
  const Variant variants[] = {
      {"full (agg+RL)", true, rl},
      {"no-aggregation", false, rl},
      {"no-readylist", true, 0},
      {"neither", false, 0},
  };

  // Unrecorded process warmup: the first variant otherwise pays the cold
  // start (page faults, thread spawn, frequency ramp) and the fixed variant
  // order would bias the comparison against it.
  {
    xk::Config cfg;
    cfg.nworkers = cores;
    xk::Runtime rt(cfg);
    std::uint64_t r = 0;
    rt.run([&] {
      fib_xk(&r, fib_n > 4 ? fib_n - 4 : fib_n);
      xk::sync();
    });
    std::vector<double> cells(64, 1.0);
    rt.run([&] { dataflow_grid(cells, 64, 10); });
  }

  xk::Table table({"workload", "variant", "time(s)", "steal-attempts",
                   "steals-ok", "combiner-rounds", "aggregated-replies",
                   "rl-attach", "rl-pops", "scan-visited"});

  for (const Variant& v : variants) {
    xk::Config cfg;
    cfg.nworkers = cores;
    cfg.steal_aggregation = v.aggregation;
    cfg.ready_list_threshold = v.readylist_threshold;
    xk::Runtime rt(cfg);

    // Workload 1: fib.
    rt.reset_stats();
    std::uint64_t r = 0;
    xkbench::json_context(std::string("fib/") + v.name, cores);
    const double t_fib = xkbench::time_best([&] {
      r = 0;
      rt.run([&] {
        fib_xk(&r, fib_n);
        xk::sync();
      });
    });
    auto s = rt.stats_snapshot();
    xkbench::json_counters({{"steal_attempts", s.steal_attempts},
                            {"steals_ok", s.steals_ok},
                            {"steal_tasks", s.steal_tasks},
                            {"combiner_rounds", s.combiner_rounds},
                            {"requests_aggregated", s.requests_aggregated},
                            {"scan_visited", s.scan_visited},
                            {"scan_entries", s.scan_entries},
                            {"readylist_pops", s.readylist_pops},
                            {"parks", s.parks},
                            {"park_wakes", s.park_wakes},
                            {"probes_skipped", s.probes_skipped},
                            {"quiesce_folds", s.quiesce_folds},
                            {"join_wakes", s.join_wakes}});
    table.add_row({"fib", v.name, xk::Table::num(t_fib, 4),
                   std::to_string(s.steal_attempts),
                   std::to_string(s.steals_ok),
                   std::to_string(s.combiner_rounds),
                   std::to_string(s.requests_aggregated),
                   std::to_string(s.readylist_attach),
                   std::to_string(s.readylist_pops),
                   std::to_string(s.scan_visited)});

    // Workload 2: dataflow grid.
    rt.reset_stats();
    std::vector<double> cells(64, 1.0);
    xkbench::json_context(std::string("dataflow-grid/") + v.name, cores);
    const double t_grid = xkbench::time_best([&] {
      rt.run([&] { dataflow_grid(cells, 64, 40); });
    });
    s = rt.stats_snapshot();
    xkbench::json_counters({{"steal_attempts", s.steal_attempts},
                            {"steals_ok", s.steals_ok},
                            {"steal_tasks", s.steal_tasks},
                            {"combiner_rounds", s.combiner_rounds},
                            {"requests_aggregated", s.requests_aggregated},
                            {"scan_visited", s.scan_visited},
                            {"scan_entries", s.scan_entries},
                            {"readylist_pops", s.readylist_pops},
                            {"parks", s.parks},
                            {"park_wakes", s.park_wakes},
                            {"probes_skipped", s.probes_skipped},
                            {"quiesce_folds", s.quiesce_folds},
                            {"join_wakes", s.join_wakes}});
    table.add_row({"dataflow-grid", v.name, xk::Table::num(t_grid, 4),
                   std::to_string(s.steal_attempts),
                   std::to_string(s.steals_ok),
                   std::to_string(s.combiner_rounds),
                   std::to_string(s.requests_aggregated),
                   std::to_string(s.readylist_attach),
                   std::to_string(s.readylist_pops),
                   std::to_string(s.scan_visited)});
  }
  table.print_auto(std::cout);
  return 0;
}
