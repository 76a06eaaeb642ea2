// Micro — NUMA-partitioned foreach: domain-partitioned vs interleaved deal.
//
// The workload is a bandwidth-shaped sweep over a large double array
// (axpy-like update per element) executed with xk::parallel_for under two
// reserved-slice partitions:
//
//  * partitioned — ForeachPartition::kDomain: each locality domain owns one
//    contiguous sub-range; the array is first-touched under the same
//    partition, so on a real NUMA machine every domain streams its own
//    node's pages and adaptive splitting drains domain-local remainder
//    queues before crossing the boundary.
//  * interleaved — ForeachPartition::kFlat under a *scatter* placement:
//    worker-id-ordered slices alternate domains across the range, the
//    topology-blind deal this bench exists to measure against.
//
// Workers are placed with XK_PLACE=scatter so the two deals actually
// differ (under compact placement worker ids are already domain-grouped
// and the flat deal is accidentally contiguous). On single-node boxes the
// default synthetic shape (XK_TOPO unset => 2x4 here) exercises the
// partitioning code paths; the *ratio* only becomes meaningful on real
// multi-socket hardware. steals_local/steals_remote land in the schema-v1
// "counters" object of BENCH_micro_locality.json.
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/xkaapi.hpp"

namespace {

std::vector<std::pair<std::string, std::uint64_t>> counter_set(
    const xk::WorkerStats& s) {
  return {
      {"steal_attempts", s.steal_attempts},
      {"steals_ok", s.steals_ok},
      {"steals_local", s.steals_local},
      {"steals_remote", s.steals_remote},
      {"steal_tasks", s.steal_tasks},
      {"splitter_calls", s.splitter_calls},
      {"foreach_chunks", s.foreach_chunks},
      {"shard_hits", s.shard_hits},
      {"shard_misses", s.shard_misses},
      {"parks", s.parks},
  };
}

void sweep_once(double* data, std::int64_t n, xk::ForeachPartition mode) {
  xk::ForeachOptions opt;
  opt.partition = mode;
  xk::parallel_for(
      0, n,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          data[i] = data[i] * 1.0000001 + 0.5;
        }
      },
      opt);
}

/// First touch under the measured partition: the array arrives as
/// *untouched* virgin pages (default-initialized new[], nothing written),
/// so on a first-touch NUMA system this write homes each page to the node
/// of the worker the deal assigned its range to. Touching the pages any
/// earlier (e.g. a value-initializing vector on the main thread) would
/// home everything to one node and erase the very difference this bench
/// measures.
void first_touch(double* data, std::int64_t n, xk::ForeachPartition mode) {
  xk::ForeachOptions opt;
  opt.partition = mode;
  xk::parallel_for(
      0, n,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) data[i] = 1.0;
      },
      opt);
}

}  // namespace

int main() {
  xkbench::json_begin("micro_locality");
  xkbench::preamble("Micro (foreach locality)",
                    "domain-partitioned vs interleaved foreach deal "
                    "(scatter placement)");
  const auto n = static_cast<std::int64_t>(
      xk::env_int("XKREPRO_LOC_N", 1 << 22));
  const auto passes =
      static_cast<int>(xk::env_int("XKREPRO_LOC_PASSES", 8));

  xk::Table table({"mode", "cores", "time(s)", "steals-ok", "local",
                   "remote", "splits", "chunks"});

  struct Mode {
    const char* name;
    xk::ForeachPartition partition;
  };
  const Mode modes[] = {
      {"partitioned", xk::ForeachPartition::kDomain},
      {"interleaved", xk::ForeachPartition::kFlat},
  };

  for (unsigned cores : xkbench::core_counts()) {
    for (const Mode& mode : modes) {
      xk::Config cfg = xk::Config::from_env();
      cfg.nworkers = cores;
      if (!xk::env_string("XK_PLACE")) cfg.place = "scatter";
      if (cfg.topo.empty() && xk::Topology::discover().nnodes() < 2) {
        // Flat box: a synthetic two-node shape keeps the domain paths hot
        // (placement, per-domain remainder queues, hierarchical steal).
        cfg.topo = "2x4";
      }
      xk::Runtime rt(cfg);

      // Untouched allocation + in-runtime first touch (see first_touch).
      std::unique_ptr<double[]> data(new double[static_cast<std::size_t>(n)]);
      rt.run([&] { first_touch(data.get(), n, mode.partition); });

      rt.reset_stats();
      xkbench::json_context(mode.name, cores,
                            static_cast<double>(n) * passes);
      const double t = xkbench::time_best([&] {
        rt.run([&] {
          for (int p = 0; p < passes; ++p) {
            sweep_once(data.get(), n, mode.partition);
          }
        });
      });
      const xk::WorkerStats s = rt.stats_snapshot();
      xkbench::json_counters(counter_set(s));
      table.add_row({mode.name, std::to_string(cores), xk::Table::num(t, 4),
                     std::to_string(s.steals_ok),
                     std::to_string(s.steals_local),
                     std::to_string(s.steals_remote),
                     std::to_string(s.splitter_calls),
                     std::to_string(s.foreach_chunks)});
    }
  }
  table.print_auto(std::cout);
  return 0;
}
