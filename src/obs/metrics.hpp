// Machine-readable metrics snapshot — the counter side of the xk_obs
// subsystem.
//
// A MetricsSnapshot is a generic bag of named counters plus the
// per-domain gauge rows of the occupancy board, filled by
// Runtime::metrics_snapshot() (core depends on obs, not the other way
// round — this type deliberately knows nothing about WorkerStats or
// OccupancyBoard). Three consumers share it:
//  * bench/common.hpp embeds to_json() output as the `counters` /
//    `domains` objects of a schema-v1 BENCH_*.json record;
//  * the Chrome trace writer appends one snapshot per traced runtime
//    under the file's top-level "metrics" key;
//  * XK_STATS=1 dumps it human-readably to stderr at section end.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace xk::obs {

struct MetricsSnapshot {
  /// Aggregated scheduler counters, in WorkerStats declaration order.
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  /// One row per dense locality-domain rank of the OccupancyBoard.
  struct DomainGauge {
    unsigned rank = 0;
    std::int64_t occupied = 0;  ///< workers with a non-empty frame stack
  };
  std::vector<DomainGauge> domains;

  std::int64_t root_occupied = 0;  ///< machine-wide occupied-domain count
  unsigned nworkers = 0;

  /// JSON object:
  ///   {"nworkers":N,"root_occupied":R,
  ///    "counters":{"tasks_spawned":...,...},
  ///    "domains":[{"rank":0,"occupied":...},...]}
  /// `indent` spaces prefix every line after the first (for embedding in
  /// an already-indented report); 0 keeps it multi-line but flush-left.
  std::string to_json(int indent = 0) const;

  /// Human-readable dump (the XK_STATS=1 stderr format): one counters
  /// line in declaration order, then one gauge line per domain.
  void dump(std::ostream& os) const;
};

}  // namespace xk::obs
