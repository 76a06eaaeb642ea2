// Runtime configuration knobs.
//
// Every mechanism the paper describes as an optimization (steal-request
// aggregation §II-C, the ready-list accelerating structure §II-C, renaming
// §II-B) is individually switchable so the ablation benches can isolate its
// contribution, and so tests can exercise each code path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "support/cpu.hpp"

namespace xk {

struct Config {
  /// Worker thread count (the paper: one thread per core by default).
  unsigned nworkers = 0;  // 0 => default_worker_count()

  /// Bind worker i to core i (mod cores); the paper binds via affinity mask.
  bool bind_threads = true;

  /// Steal-request aggregation: one elected thief (the combiner) replies to
  /// all pending requests in a single victim traversal (§II-C). When off,
  /// a combiner serves only its own request — classic work stealing.
  bool steal_aggregation = true;

  /// Attach the ready-list accelerating structure to a frame once a steal
  /// traversal has scanned this many tasks without serving all requests.
  /// 0 disables the ready list entirely. Kept small: until the list
  /// attaches, every combiner round pays a readiness scan that grows with
  /// the square of the frame's live prefix (docs/TUNING.md).
  std::size_t ready_list_threshold = 16;

  /// Break WAR/WAW dependencies by renaming (redirecting a writer task to a
  /// runtime-owned buffer, committed in program order). Costs one copy per
  /// renamed region, exactly as the paper states.
  bool renaming = false;

  /// Synthetic topology spec (XK_TOPO, "<nodes>x<cores>[x<smt>]"). Empty
  /// defers to the XK_TOPO environment variable when set, else sysfs
  /// discovery — mirroring nworkers = 0 → XK_NCPU, so directly-constructed
  /// Configs (the test-suite idiom) still honor a CI-provided shape.
  /// Malformed specs are ignored with a note.
  std::string topo;

  /// Explicit worker→cpu map (XK_CPUSET, Linux cpulist syntax: "0-3,8").
  /// Worker i binds to the i-th listed cpu (wrapping); overrides the
  /// placement policy. Empty defers to XK_CPUSET when set, else places by
  /// policy.
  std::string cpuset;

  /// Placement policy (XK_PLACE): "compact" packs a NUMA node before
  /// spilling to the next, "scatter" round-robins nodes. Empty defers to
  /// XK_PLACE when set, else compact; unknown values fall back to compact.
  std::string place;

  /// Chrome trace-event output path (XK_TRACE). Non-empty arms the
  /// per-worker trace rings: every scheduler hook records into its
  /// worker's ring and Runtime::end() drains them into this file (one pid
  /// per runtime, one tid per worker; see src/obs/ and
  /// docs/OBSERVABILITY.md). Empty defers to the XK_TRACE environment
  /// variable (the topo/cpuset idiom), so directly-constructed Configs
  /// still honor a CI-provided path; empty both ways disables recording
  /// entirely — the hooks reduce to one thread-local load and a branch.
  std::string trace_path;

  /// Per-worker trace-ring capacity in events (XK_TRACE_CAP, rounded up
  /// to a power of two, at most 2^20; one event is a cache line). The ring overwrites
  /// its oldest events on overflow — the drop count lands in the trace
  /// file. 0 defers to XK_TRACE_CAP, else 16384 (~1 MiB per worker).
  std::size_t trace_cap = 0;

  /// XK_STATS: dump the aggregated WorkerStats counters and the
  /// occupancy board's per-domain gauges to stderr at every section end
  /// (Runtime::end()), so counter telemetry needs no bench harness.
  bool stats_dump = false;

  /// Maximum concurrently open parallel sections (XK_SECTIONS). Each
  /// section binds its opening thread to a master worker slot; slots
  /// beyond the first are extra Worker instances placed alongside the
  /// pool (ids >= nworkers), stealable like any other victim but never
  /// backed by a pool thread. begin() throws when every slot is busy.
  /// Clamped to >= 1. The service thread claims one of these, so a
  /// client mixing Runtime::submit with its own run()/begin() sections
  /// needs at least 2 (the default).
  unsigned sections = 2;

  /// Service-mode admission control (XK_SVC_QUEUE_CAP): per-tenant queued
  /// job cap. A submit to a full tenant lane is rejected immediately
  /// (JobStatus::kRejected) instead of queued — open-loop overload sheds
  /// at the door rather than growing an unbounded backlog. 0 = unbounded.
  std::size_t svc_queue_cap = 4096;

  /// Per-tenant scheduling weights (XK_SVC_WEIGHTS, comma list "4,2,1"
  /// for tenants 0,1,2). Unlisted tenants weigh 1. Every pop picks
  /// tenants by smooth weighted round-robin over non-empty lanes, so a
  /// weight-4 tenant gets 4 of every 5 picks against a weight-1 tenant
  /// while the weight-1 lane still drains (no starvation).
  std::string svc_weights;

  /// Builds a config from XK_* environment variables layered over defaults.
  static Config from_env();

  /// Resolved worker count (never 0).
  unsigned workers() const {
    return nworkers != 0 ? nworkers : default_worker_count();
  }
};

}  // namespace xk
