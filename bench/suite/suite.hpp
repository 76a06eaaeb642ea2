// Shared declarations of the xk_suite benchmark binary.
//
// One process runs one workload, either untraced (end-to-end metrics) or
// traced (per-layer metrics). Batch workloads (fib, cholesky, epx_loops)
// time whole solves; service workloads (service_light, service_heavy)
// time jobs submitted open-loop. See README.md for the metric map.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/xkaapi.hpp"

namespace suite {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time (set-up and probes excluded)
  bool traced = false;
  bool smoke = false;     ///< tiny inputs: exercises every path in ~1 s
  std::string trace_out;  ///< Chrome trace path (traced pass)
  unsigned P = 1;         ///< batch worker count: min(nproc, 4)
};

/// Named metric values, in emission order.
struct Metrics {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries;

  void set(const std::string& name, double value, const char* unit) {
    entries.push_back({name, value, unit});
  }
};

struct Result {
  Metrics metrics;
  std::uint64_t attempted = 0;  ///< ops run on the runtime (solves or jobs)
  std::uint64_t failed = 0;     ///< wrong, thrown, rejected or unfinished
  std::vector<std::string> errors;  ///< every failed check, in words
  std::vector<std::pair<std::string, std::string>> sizes;  ///< for meta

  /// A failed check outside the attempted ops (reference, probe, set-up).
  void error(std::string what) {
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
  /// An attempted op that failed its check.
  void fail(std::string what) {
    ++failed;
    error(std::move(what));
  }
};

int run_batch(const Options& opt, Result& res);
int run_service(const Options& opt, Result& res);

/// Layer probes on the workload's own runtimes (traced pass only).
/// `service_detail`: also report the core.service submit/queue/run,
/// sections and max_queued metrics from the probe's own jobs (workloads
/// that submit no jobs of their own).
/// A wrong probe output is recorded in `res`.
void run_probes(xk::Runtime& rt_p, xk::Runtime& rt_1, Result& res,
                bool service_detail);

/// Per-job service stamps (ns) of a traced job stream.
struct JobStamps {
  std::vector<double> submit_ns;  ///< duration of the submit() call
  std::vector<double> queue_us;   ///< submit() return -> body start
  std::vector<double> run_us;     ///< body start -> body end
};

/// core.service.{submit_ns,queue_us,run_us} quantiles plus the service
/// accounting (dispatcher sections opened per 1000 jobs, lane high-water
/// mark).
void service_layer_metrics(const JobStamps& st, double sections_per_kjob,
                           double max_queued, Metrics& out);

// ---- helpers --------------------------------------------------------------

/// Config from defaults plus a worker count: no XK_* variable is read.
inline xk::Config make_config(unsigned nworkers) {
  xk::Config cfg;
  cfg.nworkers = nworkers;
  return cfg;
}

/// Quantile with linear interpolation between order statistics.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Interquartile range over the median (0 for fewer than 2 values).
double spread(const std::vector<double>& v);

/// Rounds of a run of `seconds`: about four per second. Each round runs
/// every kind of op of the workload once or more, in an order that
/// rotates, so host drift hits all kinds alike.
inline int rounds_for(double seconds) {
  return std::max(1, static_cast<int>(seconds * 4.0 + 0.5));
}

/// Set-ups per run; setup_s is their median. The rounds are cut into this
/// many epochs (fewer in a run of fewer rounds) and each epoch starts with
/// a fresh set-up: new inputs, new runtimes, new warm-up. Spread over the
/// run, the set-ups see the same host states as the ops; and no single
/// instance's memory layout or thread start decides a whole run.
inline constexpr int kSetups = 10;

/// The epoch round `r` of `rounds` belongs to.
inline int epoch_of(int r, int rounds) {
  return r * std::min(kSetups, rounds) / rounds;
}

/// True when round `r` opens an epoch after the first (whose set-up runs
/// before round 0).
inline bool new_epoch(int r, int rounds) {
  return r > 0 && epoch_of(r, rounds) != epoch_of(r - 1, rounds);
}

/// Rounds on each side of an op's own whose reference ops normalize it.
/// Five rounds (~1.25 s) hold several reference ops even where one takes
/// 50 ms, which a single round does not, and still follow the host's
/// drift.
inline constexpr int kRefHalfWindow = 2;

/// Op times (us) of one kind, kept per round.
class Rounds {
 public:
  void next_round() { rounds_.emplace_back(); }
  void add(double us) { rounds_.back().push_back(us); }
  std::size_t size() const;
  std::vector<double> all() const;
  const std::vector<double>& last() const { return rounds_.back(); }
  /// Every op's time over the median of `base` in the rounds around its
  /// own (kRefHalfWindow on each side): the op's cost relative to work
  /// measured under the same host state.
  std::vector<double> ratios(const Rounds& base) const;

 private:
  std::vector<std::vector<double>> rounds_;
};

/// Host-noise sentinel: a fixed spin (~1 ms on a 2-3 GHz core), timed
/// between rounds. Its spread says how steady the host was during a run.
class Sentinel {
 public:
  void sample();
  double spread() const { return suite::spread(samples_); }

 private:
  static constexpr std::uint64_t kIters = 430000;
  std::vector<double> samples_;
};

/// Pins the calling thread to `cpu`.
void pin_self(unsigned cpu);

/// Pins the calling thread to one allowed CPU that none of `rt`'s pool
/// workers is placed on (no-op when every CPU hosts a worker).
void pin_outside(const xk::Runtime& rt);

/// Counter deltas of a runtime between two metrics snapshots.
class CounterDelta {
 public:
  void begin(const xk::Runtime& rt);
  void end(const xk::Runtime& rt);
  double get(const char* name) const;

 private:
  std::vector<std::pair<std::string, std::uint64_t>> start_;
  std::vector<std::pair<std::string, double>> sum_;
};

/// The end-to-end metrics (untraced pass). Every op time is taken relative
/// to the reference ops measured around it (Rounds::ratios; the same work
/// without the runtime), which cancels the host's drift: slowdown_p50/p90
/// at P workers, slowdown_1w on the 1-worker runtime, plus setup_s.
void op_e2e_metrics(const std::vector<double>& setup_s, const Rounds& at_p,
                    const Rounds& at_1, const Rounds& ref, Metrics& out);

/// The absolute op and reference times, the tracing overhead (traced over
/// untraced P-worker ops) and the host sentinel's spread (traced pass).
void op_layer_metrics(const Rounds& at_p, const Rounds& at_p_traced,
                      const Rounds& at_1, const Rounds& ref,
                      const Sentinel& sentinel, Metrics& out);

/// The per-op scheduler counters every workload reports (traced pass).
void counter_metrics(const CounterDelta& d, double ops, Metrics& out);

/// Tail metrics over per-op times in us (`lag_us`: how late the generator
/// issued ops).
void tail_metrics(const std::vector<double>& op_us,
                  const std::vector<double>& lag_us, std::uint64_t failed,
                  Metrics& out);

/// Spin `iters` dependent multiply-adds (the service job body and the
/// sentinel's fixed work). Returns the result so it cannot be elided.
double spin_work(std::uint64_t iters);

/// Spin of one service job body (~1.4 us on a 4-vCPU Xeon VM).
inline constexpr std::uint64_t kJobSpinIters = 600;

}  // namespace suite
