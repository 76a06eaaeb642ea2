// xk_suite — one benchmark workload per process.
//
//   xk_suite --workload W --seed N [--seconds S] [--traced] [--smoke]
//            [--trace-out trace.json]
//
// Prints human progress on stderr and, as the last line of stdout, one
// JSON object: {"workload", "traced", "correct", "attempted", "failed",
// "errors", "metrics": {name: {"value", "unit"}}, "meta", "spans"}.
// The untraced pass emits the end-to-end metrics, the traced pass the
// per-layer ones. The seed reaches only the input generators. Exit code
// 0 means every output check passed.
#include <pthread.h>
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "spans.hpp"
#include "suite.hpp"
#include "support/timing.hpp"

namespace suite {

namespace {

std::vector<unsigned> g_allowed_cpus;  ///< the process mask at start-up

void capture_allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (unsigned c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) g_allowed_cpus.push_back(c);
    }
  }
  if (g_allowed_cpus.empty()) g_allowed_cpus.push_back(0);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string meta_json(const Options& opt, const Result& res) {
  std::ostringstream m;
  m << "{\"nproc\":" << g_allowed_cpus.size() << ",\"P\":" << opt.P
    << ",\"cpu_model\":\"" << json_escape(cpu_model()) << "\""
    << ",\"compiler\":\"" << XK_SUITE_COMPILER << "\""
    << ",\"flags\":\"" << XK_SUITE_FLAGS << "\""
    << ",\"build_type\":\"" << XK_SUITE_BUILD_TYPE << "\""
    << ",\"xk_obs\":" << (XK_SUITE_OBS ? "true" : "false")
    << ",\"xk_check\":" << (XK_SUITE_CHECK ? "true" : "false")
    << ",\"seed\":" << opt.seed << ",\"seconds\":" << opt.seconds
    << ",\"smoke\":" << (opt.smoke ? "true" : "false") << ",\"sizes\":{";
  for (std::size_t i = 0; i < res.sizes.size(); ++i) {
    m << (i ? "," : "") << "\"" << res.sizes[i].first << "\":\""
      << json_escape(res.sizes[i].second) << "\"";
  }
  m << "}}";
  return m.str();
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string result_json(const Options& opt, Result& res) {
  std::ostringstream o;
  o << "{\"workload\":\"" << opt.workload << "\",\"traced\":"
    << (opt.traced ? "true" : "false");
  o << ",\"metrics\":{";
  bool first = true;
  for (const Metrics::Entry& e : res.metrics.entries) {
    double v = e.value;
    if (!std::isfinite(v)) {
      res.error("metric " + e.name + " is not finite");
      v = 0.0;
    }
    o << (first ? "" : ",") << "\"" << e.name << "\":{\"value\":" << number(v)
      << ",\"unit\":\"" << e.unit << "\"}";
    first = false;
  }
  o << "},\"spans\":{";
  first = true;
  for (const auto& [name, t] : spans::totals()) {
    o << (first ? "" : ",") << "\"" << name << "\":{\"count\":" << t.count
      << ",\"total_ns\":" << t.total_ns << ",\"self_ns\":" << t.self_ns
      << "}";
    first = false;
  }
  o << "},\"meta\":" << meta_json(opt, res);
  o << ",\"errors\":[";
  for (std::size_t i = 0; i < res.errors.size(); ++i) {
    o << (i ? "," : "") << "\"" << json_escape(res.errors[i]) << "\"";
  }
  o << "],\"correct\":" << (res.errors.empty() ? "true" : "false")
    << ",\"attempted\":" << res.attempted << ",\"failed\":" << res.failed
    << "}";
  return o.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: xk_suite --workload fib|cholesky|epx_loops|"
               "service_light|service_heavy --seed N [--seconds S] "
               "[--traced] [--smoke] [--trace-out PATH]\n");
  return 2;
}

}  // namespace

// ---- helpers declared in suite.hpp ----------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double spread(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double med = quantile(v, 0.5);
  return med > 0.0 ? (quantile(v, 0.75) - quantile(v, 0.25)) / med : 0.0;
}

std::size_t Rounds::size() const {
  std::size_t n = 0;
  for (const auto& r : rounds_) n += r.size();
  return n;
}

std::vector<double> Rounds::all() const {
  std::vector<double> out;
  for (const auto& r : rounds_) out.insert(out.end(), r.begin(), r.end());
  return out;
}

std::vector<double> Rounds::ratios(const Rounds& base) const {
  std::vector<double> out;
  const int n = static_cast<int>(std::min(rounds_.size(), base.rounds_.size()));
  for (int i = 0; i < n; ++i) {
    std::vector<double> b;
    for (int j = std::max(0, i - kRefHalfWindow);
         j <= std::min(n - 1, i + kRefHalfWindow); ++j) {
      const auto& r = base.rounds_[static_cast<std::size_t>(j)];
      b.insert(b.end(), r.begin(), r.end());
    }
    if (b.empty()) continue;
    const double bm = median(b);
    for (const double v : rounds_[static_cast<std::size_t>(i)]) {
      out.push_back(v / bm);
    }
  }
  return out;
}

double spin_work(std::uint64_t iters) {
  double x = 1.0;
  for (std::uint64_t i = 0; i < iters; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

void Sentinel::sample() {
  const std::uint64_t t0 = xk::monotonic_ns();
  volatile double sink = spin_work(kIters);
  (void)sink;
  samples_.push_back(static_cast<double>(xk::monotonic_ns() - t0));
}

void pin_self(unsigned cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void pin_outside(const xk::Runtime& rt) {
  const unsigned ncores = xk::hardware_cores();
  std::vector<unsigned> used;
  for (unsigned i = 0; i < rt.nworkers() && i < rt.placement().slots.size();
       ++i) {
    used.push_back(rt.placement().slots[i].cpu_os_id % ncores);
  }
  for (const unsigned c : g_allowed_cpus) {
    if (std::find(used.begin(), used.end(), c) == used.end()) {
      pin_self(c);
      return;
    }
  }
}

void CounterDelta::begin(const xk::Runtime& rt) {
  start_ = rt.metrics_snapshot().counters;
}

void CounterDelta::end(const xk::Runtime& rt) {
  // Snapshots list the counters in one fixed order.
  const auto now = rt.metrics_snapshot().counters;
  if (sum_.empty()) {
    for (const auto& [name, v] : now) sum_.emplace_back(name, 0.0);
  }
  for (std::size_t i = 0; i < now.size() && i < start_.size(); ++i) {
    sum_[i].second += static_cast<double>(now[i].second - start_[i].second);
  }
}

double CounterDelta::get(const char* name) const {
  for (const auto& [n, v] : sum_) {
    if (n == name) return v;
  }
  return 0.0;
}

void op_e2e_metrics(const std::vector<double>& setup_s, const Rounds& at_p,
                    const Rounds& at_1, const Rounds& ref, Metrics& out) {
  const std::vector<double> p = at_p.ratios(ref);
  out.set("setup_s", median(setup_s), "s");
  out.set("slowdown_p50", median(p), "ratio");
  out.set("slowdown_p90", quantile(p, 0.9), "ratio");
  out.set("slowdown_1w", median(at_1.ratios(ref)), "ratio");
}

void op_layer_metrics(const Rounds& at_p, const Rounds& at_p_traced,
                      const Rounds& at_1, const Rounds& ref,
                      const Sentinel& sentinel, Metrics& out) {
  const std::vector<double> p = at_p.all();
  const double p50 = median(p);
  out.set("op.p50_us", p50, "us");
  out.set("op.p90_us", quantile(p, 0.9), "us");
  out.set("op.1w_p50_us", median(at_1.all()), "us");
  out.set("ref.p50_us", median(ref.all()), "us");
  out.set("trace.overhead_frac", median(at_p_traced.all()) / p50 - 1.0,
          "ratio");
  out.set("host.calib_spread", sentinel.spread(), "ratio");
}

void counter_metrics(const CounterDelta& d, double ops, Metrics& out) {
  const auto per_op = [&](const char* c) {
    return ops > 0 ? d.get(c) / ops : 0.0;
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  out.set("core.spawn.tasks_per_op", per_op("tasks_spawned"), "count");
  out.set("core.readylist.pops_per_op", per_op("readylist_pops"), "count");
  out.set("core.readylist.scan_entries_per_op", per_op("scan_entries"),
          "count");
  out.set("core.readylist.ring_retries_per_op", per_op("rl_ring_retries"),
          "count");
  out.set("core.steal.attempts_per_op", per_op("steal_attempts"), "count");
  out.set("core.steal.ok_ratio",
          ratio(d.get("steals_ok"), d.get("steal_attempts")), "ratio");
  out.set("core.steal.tasks_per_steal",
          ratio(d.get("steal_tasks"), d.get("steals_ok")), "count");
  out.set("core.steal.aggregated_ratio",
          ratio(d.get("requests_aggregated"), d.get("requests_served")),
          "ratio");
  out.set("core.steal.thief_task_frac",
          ratio(d.get("tasks_run_thief"),
                d.get("tasks_run_thief") + d.get("tasks_run_owner")),
          "ratio");
  out.set("core.park.parks_per_op", per_op("parks"), "count");
  out.set("core.park.timeout_frac",
          d.get("parks") > 0 ? 1.0 - d.get("park_wakes") / d.get("parks") : 0.0,
          "ratio");
  out.set("core.foreach.chunks_per_op", per_op("foreach_chunks"), "count");
  out.set("core.foreach.splits_per_op", per_op("splitter_calls"), "count");
}

void tail_metrics(const std::vector<double>& op_us,
                  const std::vector<double>& lag_us, std::uint64_t failed,
                  Metrics& out) {
  const double med = median(op_us);
  const double limit = std::max(1000.0, 2.0 * med);
  std::uint64_t late = failed;
  for (const double v : op_us) late += v > limit ? 1 : 0;
  const double n = static_cast<double>(op_us.size() + failed);
  out.set("tail.op_p99_us", quantile(op_us, 0.99), "us");
  out.set("tail.op_p999_us", quantile(op_us, 0.999), "us");
  out.set("tail.late_frac", n > 0 ? static_cast<double>(late) / n : 0.0,
          "ratio");
  out.set("tail.gen_lag_p99_us", quantile(lag_us, 0.99), "us");
}

}  // namespace suite

int main(int argc, char** argv) {
  using namespace suite;
  capture_allowed_cpus();

  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--workload" && has_val) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_val) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_val) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace-out" && has_val) {
      opt.trace_out = argv[++i];
    } else if (a == "--traced") {
      opt.traced = true;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || !have_seed || !(opt.seconds > 0.0)) {
    return usage();
  }
  opt.P = std::min<unsigned>(static_cast<unsigned>(g_allowed_cpus.size()), 4);

  Result res;
  int rc = 0;
  try {
    if (opt.workload == "fib" || opt.workload == "cholesky" ||
        opt.workload == "epx_loops") {
      rc = run_batch(opt, res);
    } else if (opt.workload == "service_light" ||
               opt.workload == "service_heavy") {
      rc = run_service(opt, res);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    res.error(std::string("exception: ") + e.what());
  }
  if (opt.traced && !opt.trace_out.empty() &&
      !spans::write_chrome(opt.trace_out, meta_json(opt, res))) {
    res.error("cannot write " + opt.trace_out);
  }
  const std::string line = result_json(opt, res);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return rc != 0 ? rc : (res.errors.empty() ? 0 : 1);
}
