// Batch workloads: fib, cholesky, epx_loops.
//
// Each op is one whole solve, timed from the call to its return. A run is
// cut into rounds (rounds_for) grouped in epochs (kSetups); each round
// runs three blocks for a fixed share of the round — the solve at P
// workers, the solve on a second runtime whose only thread is main, and
// the sequential reference — in an order that rotates every round, so
// host drift hits all three alike. Inputs are reset before and outputs
// checked after every op, outside the timed region.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "epx/kernels.hpp"
#include "epx/mesh.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/tiled.hpp"
#include "spans.hpp"
#include "suite.hpp"
#include "support/rng.hpp"
#include "support/timing.hpp"

// The reference fib must keep its call tree: no inlining, cloning or
// signature rewriting may turn it into a loop or drop the pointer writes.
#if defined(__clang__)
#define SUITE_KEEP_CALLS [[clang::noinline]]
#else
#define SUITE_KEEP_CALLS [[gnu::noipa]]
#endif

namespace suite {

namespace {

using xk::linalg::TiledMatrix;

class Batch {
 public:
  virtual ~Batch() = default;
  /// Builds the seeded inputs (part of set-up).
  virtual void generate(std::uint64_t seed, bool smoke) = 0;
  /// Computes the outputs every op is checked against (untimed).
  virtual void make_expected() = 0;
  /// Restores an op's input (untimed).
  virtual void reset() = 0;
  virtual void run(xk::Runtime& rt) = 0;
  /// `run` with spans around every call into a layer.
  virtual void run_traced(xk::Runtime& rt, std::uint64_t op) = 0;
  /// The sequential reference on the same input.
  virtual void run_ref() = 0;
  /// Empty when the last op's output matches the expected one.
  virtual std::string check() = 0;
  virtual void describe(Result& res) const = 0;
};

// ---- fib -------------------------------------------------------------------

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

}  // namespace

/// Same call tree as fib_xk with every spawn a plain call.
SUITE_KEEP_CALLS void fib_ref(std::uint64_t* r, int n) {
  if (n < 2) {
    *r = static_cast<std::uint64_t>(n);
    return;
  }
  std::uint64_t r1 = 0, r2 = 0;
  fib_ref(&r1, n - 1);
  fib_ref(&r2, n - 2);
  *r = r1 + r2;
}

namespace {

class Fib final : public Batch {
 public:
  void generate(std::uint64_t, bool smoke) override { n_ = smoke ? 20 : 30; }

  void make_expected() override {
    std::uint64_t a = 0, b = 1;
    for (int i = 0; i < n_; ++i) {
      const std::uint64_t c = a + b;
      a = b;
      b = c;
    }
    want_ = a;
  }

  void reset() override { r_ = 0; }

  void run(xk::Runtime& rt) override {
    rt.run([this] { fib_xk(&r_, n_); });
  }

  void run_traced(xk::Runtime& rt, std::uint64_t op) override {
    spans::Scope s("core.runtime.run", op);
    run(rt);
  }

  void run_ref() override { fib_ref(&r_, n_); }

  std::string check() override {
    return r_ == want_ ? "" : "fib(" + std::to_string(n_) + ") = " +
                                  std::to_string(r_) + ", want " +
                                  std::to_string(want_);
  }

  void describe(Result& res) const override {
    res.sizes.emplace_back("fib_n", std::to_string(n_));
  }

 private:
  int n_ = 30;
  std::uint64_t r_ = 0;
  std::uint64_t want_ = 0;
};

// ---- cholesky --------------------------------------------------------------

class Cholesky final : public Batch {
 public:
  void generate(std::uint64_t seed, bool smoke) override {
    const int n = smoke ? 256 : 1024;
    pristine_ = std::make_unique<TiledMatrix>(n, kNb);
    pristine_->fill_spd(seed);
    pool_.clear();
    for (int i = 0; i < kWorkCopies; ++i) {
      pool_.push_back(std::make_unique<TiledMatrix>(n, kNb));
    }
  }

  void make_expected() override {
    reset();
    xk::linalg::cholesky_sequential(*work_);
    expected_.assign(data(*work_), data(*work_) + elems());
  }

  /// Ops rotate over several work matrices, so the page layout of one
  /// allocation (cache-set conflicts between tiles) does not decide a
  /// whole run.
  void reset() override {
    work_ = pool_[turn_++ % pool_.size()].get();
    std::memcpy(data(*work_), data(*pristine_), elems() * sizeof(double));
    info_ = -1;
  }

  void run(xk::Runtime& rt) override {
    info_ = xk::linalg::cholesky_xkaapi(*work_, rt);
  }

  /// cholesky_xkaapi's task loop with a span around every kernel call.
  void run_traced(xk::Runtime& rt, std::uint64_t op) override {
    using namespace xk::linalg;
    TiledMatrix& a = *work_;
    const int nt = a.nt();
    const int nb = a.nb();
    const std::size_t te = a.tile_elems();
    std::atomic<int> info{0};
    spans::Scope s("core.runtime.run", op);
    rt.run([&] {
      for (int k = 0; k < nt; ++k) {
        xk::spawn(
            [nb, k, op, &info](double* akk) {
              spans::Scope ks("linalg.potrf", op);
              const int r = potrf_lower(nb, akk, nb);
              if (r != 0) {
                int expected = 0;
                info.compare_exchange_strong(expected, k * nb + r,
                                             std::memory_order_relaxed);
              }
            },
            xk::rw(a.tile(k, k), te));
        for (int m = k + 1; m < nt; ++m) {
          xk::spawn(
              [nb, op](const double* akk, double* amk) {
                spans::Scope ks("linalg.trsm", op);
                trsm_right_lower_trans(nb, nb, akk, nb, amk, nb);
              },
              xk::read(a.tile(k, k), te), xk::rw(a.tile(m, k), te));
        }
        for (int m = k + 1; m < nt; ++m) {
          xk::spawn(
              [nb, op](const double* amk, double* amm) {
                spans::Scope ks("linalg.syrk", op);
                syrk_lower(nb, nb, amk, nb, amm, nb);
              },
              xk::read(a.tile(m, k), te), xk::rw(a.tile(m, m), te));
          for (int n = k + 1; n < m; ++n) {
            xk::spawn(
                [nb, op](const double* amk, const double* ank, double* amn) {
                  spans::Scope ks("linalg.gemm", op);
                  gemm_nt(nb, nb, nb, amk, nb, ank, nb, amn, nb);
                },
                xk::read(a.tile(m, k), te), xk::read(a.tile(n, k), te),
                xk::rw(a.tile(m, n), te));
          }
        }
      }
      xk::sync();
    });
    info_ = info.load(std::memory_order_relaxed);
  }

  void run_ref() override { info_ = xk::linalg::cholesky_sequential(*work_); }

  std::string check() override {
    if (info_ != 0) return "cholesky info = " + std::to_string(info_);
    if (std::memcmp(data(*work_), expected_.data(),
                    elems() * sizeof(double)) != 0) {
      return "cholesky factor differs from cholesky_sequential";
    }
    return "";
  }

  void describe(Result& res) const override {
    res.sizes.emplace_back("cholesky_n", std::to_string(pristine_->n()));
    res.sizes.emplace_back("cholesky_nb", std::to_string(kNb));
  }

 private:
  static constexpr int kNb = 64;
  static constexpr int kWorkCopies = 4;

  static double* data(TiledMatrix& m) { return m.tile(0, 0); }
  std::size_t elems() const {
    const auto nt = static_cast<std::size_t>(pristine_->nt());
    return nt * nt * pristine_->tile_elems();
  }

  std::unique_ptr<TiledMatrix> pristine_;
  std::vector<std::unique_ptr<TiledMatrix>> pool_;
  TiledMatrix* work_ = nullptr;
  std::size_t turn_ = 0;
  std::vector<double> expected_;
  int info_ = -1;
};

// ---- epx_loops -------------------------------------------------------------

/// xkaapi_runner with a span around each parallel_for and each chunk body.
xk::epx::LoopRunner traced_runner(std::uint64_t op) {
  return [op](std::int64_t n,
              const std::function<void(std::int64_t, std::int64_t)>& body) {
    spans::Scope s("core.foreach.parallel_for", op);
    xk::parallel_for(0, n, [&body, op](std::int64_t lo, std::int64_t hi) {
      spans::Scope c("core.foreach.chunk", op);
      body(lo, hi);
    });
  };
}

class EpxLoops final : public Batch {
 public:
  void generate(std::uint64_t seed, bool smoke) override {
    scale_ = smoke ? 1 : 4;
    s_ = xk::epx::make_meppen(scale_);
    // Seeded perturbation of the flight state: each seed gives a
    // different strain field and contact geometry of the same size.
    xk::Rng rng(seed);
    const double h = s_.mesh.min_edge();
    for (std::size_t i = 0; i < s_.mesh.v.size(); ++i) {
      s_.mesh.v[i].x *= rng.next_double(0.95, 1.05);
      s_.mesh.v[i].y = rng.next_double(-5.0, 5.0);
      s_.mesh.v[i].z = rng.next_double(-5.0, 5.0);
      s_.mesh.x[i].y += rng.next_double(-0.01, 0.01) * h;
      s_.mesh.x[i].z += rng.next_double(-0.01, 0.01) * h;
    }
    state_.resize(s_.mesh.nelems());
    state0_ = state_.elem_state;
    rep_ = {};
  }

  void make_expected() override {
    reset();
    run_ref();
    f_expected_ = s_.mesh.f_int;
    state_expected_ = state_.elem_state;
    rep_expected_ = rep_.candidates;
  }

  void reset() override {
    state_.elem_state = state0_;
    for (auto& f : s_.mesh.f_int) f = {};
    for (auto& list : rep_.candidates) list.clear();
  }

  void run(xk::Runtime& rt) override {
    rt.run([this] { op(xk::epx::xkaapi_runner()); });
  }

  void run_traced(xk::Runtime& rt, std::uint64_t op_id) override {
    spans::Scope s("core.runtime.run", op_id);
    rt.run([&] { op(traced_runner(op_id), op_id); });
  }

  void run_ref() override { op(xk::epx::seq_runner()); }

  std::string check() override {
    if (!same_bytes(s_.mesh.f_int, f_expected_)) {
      return "LOOPELM nodal forces differ from seq_runner";
    }
    if (!same_bytes(state_.elem_state, state_expected_)) {
      return "LOOPELM element states differ from seq_runner";
    }
    if (rep_.candidates.size() != rep_expected_.size()) {
      return "REPERA slot count differs from seq_runner";
    }
    for (std::size_t i = 0; i < rep_expected_.size(); ++i) {
      if (!std::equal(rep_.candidates[i].begin(), rep_.candidates[i].end(),
                      rep_expected_[i].begin(), rep_expected_[i].end(),
                      same_candidate)) {
        return "REPERA candidates differ from seq_runner at slot " +
               std::to_string(i);
      }
    }
    return "";
  }

  void describe(Result& res) const override {
    res.sizes.emplace_back("epx_scenario",
                           "MEPPEN x" + std::to_string(scale_));
    res.sizes.emplace_back("epx_elements", std::to_string(s_.mesh.nelems()));
    res.sizes.emplace_back("epx_steps_per_op", std::to_string(kSteps));
  }

 private:
  static constexpr int kSteps = 5;

  /// For arrays of padding-free structs of doubles.
  template <typename T>
  static bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
  }

  /// Field by field: the struct's padding bytes are unspecified.
  static bool same_candidate(const xk::epx::ContactCandidate& a,
                             const xk::epx::ContactCandidate& b) {
    return a.node == b.node && a.surface == b.surface && a.facet == b.facet &&
           std::memcmp(&a.distance, &b.distance, sizeof(double)) == 0;
  }

  void op(const xk::epx::LoopRunner& runner, std::uint64_t op_id = 0) {
    for (int k = 0; k < kSteps; ++k) {
      {
        spans::Scope s("epx.loopelm", op_id);
        xk::epx::loopelm(s_.mesh, state_, s_.dt, s_.material_iters, runner);
      }
      {
        spans::Scope s("epx.repera", op_id);
        xk::epx::repera(s_.mesh, rep_, runner);
      }
    }
  }

  int scale_ = 4;
  xk::epx::Scenario s_;
  xk::epx::LoopelmState state_;
  std::vector<xk::epx::ElemState> state0_;
  xk::epx::ReperaState rep_;
  std::vector<xk::epx::Vec3> f_expected_;
  std::vector<xk::epx::ElemState> state_expected_;
  std::vector<std::vector<xk::epx::ContactCandidate>> rep_expected_;
};

std::unique_ptr<Batch> make_batch(const std::string& name) {
  if (name == "fib") return std::make_unique<Fib>();
  if (name == "cholesky") return std::make_unique<Cholesky>();
  return std::make_unique<EpxLoops>();
}

double us_since(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-3;
}

}  // namespace

int run_batch(const Options& opt, Result& res) {
  std::unique_ptr<Batch> w = make_batch(opt.workload);

  // Set-up: inputs, both runtimes, 3 warm-up solves per runtime. Every
  // epoch starts with a fresh one (see kSetups).
  std::vector<double> setup_s;
  std::unique_ptr<xk::Runtime> rt_p;
  std::unique_ptr<xk::Runtime> rt_1;
  const auto set_up = [&] {
    rt_p.reset();
    rt_1.reset();
    const std::uint64_t t0 = xk::monotonic_ns();
    w->generate(opt.seed, opt.smoke);
    rt_p = std::make_unique<xk::Runtime>(make_config(opt.P));
    rt_1 = std::make_unique<xk::Runtime>(make_config(1));
    for (xk::Runtime* rt : {rt_p.get(), rt_1.get()}) {
      for (int i = 0; i < 3; ++i) {
        w->reset();
        w->run(*rt);
      }
    }
    setup_s.push_back(static_cast<double>(xk::monotonic_ns() - t0) * 1e-9);
  };
  set_up();
  w->describe(res);
  w->make_expected();

  std::uint64_t next_op = 1;
  std::vector<double> lag_us;  // gaps between consecutive P-worker ops
  // Runs ops back to back until `budget_s` has elapsed (at least one).
  const auto block = [&](xk::Runtime* rt, double budget_s, bool traced,
                         Rounds& out) {
    spans::enable(traced);
    const std::uint64_t start = xk::monotonic_ns();
    const auto budget_ns = static_cast<std::uint64_t>(budget_s * 1e9);
    std::uint64_t prev_end = 0;
    do {
      w->reset();
      const std::uint64_t id = next_op++;
      const std::uint64_t t0 = xk::monotonic_ns();
      if (rt == nullptr) {
        w->run_ref();
      } else if (traced) {
        spans::Scope s("op", id);
        w->run_traced(*rt, id);
      } else {
        w->run(*rt);
      }
      const std::uint64_t t1 = xk::monotonic_ns();
      out.add(us_since(t0, t1));
      if (prev_end != 0 && rt == rt_p.get()) {
        lag_us.push_back(us_since(prev_end, t0));
      }
      prev_end = t1;
      const std::string bad = w->check();
      if (rt == nullptr) {
        if (!bad.empty()) res.error("reference: " + bad);
      } else {
        ++res.attempted;
        if (!bad.empty()) res.fail(bad);
      }
    } while (xk::monotonic_ns() - start < budget_ns);
    spans::enable(false);
  };

  const int rounds = rounds_for(opt.seconds);
  const double round_s = opt.seconds / rounds;
  Sentinel sentinel;
  Rounds at_p, at_p_traced, at_1, ref;
  CounterDelta counters;
  for (int r = 0; r < rounds; ++r) {
    if (new_epoch(r, rounds)) set_up();
    for (Rounds* s : {&at_p, &at_p_traced, &at_1, &ref}) s->next_round();
    sentinel.sample();
    for (int b = 0; b < 3; ++b) {
      switch ((b + r) % 3) {
        case 0:
          if (!opt.traced) {
            block(rt_p.get(), 0.55 * round_s, false, at_p);
            break;
          }
          // Traced pass: half untraced (the counters and the overhead
          // baseline), half traced, alternating which goes first.
          for (int half = 0; half < 2; ++half) {
            if ((half + r) % 2 == 0) {
              counters.begin(*rt_p);
              block(rt_p.get(), 0.275 * round_s, false, at_p);
              counters.end(*rt_p);
            } else {
              block(rt_p.get(), 0.275 * round_s, true, at_p_traced);
            }
          }
          break;
        case 1:
          block(rt_1.get(), 0.25 * round_s, false, at_1);
          break;
        default:
          block(nullptr, 0.20 * round_s, false, ref);
          break;
      }
    }
    std::fprintf(stderr, "%s round %d: P %.1f us, 1w %.1f us, ref %.1f us\n",
                 opt.workload.c_str(), r, median(at_p.last()),
                 median(at_1.last()), median(ref.last()));
  }

  Metrics& m = res.metrics;
  res.sizes.emplace_back("samples_p", std::to_string(at_p.size()));
  res.sizes.emplace_back("samples_1w", std::to_string(at_1.size()));
  if (!opt.traced) {
    op_e2e_metrics(setup_s, at_p, at_1, ref, m);
    return 0;
  }

  const std::vector<double> p_all = at_p.all();
  counter_metrics(counters, static_cast<double>(p_all.size()), m);
  op_layer_metrics(at_p, at_p_traced, at_1, ref, sentinel, m);
  tail_metrics(p_all, lag_us, 0, m);

  const double traced_ops_ns = spans::total_ns("op");
  const double kernels_ns =
      spans::total_ns("linalg.potrf") + spans::total_ns("linalg.trsm") +
      spans::total_ns("linalg.syrk") + spans::total_ns("linalg.gemm");
  const double loops_ns = spans::total_ns("core.foreach.parallel_for");
  m.set("linalg.body_frac",
        traced_ops_ns > 0 ? kernels_ns / (opt.P * traced_ops_ns) : 0.0,
        "ratio");
  m.set("core.foreach.body_frac",
        loops_ns > 0
            ? spans::total_ns("core.foreach.chunk") / (opt.P * loops_ns)
            : 0.0,
        "ratio");
  res.sizes.emplace_back("samples_p_traced",
                         std::to_string(at_p_traced.size()));
  run_probes(*rt_p, *rt_1, res, true);
  return 0;
}

}  // namespace suite
