// Figure 1 — Fibonacci task-creation microbenchmark.
//
// Paper (48-core Magny-Cours, fib(35), seq 0.091 s):
//   1 core : Cilk+ 1.063s (x11.7)  TBB 2.356s (x26)  Kaapi 0.728s (x8)
//            OpenMP 2.429s (x27)
//   scaling: all work-stealers scale to 48 cores; OpenMP *diverges*
//            (51s on 8 cores, stopped after 5 min on >= 32).
//
// Stand-ins (Cilk+/TBB are proprietary; see DESIGN.md §2):
//   XKaapi        — this runtime (one spawned child + inline call per node);
//   WS-pooled     — classic deque work stealing, pooled records (Cilk-like);
//   WS-heap       — same scheduler, heap + std::function records (TBB-like);
//   GOMP-throttle — central-queue task pool with libGOMP's 64x cutoff;
//   GOMP-raw      — the same without the cutoff: the diverging OpenMP line.
//
// Expected shape: XKaapi lowest 1-core overhead; WS-heap a few x heavier
// than WS-pooled; GOMP-raw far heavier and degrading as threads contend on
// the central queue ("(no time)" when a run exceeds XKREPRO_TIMEOUT).
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>

#include "baselines/gomp_pool.hpp"
#include "baselines/ws_classic.hpp"
#include "bench/common.hpp"
#include "core/xkaapi.hpp"

namespace {

// The sequential reference keeps the task versions' call tree: no
// inlining, cloning or signature rewriting may turn it into a loop or drop
// the pointer writes (a plain value recursion is reshaped at -O2 and
// inflates every slowdown against it).
#if defined(__clang__)
[[clang::noinline]]
#else
[[gnu::noipa]]
#endif
void fib_seq(std::uint64_t* r, int n) {
  if (n < 2) {
    *r = static_cast<std::uint64_t>(n);
    return;
  }
  std::uint64_t r1 = 0, r2 = 0;
  fib_seq(&r1, n - 1);
  fib_seq(&r2, n - 2);
  *r = r1 + r2;
}

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

void fib_ws(xk::baseline::ClassicWS& ws, std::uint64_t* r, int n) {
  if (n < 2) {
    *r = static_cast<std::uint64_t>(n);
    return;
  }
  std::uint64_t r1 = 0, r2 = 0;
  ws.spawn([&ws, &r1, n] { fib_ws(ws, &r1, n - 1); });
  fib_ws(ws, &r2, n - 2);
  ws.taskwait();
  *r = r1 + r2;
}

void fib_gomp(xk::baseline::GompLikePool& pool, std::uint64_t* r, int n) {
  if (n < 2) {
    *r = static_cast<std::uint64_t>(n);
    return;
  }
  std::uint64_t r1 = 0, r2 = 0;
  pool.spawn([&pool, &r1, n] { fib_gomp(pool, &r1, n - 1); });
  fib_gomp(pool, &r2, n - 2);
  pool.taskwait();
  *r = r1 + r2;
}

}  // namespace

int main() {
  xkbench::json_begin("fig1_fib");
  xkbench::preamble("Figure 1", "Fibonacci task-creation overhead");
  const int n = static_cast<int>(xk::env_int("XKREPRO_FIB_N", 27));
  const double timeout = xk::env_double("XKREPRO_TIMEOUT", 20.0);
  std::uint64_t expect = 0;
  fib_seq(&expect, n);

  xkbench::json_context("sequential", 1);
  const double t_seq = xkbench::time_best([&] {
    std::uint64_t r = 0;
    fib_seq(&r, n);
  });
  std::printf("fib(%d) sequential time: %.4fs\n\n", n, t_seq);

  xk::Table table({"runtime", "cores", "time(s)", "slowdown@1",
                   "speedup-vs-seq", "ok"});

  auto run_xk = [](unsigned cores, int depth, std::uint64_t want) {
    // from_env so topology/placement knobs (XK_TOPO, XK_PLACE, ...) shape
    // this run like any production one.
    xk::Config cfg = xk::Config::from_env();
    cfg.nworkers = cores;
    xk::Runtime rt(cfg);
    std::uint64_t r = 0;
    const double t = xkbench::time_best([&] {
      r = 0;
      rt.run([&] {
        fib_xk(&r, depth);
        xk::sync();
      });
    });
    return r == want ? t : -1.0;
  };
  auto run_ws_pooled = [](unsigned cores, int depth, std::uint64_t want) {
    xk::baseline::ClassicWS ws(cores);
    std::uint64_t r = 0;
    const double t = xkbench::time_best([&] {
      r = 0;
      ws.parallel([&] { fib_ws(ws, &r, depth); });
    });
    return r == want ? t : -1.0;
  };
  auto run_ws_heap = [](unsigned cores, int depth, std::uint64_t want) {
    xk::baseline::WsOptions opt;
    opt.pooled_tasks = false;
    xk::baseline::ClassicWS ws(cores, opt);
    std::uint64_t r = 0;
    const double t = xkbench::time_best([&] {
      r = 0;
      ws.parallel([&] { fib_ws(ws, &r, depth); });
    });
    return r == want ? t : -1.0;
  };
  auto run_gomp_throttle = [](unsigned cores, int depth, std::uint64_t want) {
    xk::baseline::GompLikePool pool(cores);
    std::uint64_t r = 0;
    const double t = xkbench::time_best([&] {
      r = 0;
      pool.parallel([&] { fib_gomp(pool, &r, depth); });
    });
    return r == want ? t : -1.0;
  };
  auto run_gomp_raw = [](unsigned cores, int depth, std::uint64_t want) {
    xk::baseline::GompOptions opt;
    opt.throttle = false;
    xk::baseline::GompLikePool pool(cores, opt);
    std::uint64_t r = 0;
    const double t = xkbench::time_best(
        [&] {
          r = 0;
          pool.parallel([&] { fib_gomp(pool, &r, depth); });
        },
        1);  // single rep: this is the diverging configuration
    return r == want ? t : -1.0;
  };

  struct Entry {
    const char* name;
    std::function<double(unsigned, int, std::uint64_t)> run;
  };
  const Entry entries[] = {
      {"XKaapi", run_xk},
      {"WS-pooled (Cilk-like)", run_ws_pooled},
      {"WS-heap (TBB-like)", run_ws_heap},
      {"GOMP-throttle (OpenMP)", run_gomp_throttle},
      {"GOMP-raw (OpenMP no cutoff)", run_gomp_raw},
  };

  for (const Entry& e : entries) {
    bool timed_out = false;
    double t1 = 0.0;
    for (unsigned cores : xkbench::core_counts()) {
      if (timed_out) {
        table.add_row({e.name, std::to_string(cores), "(no time)", "", "", ""});
        continue;
      }
      xkbench::json_context(e.name, cores);
      const double t = e.run(cores, n, expect);
      if (cores == 1) t1 = t;
      const bool ok = t >= 0.0;
      if (!ok) xkbench::json_drop_current();
      // Appended rather than "x" + num(...): GCC 12 inlines that operator+
      // into a prefix insert and warns -Wrestrict on it in Release builds.
      std::string slowdown;
      if (cores == 1 && ok) {
        slowdown = "x";
        slowdown += xk::Table::num(t / t_seq, 1);
      }
      table.add_row({e.name, std::to_string(cores),
                     ok ? xk::Table::num(t, 4) : "wrong-result", slowdown,
                     ok ? xk::Table::num(t_seq / t, 2) : "",
                     ok ? "yes" : "no"});
      if (t > timeout) timed_out = true;  // the paper's "(no time)" rows
    }
    (void)t1;
  }
  table.print_auto(std::cout);
  return 0;
}
