// Observability subsystem tests: trace rings, the emit API, the Chrome
// trace-file round trip, metrics snapshots, and the OccupancyBoard
// fold's snapshot consistency.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/xkaapi.hpp"
#include "obs/chrome_writer.hpp"
#include "obs/trace.hpp"

namespace {

xk::Config cfg(unsigned n) {
  xk::Config c;
  c.nworkers = n;
  c.bind_threads = false;
  return c;
}

// ---------------------------------------------------------------------------
// TraceRing
// ---------------------------------------------------------------------------

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(xk::obs::TraceRing(1).capacity(), 8u);
  EXPECT_EQ(xk::obs::TraceRing(8).capacity(), 8u);
  EXPECT_EQ(xk::obs::TraceRing(9).capacity(), 16u);
  EXPECT_EQ(xk::obs::TraceRing(16384).capacity(), 16384u);
}

TEST(TraceRing, HugeCapacityIsCapped) {
  // The rounding stops at 2^20 events: a request past it (a sign-wrapped
  // XK_TRACE_CAP=-1, say) must not double the capacity until it wraps to
  // 0 and loops forever.
  constexpr std::size_t kCap = std::size_t{1} << 20;
  EXPECT_EQ(xk::obs::TraceRing(kCap + 1).capacity(), kCap);
  EXPECT_EQ(xk::obs::TraceRing(SIZE_MAX).capacity(), kCap);
}

TEST(TraceRing, DrainReturnsOldestFirst) {
  xk::obs::TraceRing ring(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ring.record(xk::obs::Ev::kRlPush, i);
  }
  EXPECT_EQ(ring.recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  std::vector<xk::obs::TraceEvent> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].arg[0], i);
    EXPECT_EQ(out[i].seq, static_cast<std::uint32_t>(i));
  }
  // Instants at increasing record times: timestamps never go backwards.
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i].ts, out[i - 1].ts);
  }
}

TEST(TraceRing, WrapKeepsNewest) {
  xk::obs::TraceRing ring(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.record(xk::obs::Ev::kRlPop, i);
  }
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  std::vector<xk::obs::TraceEvent> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i].arg[0], 12 + i);  // oldest retained is #12
  }
}

TEST(TraceRing, ClearForgetsButKeepsCapacity) {
  xk::obs::TraceRing ring(16);
  ring.record(xk::obs::Ev::kPark);
  ring.clear();
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  std::vector<xk::obs::TraceEvent> out;
  ring.drain(out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(ring.capacity(), 16u);
}

TEST(TraceRing, SpanDurationNeverUnderflows) {
  xk::obs::TraceRing ring(8);
  // A t0 in the future (clock weirdness) clamps dur to 0, not to a huge
  // unsigned value that would wreck a timeline viewer.
  ring.record_span(xk::obs::Ev::kTaskOwner,
                   xk::monotonic_ns() + 1'000'000'000ull);
  std::vector<xk::obs::TraceEvent> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dur, 0u);
}

// ---------------------------------------------------------------------------
// The emit API (TLS binding)
// ---------------------------------------------------------------------------

#ifndef XK_OBS_OFF

TEST(TraceEmit, UnboundThreadRecordsNothing) {
  xk::obs::bind_thread_ring(nullptr);
  EXPECT_EQ(xk::obs::thread_ring(), nullptr);
  // No ring: span_begin reads no clock (returns the 0 sentinel) and the
  // emits are no-ops rather than crashes.
  EXPECT_EQ(xk::obs::span_begin(), 0u);
  xk::obs::emit(xk::obs::Ev::kRlPush, 1, 2);
  xk::obs::emit_span(xk::obs::Ev::kTaskOwner, 0);
}

TEST(TraceEmit, BoundThreadRecords) {
  xk::obs::TraceRing ring(8);
  xk::obs::bind_thread_ring(&ring);
  const std::uint64_t t0 = xk::obs::span_begin();
  EXPECT_NE(t0, 0u);
  xk::obs::emit(xk::obs::Ev::kRlPush, 7);
  xk::obs::emit_span(xk::obs::Ev::kTaskOwner, t0, 42);
  xk::obs::bind_thread_ring(nullptr);
  xk::obs::emit(xk::obs::Ev::kRlPush, 8);  // after unbind: dropped
  EXPECT_EQ(ring.recorded(), 2u);
  std::vector<xk::obs::TraceEvent> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, static_cast<std::uint32_t>(xk::obs::Ev::kRlPush));
  EXPECT_EQ(out[0].arg[0], 7u);
  EXPECT_EQ(out[1].kind, static_cast<std::uint32_t>(xk::obs::Ev::kTaskOwner));
  EXPECT_EQ(out[1].arg[0], 42u);
  EXPECT_GE(out[1].ts, t0);
}

TEST(TraceEmit, DisabledRuntimeLeavesRingsNullAndRecordsNothing) {
  // No trace_path, no XK_TRACE: the runtime allocates no rings, and a
  // full section leaves the caller's thread unbound.
  xk::Runtime rt(cfg(2));
  EXPECT_FALSE(rt.tracing());
  EXPECT_EQ(rt.trace_ring(0), nullptr);
  std::atomic<int> hits{0};
  rt.run([&] {
    for (int i = 0; i < 64; ++i) {
      xk::spawn([&] { hits.fetch_add(1, std::memory_order_relaxed); });
    }
    xk::sync();
  });
  EXPECT_EQ(hits.load(), 64);
  EXPECT_EQ(xk::obs::thread_ring(), nullptr);
}

// ---------------------------------------------------------------------------
// Trace-file round trip
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// One trace-file test per process: the writer is a process-global
// singleton and the first configured path owns the file. This one test
// therefore covers the whole drain surface — a plain run() section, two
// client sections held open *concurrently* from external threads, and
// service-mode jobs (the service thread's own overlapping section) — because
// the drain-at-last-close rule is exactly what overlap could corrupt.
TEST(TraceFile, RoundTripValidates) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "xk_obs_test_trace.json")
          .string();
  std::remove(path.c_str());
  {
    xk::Config c = cfg(2);
    c.trace_path = path;
    c.trace_cap = 4096;
    c.sections = 3;  // two client masters + the service thread
    xk::Runtime rt(c);
    EXPECT_TRUE(rt.tracing());
    ASSERT_NE(rt.trace_ring(0), nullptr);
    std::atomic<std::int64_t> sum{0};
    rt.run([&] {
      for (int i = 0; i < 256; ++i) {
        xk::spawn([&] { sum.fetch_add(1, std::memory_order_relaxed); });
      }
      xk::sync();
      xk::parallel_for(0, 10000, [&](std::int64_t lo, std::int64_t hi) {
        sum.fetch_add(hi - lo, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(sum.load(), 256 + 10000);

    // Overlap phase: both clients hold their sections open at once (the
    // handshake guarantees it) while service jobs flow through the
    // service thread's section. Every ring drains exactly once, at the last
    // close — duplicated or dropped spans would fail the validator's
    // per-lane monotonicity below.
    std::atomic<int> open_clients{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 2; ++t) {
      clients.emplace_back([&] {
        rt.begin();
        open_clients.fetch_add(1, std::memory_order_acq_rel);
        while (open_clients.load(std::memory_order_acquire) < 2) {
          std::this_thread::yield();
        }
        for (int i = 0; i < 64; ++i) {
          xk::spawn([&] { sum.fetch_add(1, std::memory_order_relaxed); });
        }
        xk::sync();
        rt.end();
      });
    }
    std::vector<xk::JobToken> tokens;
    for (int i = 0; i < 32; ++i) {
      tokens.push_back(rt.submit([&] {
        sum.fetch_add(1, std::memory_order_relaxed);
      }));
    }
    for (auto& t : clients) t.join();
    for (auto& tok : tokens) tok.wait();
    EXPECT_EQ(sum.load(), 256 + 10000 + 2 * 64 + 32);
  }
  xk::obs::ChromeTraceWriter::instance().flush();

  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty()) << "no trace written to " << path;
  // Shape, without a JSON parser: the object format's required key, the
  // span/metadata phases, some known event names, and the metrics side.
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"task.owner\""), std::string::npos);
  EXPECT_NE(text.find("\"foreach.chunk\""), std::string::npos);
  EXPECT_NE(text.find("\"section\""), std::string::npos);
  EXPECT_NE(text.find("\"job\""), std::string::npos);
  EXPECT_NE(text.find("\"metrics\""), std::string::npos);
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("\"tasks_spawned\""), std::string::npos);

  // Full validation (well-formed JSON, span nesting, category coverage)
  // through the same script CI runs, when the source tree is reachable.
  const std::filesystem::path script = std::filesystem::path(__FILE__)
                                           .parent_path()
                                           .parent_path() /
                                       "scripts" / "check_trace.py";
  if (!std::filesystem::exists(script)) {
    GTEST_SKIP() << "check_trace.py not reachable from " << __FILE__;
  }
  const std::string cmd = "python3 \"" + script.string() + "\" \"" + path +
                          "\" --require-cats task,section,foreach,job "
                          "--require-metrics";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::remove(path.c_str());
}

#endif  // !XK_OBS_OFF

// ---------------------------------------------------------------------------
// Metrics snapshot
// ---------------------------------------------------------------------------

TEST(Metrics, SnapshotCoversEveryCounter) {
  xk::Runtime rt(cfg(2));
  std::atomic<int> hits{0};
  rt.run([&] {
    for (int i = 0; i < 100; ++i) {
      xk::spawn([&] { hits.fetch_add(1, std::memory_order_relaxed); });
    }
    xk::sync();
  });
  const xk::obs::MetricsSnapshot m = rt.metrics_snapshot();
  EXPECT_EQ(m.nworkers, 2u);
  ASSERT_EQ(m.counters.size(), xk::kWorkerStatCount);
  // Declaration order, and the values the aggregated WorkerStats holds.
  xk::WorkerStats total = rt.stats_snapshot();
  std::size_t i = 0;
  total.for_each([&](const char* name, std::uint64_t v) {
    EXPECT_EQ(m.counters[i].first, name);
    EXPECT_EQ(m.counters[i].second, v) << name;
    ++i;
  });
  EXPECT_GE(m.domains.size(), 1u);
  // Quiesced between sections: nothing is occupied.
  EXPECT_EQ(m.root_occupied, 0);
}

TEST(Metrics, ToJsonShape) {
  xk::obs::MetricsSnapshot m;
  m.nworkers = 3;
  m.root_occupied = 1;
  m.counters = {{"tasks_spawned", 42}, {"parks", 7}};
  m.domains.push_back({0, 5});
  const std::string j = m.to_json();
  EXPECT_NE(j.find("\"nworkers\": 3"), std::string::npos);
  EXPECT_NE(j.find("\"tasks_spawned\": 42"), std::string::npos);
  EXPECT_NE(j.find("\"parks\": 7"), std::string::npos);
  EXPECT_NE(j.find("\"domains\""), std::string::npos);
  EXPECT_NE(j.find("{\"rank\": 0, \"occupied\": 5}"), std::string::npos);
  std::ostringstream os;
  m.dump(os);
  EXPECT_NE(os.str().find("tasks_spawned=42"), std::string::npos);
  EXPECT_NE(os.str().find("[xk] domain rank=0 occupied=5\n"),
            std::string::npos);
}

TEST(Metrics, OperatorStreamListsEveryCounter) {
  // Satellite regression guard: the WorkerStats dump must contain every
  // counter the struct declares — a field added to the struct but not the
  // X-macro fails the static_assert; one added to both lands here free.
  xk::WorkerStats s;
  s.steal_tasks = 3;
  s.foreach_chunks = 9;
  std::ostringstream os;
  os << s;
  std::size_t fields = 0;
  s.for_each([&](const char* name, std::uint64_t) {
    EXPECT_NE(os.str().find(name), std::string::npos) << name;
    ++fields;
  });
  EXPECT_EQ(fields, xk::kWorkerStatCount);
  EXPECT_NE(os.str().find("steal_tasks=3"), std::string::npos);
  EXPECT_NE(os.str().find("foreach_chunks=9"), std::string::npos);
}

// ---------------------------------------------------------------------------
// OccupancyBoard snapshot consistency
// ---------------------------------------------------------------------------

TEST(OccupancyBoardObs, OccupancyFoldCountsMatchSnapshot) {
  xk::OccupancyBoard b;
  b.init(2);
  b.init_occupancy({0, 0, 1, 1});  // workers 0,1 -> domain 0; 2,3 -> domain 1

  EXPECT_EQ(b.publish_occupied(0, true), 2u);   // bit + domain 0->1 (root stays)
  EXPECT_EQ(b.publish_occupied(0, true), 0u);   // no transition
  EXPECT_EQ(b.publish_occupied(1, true), 1u);   // bit only (domain 1->2)
  EXPECT_EQ(b.publish_occupied(2, true), 2u);   // bit + domain fold
  EXPECT_EQ(b.domain_occupied(0), 2);
  EXPECT_EQ(b.domain_occupied(1), 1);
  EXPECT_EQ(b.root_occupied(), 2);
  EXPECT_TRUE(b.occupied(0));
  EXPECT_TRUE(b.occupied(2));
  EXPECT_FALSE(b.occupied(3));

  EXPECT_EQ(b.publish_occupied(1, false), 1u);  // domain 2->1
  EXPECT_EQ(b.publish_occupied(0, false), 2u);  // domain 1->0, root 2->1
  EXPECT_EQ(b.publish_occupied(2, false), 3u);  // last: root 1->0 (quiesce)
  EXPECT_EQ(b.domain_occupied(0), 0);
  EXPECT_EQ(b.domain_occupied(1), 0);
  EXPECT_EQ(b.root_occupied(), 0);
}

TEST(OccupancyBoardObs, ConcurrentPublishSettlesConsistent) {
  // One owner thread per bit (the board's write contract); after all the
  // toggling, the folded counts must equal the sum of the final bits —
  // the gauges the metrics snapshot exports can never drift.
  constexpr unsigned kWorkers = 8;
  constexpr int kToggles = 2000;
  xk::OccupancyBoard b;
  b.init(2);
  std::vector<unsigned> ranks(kWorkers);
  for (unsigned w = 0; w < kWorkers; ++w) ranks[w] = w % 2;
  b.init_occupancy(ranks);

  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&b, w] {
      for (int i = 0; i < kToggles; ++i) {
        b.publish_occupied(w, true);
        b.publish_occupied(w, false);
      }
      // Odd workers end occupied, even workers end idle.
      if (w % 2 == 1) b.publish_occupied(w, true);
    });
  }
  for (auto& t : threads) t.join();

  std::int64_t expect_domain[2] = {0, 0};
  for (unsigned w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(b.occupied(w), w % 2 == 1);
    if (w % 2 == 1) expect_domain[w % 2]++;
  }
  EXPECT_EQ(b.domain_occupied(0), expect_domain[0]);
  EXPECT_EQ(b.domain_occupied(1), expect_domain[1]);
  const int occupied_domains = (expect_domain[0] != 0 ? 1 : 0) +
                               (expect_domain[1] != 0 ? 1 : 0);
  EXPECT_EQ(b.root_occupied(), occupied_domains);
}

TEST(OccupancyBoardObs, GaugesRoundTripThroughRuntimeSnapshot) {
  xk::Runtime rt(cfg(4));
  rt.run([&] {
    for (int i = 0; i < 500; ++i) {
      xk::spawn([] {});
    }
    xk::sync();
  });
  const xk::obs::MetricsSnapshot m = rt.metrics_snapshot();
  ASSERT_FALSE(m.domains.empty());
  std::int64_t occupied_domains = 0;
  for (const auto& d : m.domains) {
    EXPECT_EQ(d.occupied, 0);  // quiesced pool: nobody holds a frame
    if (d.occupied != 0) ++occupied_domains;
  }
  EXPECT_EQ(m.root_occupied, occupied_domains);
}

}  // namespace
