#include "spans.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "support/timing.hpp"

namespace suite::spans {

namespace {

constexpr std::size_t kMaxStoredSpans = 1u << 16;  // whole process

struct Span {
  const char* name;
  std::uint64_t t0;
  std::uint64_t t1;
  std::uint64_t id;
  std::int32_t parent;  ///< index in the same buffer, -1 for a root span
};

struct Open {
  const char* name;
  std::uint64_t t0;
  std::uint64_t id;
  std::uint64_t child_ns;
  std::int32_t stored;  ///< index in `stored`, -1 when over the cap
};

struct NameTotals {
  const char* name;
  Totals t;
};

/// One thread's spans. Owned by the registry, so a buffer outlives the
/// pool thread that filled it.
struct Buffer {
  unsigned tid = 0;
  std::vector<Span> stored;
  std::vector<Open> stack;
  std::vector<NameTotals> totals;  ///< few names: linear search by pointer

  Totals& totals_for(const char* name) {
    for (NameTotals& nt : totals) {
      if (nt.name == name) return nt.t;
    }
    totals.push_back({name, {}});
    return totals.back().t;
  }
};

std::atomic<bool> g_enabled{false};
std::atomic<std::size_t> g_stored{0};  // spans kept for the Chrome trace

/// Claims one of the kMaxStoredSpans slots; false once they are gone.
bool claim_slot() {
  return g_stored.load(std::memory_order_relaxed) < kMaxStoredSpans &&
         g_stored.fetch_add(1, std::memory_order_relaxed) < kMaxStoredSpans;
}

std::mutex g_mu;  // guards g_buffers (registration and readers)
std::vector<std::unique_ptr<Buffer>> g_buffers;

Buffer& local_buffer() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard lock(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    buf = g_buffers.back().get();
    buf->tid = static_cast<unsigned>(g_buffers.size());
  }
  return *buf;
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Scope::Scope(const char* name, std::uint64_t id)
    : on_(g_enabled.load(std::memory_order_relaxed)) {
  if (!on_) return;
  Buffer& b = local_buffer();
  std::int32_t stored = -1;
  if (claim_slot()) {
    stored = static_cast<std::int32_t>(b.stored.size());
    const std::int32_t parent = b.stack.empty() ? -1 : b.stack.back().stored;
    b.stored.push_back({name, 0, 0, id, parent});
  }
  const std::uint64_t t0 = xk::monotonic_ns();
  if (stored >= 0) b.stored[static_cast<std::size_t>(stored)].t0 = t0;
  b.stack.push_back({name, t0, id, 0, stored});
}

Scope::~Scope() {
  if (!on_) return;
  const std::uint64_t t1 = xk::monotonic_ns();
  Buffer& b = local_buffer();
  const Open o = b.stack.back();
  b.stack.pop_back();
  const std::uint64_t dur = t1 - o.t0;
  Totals& t = b.totals_for(o.name);
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur > o.child_ns ? dur - o.child_ns : 0;
  if (!b.stack.empty()) b.stack.back().child_ns += dur;
  if (o.stored >= 0) b.stored[static_cast<std::size_t>(o.stored)].t1 = t1;
}

std::map<std::string, Totals> totals() {
  std::map<std::string, Totals> out;
  std::lock_guard lock(g_mu);
  for (const auto& b : g_buffers) {
    for (const NameTotals& nt : b->totals) {
      Totals& t = out[nt.name];
      t.count += nt.t.count;
      t.total_ns += nt.t.total_ns;
      t.self_ns += nt.t.self_ns;
    }
  }
  return out;
}

double total_ns(const char* name) {
  const auto all = totals();
  const auto it = all.find(name);
  return it == all.end() ? 0.0 : static_cast<double>(it->second.total_ns);
}

bool write_chrome(const std::string& path, const std::string& meta_json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard lock(g_mu);
  std::uint64_t epoch = ~std::uint64_t{0};
  for (const auto& b : g_buffers) {
    for (const Span& s : b->stored) epoch = s.t0 < epoch ? s.t0 : epoch;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,"
               "\"traceEvents\":[\n", meta_json.c_str());
  bool first = true;
  for (const auto& b : g_buffers) {
    std::fprintf(f, "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"suite thread %u\"}}",
                 first ? "" : ",\n", b->tid, b->tid);
    first = false;
    for (const Span& s : b->stored) {
      if (s.t1 < s.t0) continue;  // still open when the file was written
      std::fprintf(f, ",\n{\"name\":\"%s\",\"cat\":\"suite\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%llu,\"parent\":%d}}",
                   s.name, b->tid, static_cast<double>(s.t0 - epoch) * 1e-3,
                   static_cast<double>(s.t1 - s.t0) * 1e-3,
                   static_cast<unsigned long long>(s.id), s.parent);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace suite::spans
