// Bench-side span tracer for the traced pass.
//
// Spans are recorded by the suite's own code around each call into a
// runtime layer (a section, a parallel_for, a chunk body, a kernel, a
// submit, a job body) — never inside the runtime. Each thread appends to
// its own buffer, so recording takes no lock. The process keeps its first
// kMaxStoredSpans spans for the Chrome trace; the per-name totals (count,
// total time, self time) are exact whatever the cap.
//
// Self time is a span's duration minus the time its direct children on
// the same thread cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace suite::spans {

/// Turns recording on or off (off: Scope costs one relaxed load).
void enable(bool on);

/// Opens a span on the calling thread; closes it on destruction. `name`
/// must be a string literal (buffers keep the pointer). `id` ties the
/// span to an op or a job.
class Scope {
 public:
  Scope(const char* name, std::uint64_t id);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool on_;
};

struct Totals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Per-name totals over every thread's spans.
std::map<std::string, Totals> totals();

/// Total duration of the spans named `name`, in ns.
double total_ns(const char* name);

/// Writes the stored spans as a Chrome trace ("X" events, one tid per
/// recording thread; opens in Perfetto). `meta_json` is a JSON object
/// placed under "otherData". Returns false when the file cannot be written.
bool write_chrome(const std::string& path, const std::string& meta_json);

}  // namespace suite::spans
