// Per-worker bounded trace rings — the record side of the xk_obs
// subsystem.
//
// Design constraints (the hot paths these hooks sit on are the paper's
// whole subject):
//
//  * owner-written: each ring belongs to one worker thread; the record
//    path is a plain (non-atomic) head increment and one 64-byte slot
//    store. Draining happens only while the owning worker is provably
//    idle (Runtime::end() waits the pool into its between-sections park,
//    the same mutex edge stats_snapshot uses), so no synchronization is
//    needed anywhere.
//  * zero allocation: slots are preallocated at Runtime construction;
//    wrap-around overwrites the oldest events (the newest window is what
//    a timeline viewer needs; the drop count is reported in the trace).
//  * branch-disabled: tracing costs one thread-local load and a branch
//    per hook when XK_TRACE is unset — the TLS ring pointer stays null
//    and no clock is read. Compiling with -DXK_OBS_OFF (the XK_OBS=OFF
//    CMake option) removes even that: every emit helper becomes an empty
//    inline and the CI overhead gate compares the two builds.
//  * cache-line-padded slots: a slot is exactly one cache line, so a
//    record never straddles lines and the ring's write stream does not
//    false-share with whatever the worker touches next.
//
// Timestamps come from xk::monotonic_ns() (support/timing.hpp): raw
// steady-clock nanoseconds, epoch-shifted only at drain time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/event.hpp"
#include "support/cache.hpp"
#include "support/timing.hpp"

namespace xk::obs {

/// One recorded event: one cache line, owner-written.
struct alignas(kCacheLine) TraceEvent {
  std::uint64_t ts = 0;   ///< start, monotonic ns
  std::uint64_t dur = 0;  ///< span length ns (0 for instants)
  std::uint64_t arg[3] = {0, 0, 0};
  std::uint32_t kind = 0;  ///< Ev
  std::uint32_t seq = 0;   ///< low word of the record serial (wrap tests)
};
static_assert(sizeof(TraceEvent) == kCacheLine);

/// Bounded per-worker event ring. All mutators are owner-thread-only;
/// drain() is called only while the owner is quiesced (see header note).
class TraceRing {
 public:
  /// Largest ring: 2^20 events, 64 MiB per worker.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 20;

  /// `capacity` is rounded up to a power of two in [8, kMaxCapacity].
  explicit TraceRing(std::size_t capacity) {
    std::size_t cap = 8;
    while (cap < capacity && cap < kMaxCapacity) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<TraceEvent[]>(cap);
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Instant event at now().
  void record(Ev k, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
              std::uint64_t a2 = 0) {
    record_span_at(k, monotonic_ns(), 0, a0, a1, a2);
  }

  /// Span event: [t0, now()). `t0` comes from an earlier monotonic_ns()
  /// read at the site (see span_begin below).
  void record_span(Ev k, std::uint64_t t0, std::uint64_t a0 = 0,
                   std::uint64_t a1 = 0, std::uint64_t a2 = 0) {
    const std::uint64_t now = monotonic_ns();
    record_span_at(k, t0, now > t0 ? now - t0 : 0, a0, a1, a2);
  }

  void record_span_at(Ev k, std::uint64_t t0, std::uint64_t dur,
                      std::uint64_t a0, std::uint64_t a1, std::uint64_t a2) {
    TraceEvent& e = slots_[head_ & mask_];
    e.ts = t0;
    e.dur = dur;
    e.arg[0] = a0;
    e.arg[1] = a1;
    e.arg[2] = a2;
    e.kind = static_cast<std::uint32_t>(k);
    e.seq = static_cast<std::uint32_t>(head_);
    ++head_;
  }

  /// Events recorded since construction / the last clear() (monotonically
  /// increasing; the ring retains the last min(recorded, capacity)).
  std::uint64_t recorded() const { return head_; }

  /// Events overwritten by wrap-around.
  std::uint64_t dropped() const {
    return head_ > capacity() ? head_ - capacity() : 0;
  }

  /// Copies the retained events oldest-first into `out` (appending).
  /// Owner quiesced; see class comment.
  void drain(std::vector<TraceEvent>& out) const {
    const std::uint64_t n =
        head_ < capacity() ? head_ : static_cast<std::uint64_t>(capacity());
    for (std::uint64_t i = head_ - n; i < head_; ++i) {
      out.push_back(slots_[i & mask_]);
    }
  }

  /// Forgets everything recorded (between sections; keeps the allocation).
  void clear() { head_ = 0; }

 private:
  std::unique_ptr<TraceEvent[]> slots_;
  std::size_t mask_ = 0;
  std::uint64_t head_ = 0;
};

// ---------------------------------------------------------------------------
// Thread-binding + the hook-site emit API.
//
// The runtime binds each scheduler thread to its worker's ring alongside
// the worker TLS itself (detail::set_this_worker); hook sites anywhere in
// the scheduler (worker.cpp, readylist.cpp, foreach.cpp) then emit
// without needing a Worker in scope. When tracing is off every thread's
// ring pointer stays null and each hook is one TLS load + branch.
// ---------------------------------------------------------------------------

#ifndef XK_OBS_OFF

inline thread_local TraceRing* tls_trace_ring = nullptr;

inline void bind_thread_ring(TraceRing* r) { tls_trace_ring = r; }
inline TraceRing* thread_ring() { return tls_trace_ring; }

/// Instant event on the calling thread's ring (no-op untraced).
inline void emit(Ev k, std::uint64_t a0 = 0, std::uint64_t a1 = 0,
                 std::uint64_t a2 = 0) {
  if (TraceRing* r = tls_trace_ring) r->record(k, a0, a1, a2);
}

/// Span-start timestamp: 0 (and no clock read) when untraced. Pair with
/// emit_span, which treats t0 == 0 as "span never started".
inline std::uint64_t span_begin() {
  return tls_trace_ring != nullptr ? monotonic_ns() : 0;
}

/// Span end: records [t0, now()) when tracing was on at span_begin.
inline void emit_span(Ev k, std::uint64_t t0, std::uint64_t a0 = 0,
                      std::uint64_t a1 = 0, std::uint64_t a2 = 0) {
  if (t0 == 0) return;
  if (TraceRing* r = tls_trace_ring) r->record_span(k, t0, a0, a1, a2);
}

#else  // XK_OBS_OFF: compiled-out instrumentation (the overhead baseline)

inline void bind_thread_ring(TraceRing*) {}
inline TraceRing* thread_ring() { return nullptr; }
inline void emit(Ev, std::uint64_t = 0, std::uint64_t = 0,
                 std::uint64_t = 0) {}
inline std::uint64_t span_begin() { return 0; }
inline void emit_span(Ev, std::uint64_t, std::uint64_t = 0,
                      std::uint64_t = 0, std::uint64_t = 0) {}

#endif  // XK_OBS_OFF

}  // namespace xk::obs
