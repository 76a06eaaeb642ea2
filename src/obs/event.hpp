// Scheduler trace-event taxonomy (the xk_obs subsystem).
//
// Every event the per-worker trace rings can record is declared here, with
// the static metadata the Chrome writer needs to serialize it: display
// name, category (the Perfetto "cat" field — also what check_trace.py's
// category coverage check keys on), span-vs-instant phase, and the names
// of up to three integer arguments. Keeping the metadata in one table
// means adding an event is one line here plus the hook at the record
// site; the writer, the validator docs (docs/OBSERVABILITY.md) and the
// tests all read the same table.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xk::obs {

/// Event kinds. Values are stable within a build only (the trace file
/// carries names, not kind numbers), so reordering is safe.
enum class Ev : std::uint32_t {
  // -- cat "task": task body execution spans ------------------------------
  kTaskOwner,     ///< span: run_task via the owner FIFO fast path
  kTaskThief,     ///< span: run_task after a successful steal claim
  // -- cat "steal": the request/reply/aggregation protocol ----------------
  kStealServed,   ///< span: request post -> served reply consumed
                  ///  (args: victim id, tasks won, remote?)
  kStealFailed,   ///< span: request post -> kFailed observed (args: victim)
  kCombine,       ///< span: one combiner round on a victim
                  ///  (args: victim id, pending requests, served)
  // -- cat "ready": the ready-list accelerating structure -----------------
  kRlAttach,      ///< instant: a frame crossed the threshold and got a list
  kRlPush,        ///< instant: a released/ready task entered a shard
                  ///  (args: shard, live depth after)
  kRlPop,         ///< instant: a pop left a shard (args: home shard,
                  ///  serving shard)
  // -- cat "idle": park/unpark and quiescence -----------------------------
  kPark,          ///< span: one Parker::park sleep (args: woken by notify?)
  kQuiesceFold,   ///< instant: a 0<->1 occupancy transition climbed the
                  ///  board fold (args: levels climbed, now occupied?)
  // -- cat "foreach": adaptive-loop chunk execution -----------------------
  kForeachChunk,  ///< span: one grain invocation (args: lo, n)
  // -- cat "section": parallel-section lifetime (master slots) ------------
  kSection,       ///< span: Runtime::begin() -> Runtime::end() drain
  // -- cat "job": service-mode job execution (Runtime::submit) ------------
  kJob,           ///< span: one submitted job's body (args: tenant)
  // -- cat "check": invariant-checker reports (XK_CHECK=ON builds) --------
  kCheckViolation,  ///< instant: an XK_EXPECT seam assertion failed
                    ///  (args: invariant id, a0, a1 — see check/check.hpp)

  kCount_  // sentinel
};

inline constexpr std::size_t kEventKinds = static_cast<std::size_t>(Ev::kCount_);

struct EventInfo {
  const char* name;  ///< Chrome "name"
  const char* cat;   ///< Chrome "cat" (the category coverage unit)
  bool span;         ///< true: complete event ("X"); false: instant ("i")
  const char* arg[3];  ///< arg names; nullptr = unused slot
};

/// Static metadata, indexed by Ev. Order must match the enum.
inline constexpr EventInfo kEventInfo[kEventKinds] = {
    {"task.owner", "task", true, {"depth", nullptr, nullptr}},
    {"task.thief", "task", true, {"depth", nullptr, nullptr}},
    {"steal.served", "steal", true, {"victim", "tasks", "remote"}},
    {"steal.failed", "steal", true, {"victim", nullptr, nullptr}},
    {"steal.combine", "steal", true, {"victim", "pending", "served"}},
    {"ready.attach", "ready", false, {"covered", nullptr, nullptr}},
    {"ready.push", "ready", false, {"shard", "depth", nullptr}},
    {"ready.pop", "ready", false, {"home", "from", nullptr}},
    {"idle.park", "idle", true, {"woken", nullptr, nullptr}},
    {"idle.quiesce_fold", "idle", false, {"levels", "occupied", nullptr}},
    {"foreach.chunk", "foreach", true, {"lo", "n", nullptr}},
    {"section", "section", true, {"nworkers", nullptr, nullptr}},
    {"job", "job", true, {"tenant", nullptr, nullptr}},
    {"check.violation", "check", false, {"invariant", "a0", "a1"}},
};

inline constexpr const EventInfo& event_info(Ev e) {
  return kEventInfo[static_cast<std::size_t>(e)];
}

}  // namespace xk::obs
