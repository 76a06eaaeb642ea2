// xk_check — the dynamic half of the repo's concurrency analysis pass
// (the static half is scripts/check_atomics.py + .clang-tidy; see
// docs/ANALYSIS.md).
//
// The task claim machine, the ready list's edge and gauge accounting and
// the service token state machine are protocols that TSan cannot
// validate — TSan sees data races, not protocol violations. A checked
// build (-DXK_CHECK=ON) compiles XK_EXPECT assertions into the seams of
// readylist/worker/runtime/service; the default build compiles every
// hook to nothing, mirroring the XK_OBS=OFF stub discipline in
// obs/trace.hpp, so the hot paths the paper measures stay untouched.
//
// Violation policy (XK_CHECK_MODE):
//   abort (default) — print the invariant, its registry description and
//                     the seam location, then std::abort(). CI runs the
//                     full ctest battery in this mode: zero violations or
//                     the leg goes red with a precise message.
//   count           — count per-invariant (and record on the obs trace
//                     ring, when one is bound) and continue. For tests
//                     that deliberately provoke violations, and for
//                     soak runs where one abort would hide the rest.
//
// The XK_EXPECT condition is NOT evaluated in unchecked builds (same
// contract as assert under NDEBUG); guard any setup computed only for a
// check with `if constexpr (xk::check::kEnabled)`.
#pragma once

#include <cstdint>

#include "check/invariants.hpp"

namespace xk::check {

enum class Mode {
  kAbort,  ///< first violation reports and aborts (the CI leg's mode)
  kCount,  ///< violations count and execution continues (test mode)
};

#if defined(XK_CHECK_ON)

inline constexpr bool kEnabled = true;

/// Resolved XK_CHECK_MODE (read once, overridable by set_mode).
Mode mode();
/// Test override; wins over the environment from the call onward.
void set_mode(Mode m);

std::uint64_t violations(Inv i);
std::uint64_t violations_total();
void reset_violations();

/// Reports one violation: bumps the invariant's counter, records a
/// check.violation event on the calling thread's obs trace ring (when
/// bound), prints the registry entry + seam to stderr, and aborts in
/// Mode::kAbort. Cold by design — never on a hot path unless broken.
void fail(Inv inv, const char* cond, const char* file, int line,
          std::uint64_t a0 = 0, std::uint64_t a1 = 0, std::uint64_t a2 = 0);

/// Seam assertion: evaluates `cond` only in checked builds. Extra
/// arguments (up to three integers) are carried into the report and the
/// obs event.
#define XK_EXPECT(inv, cond, ...)                                         \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::xk::check::fail(::xk::check::Inv::inv, #cond, __FILE__, __LINE__, \
                        ##__VA_ARGS__);                                   \
    }                                                                     \
  } while (0)

#else  // !XK_CHECK_ON: every hook compiles to nothing (the default build)

inline constexpr bool kEnabled = false;

inline Mode mode() { return Mode::kCount; }
inline void set_mode(Mode) {}
inline std::uint64_t violations(Inv) { return 0; }
inline std::uint64_t violations_total() { return 0; }
inline void reset_violations() {}
inline void fail(Inv, const char*, const char*, int, std::uint64_t = 0,
                 std::uint64_t = 0, std::uint64_t = 0) {}

#define XK_EXPECT(inv, cond, ...) ((void)0)

#endif  // XK_CHECK_ON

}  // namespace xk::check
