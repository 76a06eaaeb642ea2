// Parker — a timed eventcount for idle-worker parking.
//
// Idle workers must not saturate the steal mutexes and the memory bus with
// an unbounded spin (the cost shows up as flat scaling curves on small
// machines and as stolen cycles on oversubscribed ones). The scheduler's
// idle loops instead back off and then *park* on this primitive; a worker
// that publishes new stealable work wakes one parked peer.
//
// The protocol is the classic eventcount (prepare / announce / re-validate /
// park), with a timed wait as the lost-wakeup backstop:
//
//   waiter                                 publisher
//   ------                                 ---------
//   e = prepare();          // read seq    publish work (release store)
//   announce();             // waiters++
//   re-validate (steal once more)          if (has_waiters()) notify_one();
//   park(e, timeout);       // sleeps only while seq == e
//   retract();              // waiters--
//
// A notify between prepare() and park() advances seq, so park() returns
// immediately — no wakeup is lost once the waiter announced. The one
// remaining hole is publisher-side store/load reordering (the publisher's
// has_waiters() load may execute before its work store drains, missing a
// waiter that announced in between); closing it would need a full fence on
// the publish hot path, so instead park() takes a bounded timeout and the
// waiter re-validates on expiry. Wakeup latency is therefore bounded by the
// timeout even if every notification is lost.
//
// Sleep implementation: on Linux, a raw FUTEX_WAIT on the seq word with a
// *relative* timeout — the kernel measures it against CLOCK_MONOTONIC, so a
// wall-clock step (VM time sync, NTP) cannot stretch the sleep. The
// portable fallback uses std::condition_variable, whose wait_for lowers to
// a CLOCK_REALTIME absolute deadline in glibc and is therefore only used
// where futexes are unavailable. FUTEX_WAIT atomically re-checks
// seq == epoch in the kernel, which is the no-lost-wakeup core.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#else
#include <condition_variable>
#include <mutex>
#endif

namespace xk {

class Parker {
 public:
  Parker() = default;
  Parker(const Parker&) = delete;
  Parker& operator=(const Parker&) = delete;

  /// Epoch to pass to park(); read *before* the final work re-validation.
  std::uint32_t prepare() const { return seq_.load(std::memory_order_acquire); }

  /// Registers the caller as a prospective sleeper. seq_cst so a publisher
  /// whose has_waiters() load is ordered after this increment must see it.
  /// Also re-arms notify_one: a notify that landed after this waiter's
  /// last park() returned set wake_pending_ with no sleeper to consume it
  /// (the next prepare() reads its seq bump), and that stale flag would
  /// drop the next wake meant for this sleep.
  void announce() {
    // xk-order: published by the seq_cst increment below (a release RMW);
    // a publisher's seq_cst has_waiters() load that reads it orders its
    // wake_pending_ probe after this clear.
    wake_pending_.store(false, std::memory_order_relaxed);
    waiters_.fetch_add(1, std::memory_order_seq_cst);
  }
  void retract() { waiters_.fetch_sub(1, std::memory_order_relaxed); }

  /// Publisher-side probe: only pay for a wake when someone may be asleep.
  bool has_waiters() const {
    return waiters_.load(std::memory_order_seq_cst) != 0;
  }

  /// Approximate sleeper count (diagnostics / tests).
  std::uint32_t waiters() const {
    return waiters_.load(std::memory_order_relaxed);
  }

  /// Blocks until seq advances past `epoch` or `timeout` expires. Returns
  /// true when seq moved (a notify landed after prepare()), false
  /// otherwise: on timeout, but also on a spurious or stale futex wake — a
  /// notify_one preempted between its seq bump and its FUTEX_WAKE can
  /// wake the *next* sleep with seq unchanged. Callers re-validate their
  /// condition either way. Returns immediately when a notification
  /// already happened after prepare().
  bool park(std::uint32_t epoch, std::chrono::nanoseconds timeout) {
    bool notified;
#if defined(__linux__)
    if (seq_.load(std::memory_order_acquire) == epoch) {
      const auto secs = std::chrono::duration_cast<std::chrono::seconds>(timeout);
      struct timespec ts;
      ts.tv_sec = static_cast<time_t>(secs.count());
      ts.tv_nsec = static_cast<long>((timeout - secs).count());
      // Atomically sleeps only while seq still equals epoch; EAGAIN means
      // a notify already advanced it, EINTR/ETIMEDOUT fall through to the
      // re-check below. The happens-before edges come from the seq_
      // atomics, not the syscall.
      syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&seq_),
              FUTEX_WAIT_PRIVATE, epoch, &ts, nullptr, 0);
    }
    notified = seq_.load(std::memory_order_acquire) != epoch;
#else
    {
      std::unique_lock<std::mutex> lock(mu_);
      notified = cv_.wait_for(lock, timeout, [&] {
        return seq_.load(std::memory_order_acquire) != epoch;
      });
    }
#endif
    // This worker is back in the game; let publishers send the next wake.
    wake_pending_.store(false, std::memory_order_release);
    return notified;
  }

  /// Wakes one parked worker (new stealable work: any worker can take it).
  /// Rate-limited: until a previously woken worker returns from park() or
  /// announces again, further notifies are dropped — a publisher spawning
  /// many tasks while peers sleep pays a relaxed flag probe, not a wake,
  /// each.
  /// The waiter-side timeout covers any work a dropped notify leaves behind
  /// (and a woken worker keeps stealing until it runs dry anyway).
  void notify_one() {
    // Test-and-test-and-set keeps the common already-pending case RMW-free.
    if (wake_pending_.load(std::memory_order_relaxed)) return;
    if (wake_pending_.exchange(true, std::memory_order_acq_rel)) return;
    bump();
    wake(1);
  }

  /// Wakes every parked worker, never rate-limited. Used for wakes that
  /// must not be dropped: a worker's own parker, whose one sleeper is
  /// woken by name when its join or foreach wait ends (Worker::wake), and
  /// the section-end quiescence fire on the shared work parker, where
  /// notify_one's limiter could drop the one wake that fires.
  void notify_all() {
    bump();
    wake(std::numeric_limits<int>::max());
  }

 private:
  void bump() {
#if defined(__linux__)
    seq_.fetch_add(1, std::memory_order_release);
#else
    // The cv fallback needs the bump under the mutex so the wait_for
    // predicate cannot miss it (standard cv no-lost-wakeup argument).
    std::lock_guard<std::mutex> lock(mu_);
    seq_.fetch_add(1, std::memory_order_release);
#endif
  }

  void wake(int n) {
#if defined(__linux__)
    syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&seq_),
            FUTEX_WAKE_PRIVATE, n, nullptr, nullptr, 0);
#else
    if (n == 1) {
      cv_.notify_one();
    } else {
      cv_.notify_all();
    }
#endif
  }

  std::atomic<std::uint32_t> seq_{0};
  std::atomic<std::uint32_t> waiters_{0};
  std::atomic<bool> wake_pending_{false};
#if !defined(__linux__)
  std::mutex mu_;
  std::condition_variable cv_;
#endif
};

}  // namespace xk
