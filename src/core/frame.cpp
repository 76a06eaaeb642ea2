#include "core/frame.hpp"

#include "core/readylist.hpp"

namespace xk {

Frame::~Frame() {
  delete_heap_tasks();
  delete ready_list.load(std::memory_order_relaxed);
}

void Frame::delete_heap_tasks() {
  if (!has_heap_tasks_) return;
  const std::uint32_t n = ntasks_.load(std::memory_order_relaxed);
  Iterator it(*this);
  for (std::uint32_t i = 0; i < n; ++i, it.advance()) {
    Task* t = it.get();
    if (t->heap_owned()) t->heap_deleter(t);
  }
  has_heap_tasks_ = false;
}

void Frame::reset() {
  delete_heap_tasks();
  // The ReadyList destructor runs without the list's lock: the owner only
  // resets after every task reached Term and the Dekker handshake excluded
  // scanners, so that mutex can be neither contended nor held here. The
  // epoch bump below is also what a *surviving* list would key its
  // coverage reset off — a ReadyList constructed on this frame checks
  // Frame::epoch() at every entry point and drops stale coverage (and
  // early-completion records, which would otherwise alias recycled task
  // addresses).
  // xk-order: owner-only quiesced recycle — the Dekker handshake excluded
  // every scanner before reset() runs, and the depth republication that
  // follows (recycle_frame, or the next push_frame) carries the release
  // edge.
  delete ready_list.load(std::memory_order_relaxed);
  ready_list.store(nullptr, std::memory_order_relaxed);
  head_.next.store(nullptr, std::memory_order_relaxed);  // xk-order: ditto
  tail_ = &head_;
  ntasks_.store(0, std::memory_order_relaxed);
  // xk-order: only the owner writes the epoch, so a load+store bump needs
  // no locked read-modify-write; scanners read it inside a scan window the
  // Dekker handshake orders after this reset.
  epoch_.store(epoch_.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  steal_claimed_.store(false, std::memory_order_relaxed);  // xk-order: ditto
  exec_chunk_ = &head_;
  exec_index_ = 0;
  exec_slot_ = 0;
  arena.reset();
}

}  // namespace xk
