#include "core/adaptive.hpp"

namespace xk {

bool SplitContext::reply_raw(Task* t) {
  if (next_ >= n_) return false;
  StealRequest* slot = slots_[next_++];
  slot->reply = t;
  slot->reply_frame = nullptr;  // heap task: no ready-list notification
  slot->status.store(StealRequest::kServed, std::memory_order_release);
  return true;
}

}  // namespace xk
