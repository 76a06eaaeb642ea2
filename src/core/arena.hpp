// Per-frame bump allocator for task descriptors, argument blocks and access
// arrays. Only the frame owner allocates; thieves only read the published
// objects, so no synchronization is needed beyond the frame's task-count
// publication. Memory is recycled when the frame is reset at the end of
// every drain (all tasks Term and no scanner active — see
// Worker::recycle_frame).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#include "support/cache.hpp"

namespace xk {

class Arena {
 public:
  Arena() = default;
  ~Arena() { release_all(); }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align`. Never returns null
  /// (allocates a new block when the current one is exhausted).
  void* allocate(std::size_t bytes, std::size_t align) {
    std::uintptr_t p = round_up(cursor_, align);
    if (p + bytes > limit_) {
      grow(bytes + align);
      p = round_up(cursor_, align);
    }
    cursor_ = p + bytes;
    return reinterpret_cast<void*>(p);
  }

  template <typename T>
  T* allocate_array(std::size_t count) {
    return static_cast<T*>(allocate(sizeof(T) * count, alignof(T)));
  }

  /// Recycles all blocks for reuse; does not run destructors (callers that
  /// need destruction run it in the task trampoline).
  void reset() {
    if (first_ == nullptr) return;
    // Rewind to the first block; the spare list keeps the others.
    cursor_ = first_->payload();
    limit_ = cursor_ + first_->capacity;
    Block* extra = first_->next;
    first_->next = nullptr;
    tail_ = first_;
    while (extra != nullptr) {
      Block* n = extra->next;
      extra->next = spares_;
      spares_ = extra;
      extra = n;
    }
  }

  std::size_t bytes_allocated() const { return total_allocated_; }

 private:
  struct Block {
    Block* next = nullptr;
    std::size_t capacity = 0;
    std::uintptr_t payload() const {
      return round_up(reinterpret_cast<std::uintptr_t>(this) + sizeof(Block),
                      kCacheLine);
    }
  };

  static constexpr std::size_t kDefaultBlockBytes = 16 * 1024;

  void grow(std::size_t need) {
    // Reuse a spare block when large enough, else malloc a fresh one.
    Block** prev = &spares_;
    for (Block* b = spares_; b != nullptr; prev = &b->next, b = b->next) {
      if (b->capacity >= need) {
        *prev = b->next;
        attach(b);
        return;
      }
    }
    const std::size_t cap = need > kDefaultBlockBytes ? need : kDefaultBlockBytes;
    const std::size_t raw = sizeof(Block) + kCacheLine + cap;
    auto* b = static_cast<Block*>(::operator new(raw));
    b->capacity = cap;
    total_allocated_ += raw;
    attach(b);
  }

  /// Appends `b` to the in-use chain in O(1) and bumps from it.
  void attach(Block* b) {
    b->next = nullptr;
    if (tail_ == nullptr) {
      first_ = b;
    } else {
      tail_->next = b;
    }
    tail_ = b;
    cursor_ = b->payload();
    limit_ = cursor_ + b->capacity;
  }

  void release_all() {
    auto free_chain = [](Block* b) {
      while (b != nullptr) {
        Block* n = b->next;
        ::operator delete(b);
        b = n;
      }
    };
    free_chain(first_);
    free_chain(spares_);
    first_ = tail_ = spares_ = nullptr;
  }

  Block* first_ = nullptr;   // head of the in-use chain (kept on reset)
  Block* tail_ = nullptr;    // last in-use block: where grow() appends
  Block* spares_ = nullptr;  // recycled blocks
  std::uintptr_t cursor_ = 0;
  std::uintptr_t limit_ = 0;
  std::size_t total_allocated_ = 0;
};

}  // namespace xk
