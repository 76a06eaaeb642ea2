// Typed spawn API: non-blocking task creation with declared access modes.
//
//   xk::spawn([]{ heavy(); });                         // fork-join task
//   xk::spawn(fn, xk::read(&a), xk::write(&b), 42);    // dataflow task
//   xk::sync();                                        // wait for children
//
// The semantics are sequential (§II-B): the program is correct when every
// spawn is replaced by a direct call in program order. Outside a runtime
// section spawn does exactly that (sequential elision).
//
// Hierarchical dataflow contract: a dataflow task that itself spawns
// dataflow children must declare accesses covering its children's accesses.
// This is what makes steal-time readiness sound for work spawned while a
// traversal is in flight, and what makes the ready-list's per-frame
// dependence graph conservative (see readylist.hpp). Flat task graphs
// (the common case) need nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/access.hpp"
#include "core/runtime.hpp"
#include "core/task.hpp"
#include "core/worker.hpp"
#include "support/cache.hpp"

namespace xk {

// ---------------------------------------------------------------------------
// Access wrappers.
// ---------------------------------------------------------------------------

template <typename T>
struct ReadArg {
  const T* ptr;
  MemRegion region;
};
template <typename T>
struct WriteArg {
  T* ptr;
  MemRegion region;
};
template <typename T>
struct RwArg {
  T* ptr;
  MemRegion region;
};
template <typename T>
struct CwArg {
  T* ptr;
  MemRegion region;
};
template <typename T>
struct ScratchArg {
  T* ptr;
  MemRegion region;
};

/// Read access to `count` elements starting at `p`.
template <typename T>
ReadArg<T> read(const T* p, std::size_t count = 1) {
  return {p, MemRegion::contiguous(p, count * sizeof(T))};
}

/// Write (output-only) access; renameable when contiguous.
template <typename T>
WriteArg<T> write(T* p, std::size_t count = 1) {
  return {p, MemRegion::contiguous(p, count * sizeof(T))};
}

/// Exclusive read-modify-write access.
template <typename T>
RwArg<T> rw(T* p, std::size_t count = 1) {
  return {p, MemRegion::contiguous(p, count * sizeof(T))};
}

/// Cumulative write (reduction) access: CW tasks on the same region are
/// mutually independent; the runtime serializes their bodies per region.
template <typename T>
CwArg<T> cw(T* p, std::size_t count = 1) {
  return {p, MemRegion::contiguous(p, count * sizeof(T))};
}

/// Task-private scratch: never creates dependencies.
template <typename T>
ScratchArg<T> scratch(T* p, std::size_t count = 1) {
  return {p, MemRegion::contiguous(p, count * sizeof(T))};
}

/// Strided (multi-dimensional, §II-B) variants: `runs` segments of
/// `run_elems` elements, segment starts `stride_elems` apart.
template <typename T>
ReadArg<T> read_strided(const T* p, std::size_t run_elems, std::size_t runs,
                        std::size_t stride_elems) {
  return {p, MemRegion::strided(p, run_elems * sizeof(T), runs,
                                stride_elems * sizeof(T))};
}
template <typename T>
WriteArg<T> write_strided(T* p, std::size_t run_elems, std::size_t runs,
                          std::size_t stride_elems) {
  return {p, MemRegion::strided(p, run_elems * sizeof(T), runs,
                                stride_elems * sizeof(T))};
}
template <typename T>
RwArg<T> rw_strided(T* p, std::size_t run_elems, std::size_t runs,
                    std::size_t stride_elems) {
  return {p, MemRegion::strided(p, run_elems * sizeof(T), runs,
                                stride_elems * sizeof(T))};
}

// ---------------------------------------------------------------------------
// Wrapper traits.
// ---------------------------------------------------------------------------

namespace detail {

template <typename A>
struct wrapper_traits {
  static constexpr bool is_wrapper = false;
  using value_type = A;
};
template <typename T>
struct wrapper_traits<ReadArg<T>> {
  static constexpr bool is_wrapper = true;
  static constexpr AccessMode mode = AccessMode::kRead;
  using value_type = const T*;
  static value_type unwrap(const ReadArg<T>& a) { return a.ptr; }
};
template <typename T>
struct wrapper_traits<WriteArg<T>> {
  static constexpr bool is_wrapper = true;
  static constexpr AccessMode mode = AccessMode::kWrite;
  using value_type = T*;
  static value_type unwrap(const WriteArg<T>& a) { return a.ptr; }
};
template <typename T>
struct wrapper_traits<RwArg<T>> {
  static constexpr bool is_wrapper = true;
  static constexpr AccessMode mode = AccessMode::kReadWrite;
  using value_type = T*;
  static value_type unwrap(const RwArg<T>& a) { return a.ptr; }
};
template <typename T>
struct wrapper_traits<CwArg<T>> {
  static constexpr bool is_wrapper = true;
  static constexpr AccessMode mode = AccessMode::kCumulWrite;
  using value_type = T*;
  static value_type unwrap(const CwArg<T>& a) { return a.ptr; }
};
template <typename T>
struct wrapper_traits<ScratchArg<T>> {
  static constexpr bool is_wrapper = true;
  static constexpr AccessMode mode = AccessMode::kScratch;
  using value_type = T*;
  static value_type unwrap(const ScratchArg<T>& a) { return a.ptr; }
};

template <typename A>
inline constexpr bool is_wrapper_v = wrapper_traits<std::decay_t<A>>::is_wrapper;

template <typename A>
inline constexpr bool is_cw_v = false;
template <typename T>
inline constexpr bool is_cw_v<CwArg<T>> = true;

template <typename A>
using unwrapped_t = typename wrapper_traits<std::decay_t<A>>::value_type;

template <typename A>
decltype(auto) unwrap(A&& a) {
  using W = wrapper_traits<std::decay_t<A>>;
  if constexpr (W::is_wrapper) {
    return W::unwrap(a);
  } else {
    return std::forward<A>(a);
  }
}

/// Argument block placed in the frame arena next to the descriptor. The
/// trampoline destroys it after the call (the arena never runs destructors).
template <typename F, typename Tuple>
struct SpawnBlock {
  F fn;
  Tuple args;
};

template <typename F, typename Tuple>
void spawn_trampoline(void* p, Worker&) {
  auto* blk = static_cast<SpawnBlock<F, Tuple>*>(p);
  struct Destroy {
    SpawnBlock<F, Tuple>* b;
    ~Destroy() { b->~SpawnBlock<F, Tuple>(); }
  } destroy{blk};
  std::apply(blk->fn, blk->args);
}

template <typename Block, typename... Args, std::size_t... I>
void fill_accesses(Access* out, Block& blk, std::index_sequence<I...>,
                   const Args&... args) {
  std::size_t n = 0;
  auto one = [&](auto index, const auto& a) {
    using W = wrapper_traits<std::decay_t<decltype(a)>>;
    if constexpr (W::is_wrapper) {
      constexpr std::size_t i = decltype(index)::value;
      new (out + n++) Access{
          a.region, W::mode, static_cast<std::uint32_t>(i),
          static_cast<std::uint32_t>(
              reinterpret_cast<const char*>(&std::get<i>(blk.args)) -
              reinterpret_cast<const char*>(&blk))};
    }
  };
  (one(std::integral_constant<std::size_t, I>{}, args), ...);
}

/// Layout of one task record, bump-allocated in a single arena call (by
/// xk::spawn and by the QUARK front end): the descriptor, the argument
/// block right behind it, then the access array.
template <typename Block>
struct SpawnRecord {
  static constexpr std::size_t kBlockOffset =
      round_up(sizeof(Task), alignof(Block));
  static constexpr std::size_t kAccessOffset =
      round_up(kBlockOffset + sizeof(Block), alignof(Access));
  static constexpr std::size_t kAlign =
      std::max({alignof(Task), alignof(Block), alignof(Access)});
  static constexpr std::size_t bytes(std::size_t nacc) {
    return nacc == 0 ? kBlockOffset + sizeof(Block)
                     : kAccessOffset + nacc * sizeof(Access);
  }
};

}  // namespace detail

// ---------------------------------------------------------------------------
// spawn / sync.
// ---------------------------------------------------------------------------

/// Creates a task executing `fn(args...)` where access wrappers are replaced
/// by their pointers. Non-blocking: the caller continues immediately.
/// Outside a runtime section the call is executed inline (sequential
/// elision — a valid schedule by construction).
template <typename F, typename... Args>
void spawn(F&& fn, Args&&... args) {
  using Fd = std::decay_t<F>;
  using Tuple = std::tuple<detail::unwrapped_t<Args>...>;
  Worker* w = this_worker();
  const std::uint32_t depth = w != nullptr ? w->depth_relaxed() : 0;
  if (depth == 0) {
    Fd f(std::forward<F>(fn));
    std::apply(f, Tuple(detail::unwrap(std::forward<Args>(args))...));
    return;
  }
  using Block = detail::SpawnBlock<Fd, Tuple>;
  constexpr std::size_t nacc =
      (std::size_t{0} + ... + (detail::is_wrapper_v<Args> ? 1u : 0u));
  constexpr bool has_cw = (false || ... || detail::is_cw_v<std::decay_t<Args>>);
  using Record = detail::SpawnRecord<Block>;

  // One bump for the whole record. If the argument block's construction
  // throws, nothing was published and the frame's pop rewinds the arena
  // over the abandoned record (a frame with nothing else in it stays
  // pristine and pops on the fast path).
  Frame& f = w->frame_at(depth - 1);
  auto* rec =
      static_cast<char*>(f.arena.allocate(Record::bytes(nacc), Record::kAlign));
  auto* blk = new (rec + Record::kBlockOffset)
      Block{Fd(std::forward<F>(fn)),
            Tuple(detail::unwrap(std::forward<Args>(args))...)};
  auto* t = new (rec) Task();
  if constexpr (nacc > 0) {
    auto* acc = reinterpret_cast<Access*>(rec + Record::kAccessOffset);
    detail::fill_accesses(acc, *blk, std::index_sequence_for<Args...>{},
                          args...);
    t->accesses = acc;
    t->naccesses = static_cast<std::uint32_t>(nacc);
    t->has_cw = has_cw;
  }
  t->body = &detail::spawn_trampoline<Fd, Tuple>;
  t->args = blk;
  w->push_task(f, t);
}

/// Executes the current frame's pending children in FIFO order and waits for
/// stolen ones (§II-B). Rethrows the first child exception. No-op outside a
/// runtime section.
inline void sync() {
  Worker* w = this_worker();
  if (w == nullptr || w->depth_relaxed() == 0) return;
  w->drain_current_frame();
}

}  // namespace xk
