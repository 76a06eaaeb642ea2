#include "quark/quark.h"

#include <cassert>
#include <cstdarg>
#include <cstring>
#include <memory>
#include <vector>

#include "baselines/central_queue.hpp"
#include "core/xkaapi.hpp"
#include "support/env.hpp"

namespace {

struct QuarkArg {
  std::vector<char> value;  // VALUE: copied bytes; SCRATCH: buffer storage
  void* ptr = nullptr;      // dependency/NODEP flags: the user pointer
  std::size_t size = 0;
  int flags = 0;
};

struct QuarkTaskArgs {
  void (*function)(Quark*) = nullptr;
  Quark* quark = nullptr;
  std::vector<QuarkArg> args;
};

thread_local QuarkTaskArgs* g_running = nullptr;

xk::AccessMode mode_for(int flags) {
  switch (flags) {
    case QUARK_INPUT:
      return xk::AccessMode::kRead;
    case QUARK_OUTPUT:
      return xk::AccessMode::kWrite;
    case QUARK_INOUT:
      return xk::AccessMode::kReadWrite;
    default:
      return xk::AccessMode::kNone;
  }
}

void run_quark_task(QuarkTaskArgs& a) {
  QuarkTaskArgs* saved = g_running;
  g_running = &a;
  a.function(a.quark);
  g_running = saved;
}

/// X-Kaapi backend trampoline: the args block lives in the frame arena and
/// is destroyed after the call (same contract as xk::spawn's SpawnBlock).
void xk_quark_trampoline(void* p, xk::Worker&) {
  auto* blk = static_cast<QuarkTaskArgs*>(p);
  struct Destroy {
    QuarkTaskArgs* b;
    ~Destroy() { b->~QuarkTaskArgs(); }
  } destroy{blk};
  run_quark_task(*blk);
}

}  // namespace

struct quark_s {
  QuarkBackend backend = QUARK_BACKEND_XKAAPI;
  std::unique_ptr<xk::Runtime> rt;
  std::unique_ptr<xk::baseline::CentralQueueRuntime> central;
  unsigned nthreads = 0;
  unsigned long long inserted = 0;
};

Quark* QUARK_New_Backend(int num_threads, QuarkBackend backend) {
  auto* q = new quark_s();
  q->backend = backend;
  const unsigned n = num_threads > 0 ? static_cast<unsigned>(num_threads)
                                     : xk::default_worker_count();
  q->nthreads = n;
  if (backend == QUARK_BACKEND_XKAAPI) {
    xk::Config cfg = xk::Config::from_env();
    cfg.nworkers = n;
    cfg.bind_threads = false;  // the master thread is the caller's
    q->rt = std::make_unique<xk::Runtime>(cfg);
    q->rt->begin();  // persistent section: insert from the master thread
  } else {
    q->central = std::make_unique<xk::baseline::CentralQueueRuntime>(n);
  }
  return q;
}

Quark* QUARK_New(int num_threads) {
  const auto name = xk::env_string("XK_QUARK_BACKEND").value_or("xkaapi");
  return QUARK_New_Backend(
      num_threads,
      name == "central" ? QUARK_BACKEND_CENTRAL : QUARK_BACKEND_XKAAPI);
}

void QUARK_Delete(Quark* quark) {
  if (quark == nullptr) return;
  QUARK_Barrier(quark);
  if (quark->rt) quark->rt->end();
  delete quark;
}

void QUARK_Barrier(Quark* quark) {
  if (quark->backend == QUARK_BACKEND_XKAAPI) {
    xk::sync();
  } else {
    quark->central->barrier();
  }
}

int QUARK_Thread_Count(Quark* quark) {
  return static_cast<int>(quark->nthreads);
}

unsigned long long QUARK_Insert_Task(Quark* quark, void (*function)(Quark*),
                                     const Quark_Task_Flags* flags, ...) {
  (void)flags;
  QuarkTaskArgs packed;
  packed.function = function;
  packed.quark = quark;

  // Varargs: (size_t size, void* ptr, int flags) triplets, 0-terminated.
  va_list ap;
  va_start(ap, flags);
  for (;;) {
    const std::size_t size = va_arg(ap, std::size_t);
    if (size == 0) break;
    void* ptr = va_arg(ap, void*);
    const int aflags = va_arg(ap, int);
    QuarkArg arg;
    arg.size = size;
    arg.flags = aflags;
    if (aflags == QUARK_VALUE) {
      const char* bytes = static_cast<const char*>(ptr);
      arg.value.assign(bytes, bytes + size);
    } else if (aflags == QUARK_SCRATCH) {
      arg.value.resize(size);  // per-execution temporary
    } else {
      arg.ptr = ptr;
    }
    packed.args.push_back(std::move(arg));
  }
  va_end(ap);
  ++quark->inserted;

  if (quark->backend == QUARK_BACKEND_XKAAPI) {
    xk::Worker* w = xk::this_worker();
    assert(w != nullptr && w->depth_relaxed() > 0 &&
           "QUARK_Insert_Task must run on the QUARK_New thread");
    // Count dependency-carrying arguments, then build the descriptor, the
    // argument block and the access array in one frame-arena record, laid
    // out as xk::spawn lays out its own.
    std::uint32_t nacc = 0;
    for (const QuarkArg& a : packed.args) {
      if (mode_for(a.flags) != xk::AccessMode::kNone) ++nacc;
    }
    using Record = xk::detail::SpawnRecord<QuarkTaskArgs>;
    xk::Frame& f = w->current_frame();
    auto* rec = static_cast<char*>(
        f.arena.allocate(Record::bytes(nacc), Record::kAlign));
    auto* blk =
        new (rec + Record::kBlockOffset) QuarkTaskArgs(std::move(packed));
    auto* t = new (rec) xk::Task();
    if (nacc > 0) {
      auto* acc = reinterpret_cast<xk::Access*>(rec + Record::kAccessOffset);
      std::uint32_t k = 0;
      for (std::uint32_t i = 0; i < blk->args.size(); ++i) {
        const QuarkArg& a = blk->args[i];
        const xk::AccessMode mode = mode_for(a.flags);
        if (mode == xk::AccessMode::kNone) continue;
        // Pointers live in a vector: no arg offset, never renamed.
        new (acc + k++) xk::Access{xk::MemRegion::contiguous(a.ptr, a.size),
                                   mode, i, xk::kNoArgOffset};
      }
      t->accesses = acc;
      t->naccesses = nacc;
    }
    t->body = &xk_quark_trampoline;
    t->args = blk;
    w->push_task(f, t);
  } else {
    // Central backend: QUARK's own model — dependencies resolved at
    // insertion, one global ready list.
    std::vector<xk::baseline::CqAccess> cq;
    for (const QuarkArg& a : packed.args) {
      const xk::AccessMode mode = mode_for(a.flags);
      if (mode == xk::AccessMode::kNone) continue;
      cq.push_back({xk::MemRegion::contiguous(a.ptr, a.size), mode});
    }
    auto shared = std::make_shared<QuarkTaskArgs>(std::move(packed));
    quark->central->insert([shared] { run_quark_task(*shared); },
                           std::move(cq));
  }
  return quark->inserted;
}

void QUARK_Arg_Fetch(Quark* /*quark*/, int index, void* dest,
                     std::size_t bytes) {
  QuarkTaskArgs* a = g_running;
  assert(a != nullptr && "QUARK_Arg_Fetch outside a task");
  assert(index >= 0 && static_cast<std::size_t>(index) < a->args.size());
  QuarkArg& arg = a->args[static_cast<std::size_t>(index)];
  if (arg.flags == QUARK_VALUE) {
    std::memcpy(dest, arg.value.data(), std::min(bytes, arg.size));
  } else if (arg.flags == QUARK_SCRATCH) {
    void* p = arg.value.data();
    std::memcpy(dest, &p, sizeof(void*));
  } else {
    std::memcpy(dest, &arg.ptr, sizeof(void*));
  }
}
