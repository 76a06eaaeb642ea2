#include "core/runtime.hpp"

#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "check/check.hpp"
#include "obs/chrome_writer.hpp"
#include "support/cpu.hpp"
#include "support/env.hpp"

namespace xk {

namespace {

// Clamped readers: the raw static_casts Config::from_env used to do turned
// XK_SECTIONS=-1 into 4294967295 master slots (and a negative queue cap
// into "unbounded"); a value the cast cannot represent now falls back to
// the compiled-in default, with a warning so a typoed deployment knob is
// visible instead of silently shaping the runtime. Upper bounds are
// generous — they reject sign-wraps and absurdities, not big tunings.
unsigned env_unsigned(const char* name, unsigned dflt,
                      unsigned max = 1u << 20) {
  const std::int64_t v = env_int(name, static_cast<std::int64_t>(dflt));
  if (v < 0 || v > static_cast<std::int64_t>(max)) {
    std::fprintf(stderr, "xk: ignoring out-of-range %s=%lld (default %u)\n",
                 name, static_cast<long long>(v), dflt);
    return dflt;
  }
  return static_cast<unsigned>(v);
}

std::size_t env_size(const char* name, std::size_t dflt) {
  const std::int64_t v = env_int(name, static_cast<std::int64_t>(dflt));
  if (v < 0) {
    std::fprintf(stderr, "xk: ignoring out-of-range %s=%lld (default %zu)\n",
                 name, static_cast<long long>(v), dflt);
    return dflt;
  }
  return static_cast<std::size_t>(v);
}

}  // namespace

Config Config::from_env() {
  Config cfg;
  cfg.nworkers = env_unsigned("XK_NCPU", 0, 4096);
  cfg.bind_threads = env_bool("XK_BIND", true);
  cfg.steal_aggregation = env_bool("XK_AGGREGATION", true);
  cfg.ready_list_threshold =
      env_size("XK_READYLIST_THRESHOLD", cfg.ready_list_threshold);
  cfg.renaming = env_bool("XK_RENAMING", false);
  cfg.topo = env_string("XK_TOPO").value_or(cfg.topo);
  cfg.cpuset = env_string("XK_CPUSET").value_or(cfg.cpuset);
  cfg.place = env_string("XK_PLACE").value_or(cfg.place);
  cfg.trace_path = env_string("XK_TRACE").value_or(cfg.trace_path);
  cfg.trace_cap = env_size("XK_TRACE_CAP", cfg.trace_cap);
  cfg.stats_dump = env_bool("XK_STATS", cfg.stats_dump);
  // Each section beyond the first costs a full Worker instance; 4096 is
  // far past any plausible overlap while rejecting cast wrap-arounds.
  cfg.sections = env_unsigned("XK_SECTIONS", cfg.sections, 4096);
  cfg.svc_queue_cap = env_size("XK_SVC_QUEUE_CAP", cfg.svc_queue_cap);
  cfg.svc_weights = env_string("XK_SVC_WEIGHTS").value_or(cfg.svc_weights);
  return cfg;
}

Runtime::Runtime(Config cfg) : cfg_(cfg), service_(*this) {
  const unsigned nw = cfg_.workers();
  nw_ = nw;
  // Master slots back overlapping sections: worker 0 (the traditional
  // master, kept first so single-section runs bind exactly as before)
  // plus sections-1 extra Worker instances appended after the pool.
  const unsigned extra = std::max(cfg_.sections, 1u) - 1;
  const unsigned nw_total = nw + extra;

  // Topology + placement first: workers snapshot their domain and victim
  // order from placement_ in their constructors. Empty topo/place fields
  // defer to the environment (see config.hpp), and malformed knob values
  // degrade to discovery/compact rather than failing the run (the same
  // policy env_int applies to numeric knobs).
  const std::string topo_spec =
      !cfg_.topo.empty() ? cfg_.topo : env_string("XK_TOPO").value_or("");
  topo_ = Topology::from_spec_or_discover(topo_spec);
  const std::string place_name =
      !cfg_.place.empty() ? cfg_.place : env_string("XK_PLACE").value_or("");
  const PlacePolicy policy =
      parse_place_policy(place_name).value_or(PlacePolicy::kCompact);
  placement_ = Placement::compute(topo_, nw, policy);
  const std::string cpuset =
      !cfg_.cpuset.empty() ? cfg_.cpuset
                           : env_string("XK_CPUSET").value_or("");
  if (!cpuset.empty()) {
    if (auto cpus = parse_cpulist(cpuset)) {
      placement_ = Placement::from_cpuset(topo_, *cpus, nw);
    } else {
      std::fprintf(stderr, "xk: ignoring malformed XK_CPUSET=%s\n",
                   cpuset.c_str());
    }
  }
  // Extra master slots reuse an existing pool slot's placement (slot
  // id % nw): they inherit its domain/rank — so occupancy folds, ready
  // shards and victim orders see a valid rank — without changing the pool
  // placement or the domain count. Masters are never CPU-bound (their
  // threads are the sections' callers) except slot 0, which keeps the old
  // bind-the-caller behavior.
  if (!placement_.slots.empty()) {
    const std::size_t npool = placement_.slots.size();
    for (unsigned id = nw; id < nw_total; ++id) {
      placement_.slots.push_back(placement_.slots[id % npool]);
    }
  }

  // The occupancy board must exist before the first worker constructor
  // caches its pointer; its domain fold is sized by the dense domain-rank
  // count, its bits by worker id (masters included) with the domain rank
  // folded in.
  occupancy_.init(placement_.ndomains);
  std::vector<unsigned> worker_ranks(nw_total, 0);
  for (unsigned i = 0; i < nw_total && i < placement_.slots.size(); ++i) {
    worker_ranks[i] = placement_.slots[i].domain_rank;
  }
  occupancy_.init_occupancy(worker_ranks);

  workers_.reserve(nw_total);
  for (unsigned i = 0; i < nw_total; ++i) {
    workers_.push_back(std::make_unique<Worker>(*this, i, nw_total));
  }
  master_slots_.push_back(0);
  for (unsigned id = nw; id < nw_total; ++id) master_slots_.push_back(id);
  master_open_.assign(master_slots_.size(), 0);
  section_t0_.assign(nw_total, 0);

  // Observability arming. The rings must exist before any pool thread
  // starts (worker_main binds its ring right after its worker TLS).
  stats_dump_ = cfg_.stats_dump || env_bool("XK_STATS", false);
#ifdef XK_OBS_OFF
  // The -DXK_OBS=OFF baseline build stubs every record helper, so a trace
  // would be all metadata and no events — don't write one at all.
  const std::string trace_path;
#else
  const std::string trace_path =
      !cfg_.trace_path.empty() ? cfg_.trace_path
                               : env_string("XK_TRACE").value_or("");
#endif
  if (!trace_path.empty()) {
    std::size_t cap = cfg_.trace_cap != 0 ? cfg_.trace_cap
                                          : env_size("XK_TRACE_CAP", 16384);
    if (cap == 0) cap = 16384;
    trace_rings_.reserve(nw_total);
    for (unsigned i = 0; i < nw_total; ++i) {
      trace_rings_.push_back(std::make_unique<obs::TraceRing>(cap));
    }
    auto& writer = obs::ChromeTraceWriter::instance();
    writer.set_path(trace_path);
    trace_pid_ = writer.add_process(
        "xk runtime (" + std::to_string(nw) + " workers)", nw_total);
  }

  threads_.reserve(nw > 0 ? nw - 1 : 0);
  for (unsigned i = 1; i < nw; ++i) {
    threads_.emplace_back(&Runtime::worker_main, this, i);
  }
}

Runtime::~Runtime() {
  // A section left open by the destroying thread itself (begin without
  // end) is closed on its behalf, first: it may hold the master slot the
  // service thread needs. Sections owned by *other* threads cannot be
  // drained from here and are a caller bug.
  if (Worker* w = this_worker();
      w != nullptr && &w->runtime() == this && in_section()) {
    end_silent();
  }
  // Then the service thread: it keeps its section open until every job
  // still queued has run, which needs the pool.
  service_.shutdown();
  {
    std::lock_guard lock(park_mutex_);
    shutdown_ = true;
  }
  park_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Runtime::worker_main(unsigned index) {
  Worker& w = *workers_[index];
  detail::set_this_worker(&w);
  obs::bind_thread_ring(trace_ring(index));
  if (cfg_.bind_threads) bind_self_to_core(placement_.slots[index].cpu_os_id);
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock lock(park_mutex_);
      // Publish "between sections": stats_snapshot/reset_stats use this
      // (and the mutex edge it implies) to read per-worker counters only
      // after every worker's last unsynchronized write.
      ++idle_workers_;
      idle_cv_.notify_all();
      park_cv_.wait(lock, [&] { return shutdown_ || epoch_ > seen; });
      --idle_workers_;
      if (shutdown_) break;
      seen = epoch_;
    }
    // In-section idle loop: spin, yield, then park on the work parker
    // (woken one at a time by push_task; section end notifies all).
    w.steal_idle(
        [&] { return !section_active_.load(std::memory_order_acquire); });
  }
  obs::bind_thread_ring(nullptr);
  detail::set_this_worker(nullptr);
}

void Runtime::begin() {
  if (this_worker() != nullptr) {
    throw std::logic_error("xk::Runtime::begin: thread already bound");
  }
  std::lock_guard lock(section_mu_);
  unsigned id = 0;
  bool found = false;
  for (std::size_t k = 0; k < master_slots_.size(); ++k) {
    if (!master_open_[k]) {
      master_open_[k] = 1;
      id = master_slots_[k];
      found = true;
      break;
    }
  }
  if (!found) {
    throw std::logic_error(
        "xk::Runtime::begin: all section slots busy (raise XK_SECTIONS)");
  }
  Worker& w = *workers_[id];
  detail::set_this_worker(&w);
  obs::bind_thread_ring(trace_ring(id));
  section_t0_[id] = obs::span_begin();
  if (cfg_.bind_threads && id == 0) {
    bind_self_to_core(placement_.slots[0].cpu_os_id);
  }
  const bool first =
      open_sections_.load(std::memory_order_relaxed) == 0;
  if constexpr (check::kEnabled) {
    // A new batch begins on every 0 -> 1 open transition; its matching
    // last-close drain is asserted in end(). Guarded by section_mu_.
    if (first) ++check_batches_;
  }
  if (first) {
    // Arm the quiescence event *before* any root frame publishes a
    // master's occupancy. Every root push/pop happens under section_mu_,
    // so from here until the *last* overlapping section closes the root
    // occupied count stays >= 1 and the only 1->0 root edge — the final
    // root-frame pop in end() — is the one that fires, waking parked
    // workers exactly once when the whole batch is over.
    occupancy_.arm_quiesce(&work_parker_);
  }
  w.push_frame();  // root frame
  open_sections_.fetch_add(1, std::memory_order_release);
  if (first) {
    {
      std::lock_guard plock(park_mutex_);
      ++epoch_;
      section_active_.store(true, std::memory_order_release);
    }
    park_cv_.notify_all();
  }
}

void Runtime::end() {
  Worker* w = this_worker();
  const bool master =
      w != nullptr && &w->runtime() == this &&
      (w->id() == 0 || w->id() >= nw_);
  if (!master || !in_section()) {
    throw std::logic_error("xk::Runtime::end: no open section");
  }
  std::exception_ptr exc;
  try {
    w->drain_current_frame();
  } catch (...) {
    exc = std::current_exception();
  }
  const unsigned id = w->id();
  {
    std::lock_guard lock(section_mu_);
    const unsigned open = open_sections_.load(std::memory_order_relaxed);
    // in_section() above already rejected a bare end(); this guards the
    // counter itself — an open_sections_ underflow here would wrap the
    // gauge and wedge every later first-open/last-close transition.
    XK_EXPECT(section_underflow, open > 0, open);
    const bool last = open == 1;
    if (last) section_active_.store(false, std::memory_order_release);
    // No explicit broadcasts here: when this is the last open section the
    // root-frame pop below clears the final master occupancy bit, the
    // board fold sees the machine-wide root count hit zero — quiescence —
    // and fires the armed work parker exactly once. A worker about to park
    // re-validates the section predicate inside its announce window
    // (after the release store above), so it either sees the close or its
    // prepare()-epoch park is cut short by the fire's seq bump. A
    // non-last close pops under the same lock while some other master's
    // root frame is still pushed, so the root count never dips to zero
    // and nothing fires early.
    w->pop_frame();
    if (last) occupancy_.disarm_quiesce();  // defensive; fold consumed it
    // Last, so in_section() reading false means the close is whole.
    open_sections_.fetch_sub(1, std::memory_order_release);
    // The section span closes before the final drain (it must be in that
    // drain's batch). Non-last sections leave their span in the master's
    // ring; the last close copies every ring out after quiescing the
    // pool — all under section_mu_, so no begin() can re-open (and no
    // worker can record) while rings are being copied: one drain per
    // batch, never two.
    obs::emit_span(obs::Ev::kSection, section_t0_[id], nworkers());
    section_t0_[id] = 0;
    if constexpr (check::kEnabled) {
      // Exactly-once drain per batch: after the last close's drain, the
      // drain count must have caught up with the batch count — a second
      // drain in the same batch (or a skipped one) breaks the equality.
      // The open_sections_ check pins the other half: rings are only
      // copied out while no section can be recording into them.
      if (last) {
        XK_EXPECT(section_drain,
                  open_sections_.load(std::memory_order_relaxed) == 0,
                  open_sections_.load(std::memory_order_relaxed));
        ++check_drains_;
        XK_EXPECT(section_drain, check_drains_ == check_batches_,
                  check_drains_, check_batches_);
      }
    }
    if (last) drain_observability();
    for (std::size_t k = 0; k < master_slots_.size(); ++k) {
      if (master_slots_[k] == id) master_open_[k] = 0;
    }
  }
  obs::bind_thread_ring(nullptr);
  detail::set_this_worker(nullptr);
  if (exc) std::rethrow_exception(exc);
}

void Runtime::end_silent() {
  try {
    end();
  } catch (...) {
    // Cleanup path of Runtime::run: the user's exception wins.
  }
}

WorkerStats Runtime::stats_snapshot() const {
  quiesce_pool();
  WorkerStats total;
  for (const auto& w : workers_) total += *w->stats_;
  return total;
}

obs::MetricsSnapshot Runtime::metrics_snapshot() const {
  obs::MetricsSnapshot m;
  m.nworkers = nworkers();
  const WorkerStats total = stats_snapshot();
  m.counters.reserve(kWorkerStatCount);
  total.for_each([&](const char* name, std::uint64_t v) {
    m.counters.emplace_back(name, v);
  });
  m.domains.reserve(occupancy_.ndomains());
  for (unsigned r = 0; r < occupancy_.ndomains(); ++r) {
    m.domains.push_back(
        obs::MetricsSnapshot::DomainGauge{r, occupancy_.domain_occupied(r)});
  }
  m.root_occupied = occupancy_.root_occupied();
  return m;
}

void Runtime::drain_observability() {
  if (trace_pid_ == 0 && !stats_dump_) return;
  // quiesce_pool (inside stats_snapshot / directly) waits every pool
  // worker back into its between-sections park; the park mutex is the
  // ordering edge that makes their last ring writes visible here.
  const obs::MetricsSnapshot m = metrics_snapshot();
  if (stats_dump_) m.dump(std::cerr);
  if (trace_pid_ == 0) return;
  auto& writer = obs::ChromeTraceWriter::instance();
  std::vector<obs::TraceEvent> events;
  for (unsigned i = 0; i < trace_rings_.size(); ++i) {
    obs::TraceRing& ring = *trace_rings_[i];
    events.clear();
    ring.drain(events);
    writer.add_events(trace_pid_, i, events, ring.dropped());
    ring.clear();
  }
  writer.add_metrics(trace_pid_, m);
}

void Runtime::reset_stats() {
  quiesce_pool();
  for (auto& w : workers_) *w->stats_ = WorkerStats{};
}

void Runtime::quiesce_pool() const {
  // Per-worker counters are plain (hot-path) fields; between sections we
  // wait for every pool worker to re-enter the park_cv_ wait so the mutex
  // provides the ordering edge that makes their final writes visible. With
  // a section open the caller owns the raciness (documented in stats.hpp).
  if (in_section()) return;
  std::unique_lock lock(park_mutex_);
  idle_cv_.wait(lock, [&] {
    return idle_workers_ == threads_.size() || shutdown_;
  });
}

}  // namespace xk
