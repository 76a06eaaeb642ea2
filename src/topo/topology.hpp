// Machine topology discovery and locality-aware thread placement.
//
// The paper binds workers to cores with an affinity mask (§III-C) but leaves
// *which* core to the flat worker index. On multi-socket machines that makes
// victim selection topology-blind: a thief is as likely to pull work (and
// the data behind it) across a NUMA boundary as not. This module gives the
// runtime the machine's shape so placement and victim choice can be
// locality-aware:
//
//  * `Topology` — machine → package → NUMA node → core → SMT sibling,
//    discovered from /sys/devices/system/{cpu,node}. A synthetic override
//    (`XK_TOPO=<nodes>x<cores>[x<smt>]`) lets single-box CI exercise
//    multi-node shapes deterministically.
//  * `Placement` — worker → (cpu, locality domain) map computed from the
//    topology under a policy (compact packs a node before spilling to the
//    next, scatter round-robins nodes), or taken verbatim from `XK_CPUSET`.
//  * `steal_victim_order` — the two-level victim ordering (same-domain
//    workers first) that Worker::try_steal_once draws from.
//
// A locality domain is a NUMA node. Everything here is plain data computed
// once at Runtime construction; no part of the steal hot path calls into
// this module.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace xk {

/// One logical CPU in the topology. `os_id` is what the affinity syscall
/// wants; the rest orders the cpu within the machine hierarchy.
struct TopoCpu {
  unsigned os_id = 0;    ///< OS cpu number (sysfs cpuN / synthetic index)
  unsigned node = 0;     ///< NUMA node == locality domain
  unsigned package = 0;  ///< physical package (socket)
  unsigned core = 0;     ///< machine-global core index
  unsigned smt = 0;      ///< sibling rank within the core (0 = first thread)
};

/// Parses a Linux cpulist ("0-3,8,10-11") into ascending OS cpu ids.
/// Returns nullopt on malformed input (empty, junk, inverted ranges).
std::optional<std::vector<unsigned>> parse_cpulist(const std::string& list);

class Topology {
 public:
  /// Single-node fallback shape: `ncpus` cpus, one core each, one domain.
  /// `ncpus == 0` resolves to the visible hardware thread count.
  static Topology flat(unsigned ncpus = 0);

  /// Deterministic synthetic machine: `nodes` NUMA nodes of `cores` cores
  /// with `smt` threads each. OS ids enumerate node-major, core, then smt.
  static Topology synthetic(unsigned nodes, unsigned cores, unsigned smt = 1);

  /// Parses the `XK_TOPO` spec: '+'-separated groups, each
  /// "<nodes>x<cores>[x<smt>]" (all counts >= 1). With more than one group
  /// a bare "<cores>" is shorthand for one node of that many cores, so
  /// "2+6" == "1x2+1x6" — an asymmetric two-domain machine (the shape CI
  /// uses to exercise imbalance deterministically). A single group keeps
  /// requiring the explicit "<nodes>x<cores>" form, so a stray number in
  /// XK_TOPO stays malformed. Returns nullopt on malformed input so a
  /// stray value cannot brick a run.
  static std::optional<Topology> parse_spec(const std::string& spec);

  /// Reads `<sysfs_root>/devices/system/cpu/cpu*/topology/` and
  /// `<sysfs_root>/devices/system/node/node*/cpulist`. Degrades gracefully:
  /// missing node files collapse to one domain, an unreadable tree falls
  /// back to flat(). `sysfs_root` is overridable for fixture-based tests.
  static Topology discover(const std::string& sysfs_root = "/sys");

  /// Resolves an `XK_TOPO`-style spec string: synthetic shape when `spec`
  /// is non-empty and well-formed, discover() otherwise (with an stderr
  /// note for a malformed spec, mirroring the env_int lenience). This is
  /// the single policy point the Runtime constructor goes through.
  static Topology from_spec_or_discover(const std::string& spec);

  unsigned ncpus() const { return static_cast<unsigned>(cpus_.size()); }
  unsigned nnodes() const { return static_cast<unsigned>(node_cpus_.size()); }
  unsigned ncores() const { return ncores_; }
  unsigned npackages() const { return npackages_; }

  /// True for synthetic()/parse_spec() shapes: placement and victim order
  /// derived from them are reproducible run-to-run (no machine dependence),
  /// which the topology tests and the CI topo matrix rely on.
  bool is_synthetic() const { return synthetic_; }

  /// Cpus in canonical order: (node, core, smt) ascending. Dense index
  /// `i` below refers to a position in this vector, not an OS id.
  const std::vector<TopoCpu>& cpus() const { return cpus_; }
  const TopoCpu& cpu(unsigned i) const { return cpus_[i]; }

  /// Dense cpu indexes belonging to NUMA node `n`, canonical order.
  const std::vector<unsigned>& node_cpus(unsigned n) const {
    return node_cpus_[n];
  }

  /// Dense index of the cpu with OS id `os_id`, if present.
  std::optional<unsigned> index_of_os_id(unsigned os_id) const;

 private:
  /// Normalizes raw (os_id, package, core_id, node) tuples into canonical
  /// order with dense global core indexes and SMT ranks.
  struct RawCpu {
    unsigned os_id, package, core_id, node;
  };
  static Topology build(std::vector<RawCpu> raw, bool synthetic);

  std::vector<TopoCpu> cpus_;
  std::vector<std::vector<unsigned>> node_cpus_;
  unsigned ncores_ = 0;
  unsigned npackages_ = 0;
  bool synthetic_ = false;
};

/// How Placement::compute fills the machine (`XK_PLACE`):
///  * compact — pack workers onto node 0's cpus (cores, then their SMT
///    siblings) before spilling to node 1; adjacent workers share caches.
///  * scatter — round-robin workers across nodes (distinct cores before
///    SMT siblings within each node); maximizes aggregate bandwidth.
enum class PlacePolicy { kCompact, kScatter };

/// Parses "compact"/"scatter" (case-insensitive); nullopt otherwise.
std::optional<PlacePolicy> parse_place_policy(const std::string& name);

/// The worker → (cpu, domain) map the runtime pins and steals by.
struct Placement {
  struct Slot {
    unsigned cpu_os_id = 0;   ///< bind target (mod visible cores, best-effort)
    unsigned domain = 0;      ///< locality domain (NUMA node id)
    unsigned domain_rank = 0; ///< dense domain index in [0, ndomains) — what
                              ///  ready-list shards and the occupancy board
                              ///  are keyed by (node ids can be sparse, e.g.
                              ///  an XK_CPUSET spanning nodes 0 and 2)
  };

  std::vector<Slot> slots;    ///< one per worker
  unsigned ndomains = 1;      ///< distinct domains across slots
  bool deterministic = false; ///< synthetic shape: use rotating victim draw

  /// Places `nworkers` workers onto `topo` under `policy`. More workers
  /// than cpus wrap around (oversubscription keeps working).
  static Placement compute(const Topology& topo, unsigned nworkers,
                           PlacePolicy policy);

  /// Explicit `XK_CPUSET` map: worker i binds to the i-th cpu of `os_ids`
  /// (wrapping), with the domain looked up in `topo` (0 when the id is not
  /// in the topology, e.g. a cpuset wider than a synthetic shape).
  static Placement from_cpuset(const Topology& topo,
                               const std::vector<unsigned>& os_ids,
                               unsigned nworkers);
};

/// Hierarchical victim ordering for worker `self`: first every same-domain
/// worker (ascending id, rotated to start just after `self`), then remote
/// workers grouped by domain (domains ascending from self's, ids ascending
/// within each). `self` itself never appears, so a thief can never probe
/// itself. The first `nlocal` entries of `order` are the local tier.
struct VictimOrder {
  std::vector<unsigned> order;
  unsigned nlocal = 0;
};
VictimOrder steal_victim_order(const Placement& placement, unsigned self);

}  // namespace xk
