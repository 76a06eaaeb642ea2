#include "epx/kernels.hpp"

#include <algorithm>
#include <cmath>


#include "core/foreach.hpp"

namespace xk::epx {

LoopRunner seq_runner() {
  return [](std::int64_t n,
            const std::function<void(std::int64_t, std::int64_t)>& body) {
    body(0, n);
  };
}

LoopRunner xkaapi_runner(std::int64_t grain) {
  return [grain](std::int64_t n,
                 const std::function<void(std::int64_t, std::int64_t)>& body) {
    ForeachOptions opt;
    opt.grain = grain;
    xk::parallel_for(
        0, n, [&body](std::int64_t lo, std::int64_t hi) { body(lo, hi); },
        opt);
  };
}

// ---------------------------------------------------------------------------
// LOOPELM
// ---------------------------------------------------------------------------

namespace {

// Corner sets of the +x / +y / +z faces for the structured hex ordering of
// make_box (0..3 bottom CCW, 4..7 top).
constexpr int kFaceXP[4] = {1, 2, 5, 6};
constexpr int kFaceXM[4] = {0, 3, 4, 7};
constexpr int kFaceYP[4] = {2, 3, 6, 7};
constexpr int kFaceYM[4] = {0, 1, 4, 5};
constexpr int kFaceZP[4] = {4, 5, 6, 7};
constexpr int kFaceZM[4] = {0, 1, 2, 3};

struct Gather {
  Vec3 x[8];
  Vec3 x0[8];
  Vec3 v[8];
};

double face_avg(const Vec3* p, const int idx[4], double Vec3::*comp) {
  return 0.25 * (p[idx[0]].*comp + p[idx[1]].*comp + p[idx[2]].*comp +
                 p[idx[3]].*comp);
}

}  // namespace

void loopelm(Mesh& mesh, LoopelmState& state, double dt, int material_iters,
             const LoopRunner& run) {
  const auto nelems = static_cast<std::int64_t>(mesh.nelems());

  // Phase A: independent loop over elements (the paper's LOOPELM proper).
  run(nelems, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t e = lo; e < hi; ++e) {
      const auto& conn = mesh.elems[static_cast<std::size_t>(e)];
      Gather g;
      for (int c = 0; c < 8; ++c) {
        const auto n = static_cast<std::size_t>(conn[static_cast<std::size_t>(c)]);
        g.x[c] = mesh.x[n];
        g.x0[c] = mesh.x0[n];
        g.v[c] = mesh.v[n];
      }
      // Reference edge lengths.
      const double hx = face_avg(g.x0, kFaceXP, &Vec3::x) -
                        face_avg(g.x0, kFaceXM, &Vec3::x);
      const double hy = face_avg(g.x0, kFaceYP, &Vec3::y) -
                        face_avg(g.x0, kFaceYM, &Vec3::y);
      const double hz = face_avg(g.x0, kFaceZP, &Vec3::z) -
                        face_avg(g.x0, kFaceZM, &Vec3::z);
      // Velocity-gradient proxy from face-averaged velocities.
      const double dvxdx = (face_avg(g.v, kFaceXP, &Vec3::x) -
                            face_avg(g.v, kFaceXM, &Vec3::x)) / hx;
      const double dvydy = (face_avg(g.v, kFaceYP, &Vec3::y) -
                            face_avg(g.v, kFaceYM, &Vec3::y)) / hy;
      const double dvzdz = (face_avg(g.v, kFaceZP, &Vec3::z) -
                            face_avg(g.v, kFaceZM, &Vec3::z)) / hz;
      const double dvxdy = (face_avg(g.v, kFaceYP, &Vec3::x) -
                            face_avg(g.v, kFaceYM, &Vec3::x)) / hy;
      const double dvydx = (face_avg(g.v, kFaceXP, &Vec3::y) -
                            face_avg(g.v, kFaceXM, &Vec3::y)) / hx;
      const double dvydz = (face_avg(g.v, kFaceZP, &Vec3::y) -
                            face_avg(g.v, kFaceZM, &Vec3::y)) / hz;
      const double dvzdy = (face_avg(g.v, kFaceYP, &Vec3::z) -
                            face_avg(g.v, kFaceYM, &Vec3::z)) / hy;
      const double dvzdx = (face_avg(g.v, kFaceXP, &Vec3::z) -
                            face_avg(g.v, kFaceXM, &Vec3::z)) / hx;
      const double dvxdz = (face_avg(g.v, kFaceZP, &Vec3::x) -
                            face_avg(g.v, kFaceZM, &Vec3::x)) / hz;

      const std::array<double, 6> dstrain = {
          dvxdx * dt,           dvydy * dt,           dvzdz * dt,
          (dvxdy + dvydx) * dt, (dvydz + dvzdy) * dt, (dvzdx + dvxdz) * dt};

      ElemState& es = state.elem_state[static_cast<std::size_t>(e)];
      const Material& mat =
          material(mesh.elem_material[static_cast<std::size_t>(e)]);
      material_update(mat, es, dstrain, material_iters);

      // Nodal forces: stress times face areas, distributed to face corners.
      const double ax = hy * hz / 4.0, ay = hx * hz / 4.0, az = hx * hy / 4.0;
      auto& f = state.elem_force[static_cast<std::size_t>(e)];
      f.fill(0.0);
      auto add = [&](const int idx[4], int comp, double val) {
        for (int c = 0; c < 4; ++c) f[static_cast<std::size_t>(idx[c] * 3 + comp)] += val;
      };
      const auto& s = es.stress;
      // Normal components.
      add(kFaceXP, 0, -s[0] * ax);
      add(kFaceXM, 0, +s[0] * ax);
      add(kFaceYP, 1, -s[1] * ay);
      add(kFaceYM, 1, +s[1] * ay);
      add(kFaceZP, 2, -s[2] * az);
      add(kFaceZM, 2, +s[2] * az);
      // Shear components (xy, yz, zx).
      add(kFaceXP, 1, -s[3] * ax);
      add(kFaceXM, 1, +s[3] * ax);
      add(kFaceYP, 0, -s[3] * ay);
      add(kFaceYM, 0, +s[3] * ay);
      add(kFaceYP, 2, -s[4] * ay);
      add(kFaceYM, 2, +s[4] * ay);
      add(kFaceZP, 1, -s[4] * az);
      add(kFaceZM, 1, +s[4] * az);
      add(kFaceZP, 0, -s[5] * az);
      add(kFaceZM, 0, +s[5] * az);
      add(kFaceXP, 2, -s[5] * ax);
      add(kFaceXM, 2, +s[5] * ax);
    }
  });

  // Phase B: independent loop over nodes — deterministic assembly through
  // the incidence table (fixed order regardless of schedule).
  const auto nnodes = static_cast<std::int64_t>(mesh.nnodes());
  run(nnodes, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t n = lo; n < hi; ++n) {
      Vec3 acc;
      for (const Mesh::Incidence& inc :
           mesh.node_elems[static_cast<std::size_t>(n)]) {
        const auto& f = state.elem_force[static_cast<std::size_t>(inc.elem)];
        acc.x += f[static_cast<std::size_t>(inc.corner * 3 + 0)];
        acc.y += f[static_cast<std::size_t>(inc.corner * 3 + 1)];
        acc.z += f[static_cast<std::size_t>(inc.corner * 3 + 2)];
      }
      mesh.f_int[static_cast<std::size_t>(n)] = acc;
    }
  });
}

// ---------------------------------------------------------------------------
// REPERA
// ---------------------------------------------------------------------------

namespace {

/// Dense cell grid over the facet bounding box: probes are pure index
/// arithmetic (facet sets are compact surfaces, so the box stays small).
struct FlatGrid {
  double cell = 1.0;
  Vec3 lo;
  int nx = 1, ny = 1, nz = 1;
  std::vector<std::vector<int>> cells;

  void build(const std::vector<Vec3>& centers, double cell_size) {
    cell = cell_size;
    Vec3 hi{-1e300, -1e300, -1e300};
    lo = Vec3{1e300, 1e300, 1e300};
    for (const Vec3& c : centers) {
      lo.x = std::min(lo.x, c.x);
      lo.y = std::min(lo.y, c.y);
      lo.z = std::min(lo.z, c.z);
      hi.x = std::max(hi.x, c.x);
      hi.y = std::max(hi.y, c.y);
      hi.z = std::max(hi.z, c.z);
    }
    if (centers.empty()) lo = hi = Vec3{};
    nx = static_cast<int>((hi.x - lo.x) / cell) + 1;
    ny = static_cast<int>((hi.y - lo.y) / cell) + 1;
    nz = static_cast<int>((hi.z - lo.z) / cell) + 1;
    cells.assign(static_cast<std::size_t>(nx) * ny * nz, {});
    for (std::size_t fi = 0; fi < centers.size(); ++fi) {
      cells[index_of(centers[fi])].push_back(static_cast<int>(fi));
    }
  }

  std::size_t index_of(const Vec3& p) const {
    const int ix = clampi(static_cast<int>((p.x - lo.x) / cell), nx);
    const int iy = clampi(static_cast<int>((p.y - lo.y) / cell), ny);
    const int iz = clampi(static_cast<int>((p.z - lo.z) / cell), nz);
    return (static_cast<std::size_t>(iz) * ny + iy) * nx + ix;
  }

  /// Cell at offset (dx,dy,dz) from p's cell; nullptr when outside the box.
  /// The bound check runs in double, before any cast: a node far outside
  /// the box (a diverging run's escaped node) or a non-finite coordinate
  /// has no cell, and casting its index to int would be undefined. Small
  /// integers are exact in double, so in-box lookups are unchanged.
  const std::vector<int>* cell_at(const Vec3& p, int dx, int dy,
                                  int dz) const {
    const double fx = std::floor((p.x - lo.x) / cell) + dx;
    const double fy = std::floor((p.y - lo.y) / cell) + dy;
    const double fz = std::floor((p.z - lo.z) / cell) + dz;
    if (!(fx >= 0 && fx < nx && fy >= 0 && fy < ny && fz >= 0 && fz < nz)) {
      return nullptr;
    }
    const auto ix = static_cast<std::size_t>(fx);
    const auto iy = static_cast<std::size_t>(fy);
    const auto iz = static_cast<std::size_t>(fz);
    return &cells[(iz * static_cast<std::size_t>(ny) + iy) *
                      static_cast<std::size_t>(nx) +
                  ix];
  }

  static int clampi(int v, int n) { return v < 0 ? 0 : (v >= n ? n - 1 : v); }
};

double dot(const Vec3& a, const Vec3& b) {
  return a.x * b.x + a.y * b.y + a.z * b.z;
}

Vec3 sub(const Vec3& a, const Vec3& b) {
  return Vec3{a.x - b.x, a.y - b.y, a.z - b.z};
}

}  // namespace

void repera(const Mesh& mesh, ReperaState& out, const LoopRunner& run) {
  out.total = 0;
  std::size_t slots = 0;
  for (const ContactSurface& cs : mesh.contacts) slots += cs.slave_nodes.size();
  // resize (not assign) keeps each per-slave list's capacity across the
  // periodic searches — the lists are cleared in the slave loop below.
  out.candidates.resize(slots);

  std::size_t slot_base = 0;
  for (std::size_t si = 0; si < mesh.contacts.size(); ++si) {
    const ContactSurface& cs = mesh.contacts[si];

    // Refresh facet geometry and build the spatial hash (cheap vs the node
    // loop; kept serial like EPX's bucket build).
    std::vector<Vec3> centers(cs.facets.size());
    std::vector<Vec3> normals(cs.facets.size());
    double avg_size = 0.0;
    for (std::size_t fi = 0; fi < cs.facets.size(); ++fi) {
      const Facet& f = cs.facets[fi];
      if (f.nodes[0] < 0) {
        centers[fi] = f.center;  // rigid facet: static geometry
        normals[fi] = f.normal;
        avg_size += 2.0 * cs.gap_tolerance;
        continue;
      }
      Vec3 c;
      for (int n : f.nodes) {
        const Vec3& p = mesh.x[static_cast<std::size_t>(n)];
        c.x += 0.25 * p.x;
        c.y += 0.25 * p.y;
        c.z += 0.25 * p.z;
      }
      centers[fi] = c;
      // Normal from the two diagonals.
      const Vec3 d1 = sub(mesh.x[static_cast<std::size_t>(f.nodes[2])],
                          mesh.x[static_cast<std::size_t>(f.nodes[0])]);
      const Vec3 d2 = sub(mesh.x[static_cast<std::size_t>(f.nodes[3])],
                          mesh.x[static_cast<std::size_t>(f.nodes[1])]);
      Vec3 nrm{d1.y * d2.z - d1.z * d2.y, d1.z * d2.x - d1.x * d2.z,
               d1.x * d2.y - d1.y * d2.x};
      const double len =
          std::sqrt(nrm.x * nrm.x + nrm.y * nrm.y + nrm.z * nrm.z);
      if (len > 0.0) {
        nrm.x /= len;
        nrm.y /= len;
        nrm.z /= len;
      }
      normals[fi] = nrm;
      avg_size += std::sqrt(len);  // ~facet edge scale
    }
    avg_size = cs.facets.empty() ? 1.0 : avg_size / static_cast<double>(cs.facets.size());

    FlatGrid grid;
    grid.build(centers, std::max(avg_size, 1.5 * cs.gap_tolerance));

    // The independent slave-node loop: probe 27 cells, compute distances,
    // keep close candidates, sort by (distance, facet).
    const double radius2 = 1.5 * grid.cell * 1.5 * grid.cell;
    const auto nslaves = static_cast<std::int64_t>(cs.slave_nodes.size());
    run(nslaves, [&, slot_base, si](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t s = lo; s < hi; ++s) {
        const int node = cs.slave_nodes[static_cast<std::size_t>(s)];
        const Vec3& p = mesh.x[static_cast<std::size_t>(node)];
        auto& list = out.candidates[slot_base + static_cast<std::size_t>(s)];
        list.clear();
        for (int dz = -1; dz <= 1; ++dz) {
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              const std::vector<int>* cell = grid.cell_at(p, dx, dy, dz);
              if (cell == nullptr) continue;
              for (int fi : *cell) {
                const Vec3 d = sub(p, centers[static_cast<std::size_t>(fi)]);
                const double d2 = dot(d, d);
                if (d2 < radius2) {
                  list.push_back(ContactCandidate{node, static_cast<int>(si),
                                                  fi, std::sqrt(d2)});
                }
              }
            }
          }
        }
        std::sort(list.begin(), list.end(),
                  [](const ContactCandidate& a, const ContactCandidate& b) {
                    return a.distance != b.distance ? a.distance < b.distance
                                                    : a.facet < b.facet;
                  });
      }
    });
    for (std::size_t s = 0; s < cs.slave_nodes.size(); ++s) {
      out.total += out.candidates[slot_base + s].size();
    }
    slot_base += cs.slave_nodes.size();
  }
}

std::vector<Constraint> select_constraints(const Mesh& mesh,
                                           const ReperaState& candidates) {
  std::vector<Constraint> active;
  // Recover (surface, slave index) from the flat slot layout of repera().
  std::vector<std::size_t> slot_bases;
  std::size_t base = 0;
  for (const ContactSurface& cs : mesh.contacts) {
    slot_bases.push_back(base);
    base += cs.slave_nodes.size();
  }
  for (std::size_t slot = 0; slot < candidates.candidates.size(); ++slot) {
    const auto& list = candidates.candidates[slot];
    if (list.empty()) continue;
    const ContactCandidate& best = list.front();
    const ContactSurface& cs =
        mesh.contacts[static_cast<std::size_t>(best.surface)];
    const std::size_t slave_idx =
        slot - slot_bases[static_cast<std::size_t>(best.surface)];
    const Facet& f = cs.facets[static_cast<std::size_t>(best.facet)];
    // Signed gap along the facet normal.
    Vec3 center = f.center;
    if (f.nodes[0] >= 0) {
      center = Vec3{};
      for (int n : f.nodes) {
        const Vec3& p = mesh.x[static_cast<std::size_t>(n)];
        center.x += 0.25 * p.x;
        center.y += 0.25 * p.y;
        center.z += 0.25 * p.z;
      }
    }
    const Vec3& p = mesh.x[static_cast<std::size_t>(best.node)];
    const double gap = (p.x - center.x) * f.normal.x +
                       (p.y - center.y) * f.normal.y +
                       (p.z - center.z) * f.normal.z;
    if (gap < cs.gap_tolerance) {
      Constraint c;
      c.node = best.node;
      c.normal = f.normal;
      c.facet_nodes = f.nodes;
      c.gap = gap;
      c.partner =
          cs.slave_partners.empty() ? -1 : cs.slave_partners[slave_idx];
      c.sort_key = cs.slave_sort_keys.empty()
                       ? static_cast<long>(best.node)
                       : cs.slave_sort_keys[slave_idx];
      active.push_back(c);
    }
  }
  return active;
}

}  // namespace xk::epx
