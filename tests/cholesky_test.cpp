// Tiled Cholesky: all four scheduling variants must agree with each other
// and reconstruct the input (residual check) across size/tile sweeps.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/xkaapi.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "quark/quark.h"

namespace {

using namespace xk::linalg;

struct CholParams {
  int n;
  int nb;
  unsigned workers;
};

class TiledCholesky : public ::testing::TestWithParam<CholParams> {};

constexpr double kTol = 1e-10;

TEST_P(TiledCholesky, SequentialResidual) {
  const auto p = GetParam();
  TiledMatrix a(p.n, p.nb);
  a.fill_spd(42);
  const auto dense0 = a.to_dense_symmetric();
  ASSERT_EQ(cholesky_sequential(a), 0);
  EXPECT_LT(cholesky_residual(a, dense0), kTol);
}

TEST_P(TiledCholesky, XkaapiResidual) {
  const auto p = GetParam();
  xk::Config cfg;
  cfg.nworkers = p.workers;
  cfg.bind_threads = false;
  xk::Runtime rt(cfg);
  TiledMatrix a(p.n, p.nb);
  a.fill_spd(42);
  const auto dense0 = a.to_dense_symmetric();
  ASSERT_EQ(cholesky_xkaapi(a, rt), 0);
  EXPECT_LT(cholesky_residual(a, dense0), kTol);
}

TEST_P(TiledCholesky, QuarkCentralResidual) {
  const auto p = GetParam();
  Quark* q = QUARK_New_Backend(static_cast<int>(p.workers),
                               QUARK_BACKEND_CENTRAL);
  TiledMatrix a(p.n, p.nb);
  a.fill_spd(42);
  const auto dense0 = a.to_dense_symmetric();
  ASSERT_EQ(cholesky_quark(a, q), 0);
  QUARK_Delete(q);
  EXPECT_LT(cholesky_residual(a, dense0), kTol);
}

TEST_P(TiledCholesky, QuarkXkaapiResidual) {
  const auto p = GetParam();
  Quark* q = QUARK_New_Backend(static_cast<int>(p.workers),
                               QUARK_BACKEND_XKAAPI);
  TiledMatrix a(p.n, p.nb);
  a.fill_spd(42);
  const auto dense0 = a.to_dense_symmetric();
  ASSERT_EQ(cholesky_quark(a, q), 0);
  QUARK_Delete(q);
  EXPECT_LT(cholesky_residual(a, dense0), kTol);
}

TEST_P(TiledCholesky, StaticResidual) {
  const auto p = GetParam();
  TiledMatrix a(p.n, p.nb);
  a.fill_spd(42);
  const auto dense0 = a.to_dense_symmetric();
  ASSERT_EQ(cholesky_static(a, p.workers), 0);
  EXPECT_LT(cholesky_residual(a, dense0), kTol);
}

TEST_P(TiledCholesky, VariantsBitwiseAgree) {
  // Same kernel sequence per tile => identical floating-point results.
  const auto p = GetParam();
  TiledMatrix a_seq(p.n, p.nb), a_par(p.n, p.nb);
  a_seq.fill_spd(7);
  a_par.fill_spd(7);
  ASSERT_EQ(cholesky_sequential(a_seq), 0);
  xk::Config cfg;
  cfg.nworkers = p.workers;
  cfg.bind_threads = false;
  xk::Runtime rt(cfg);
  ASSERT_EQ(cholesky_xkaapi(a_par, rt), 0);
  for (int j = 0; j < p.n; ++j) {
    for (int i = j; i < p.n; ++i) {
      ASSERT_EQ(a_seq.get(i, j), a_par.get(i, j))
          << "tile mismatch at (" << i << "," << j << ")";
    }
  }
}

// QUARK task bodies for the insert-then-wait test below (the library's
// cholesky_quark inserts and barriers in one call).
void quark_potrf_task(Quark* q) {
  int nb = 0;
  double* akk = nullptr;
  quark_unpack_args_2(q, nb, akk);
  potrf_lower(nb, akk, nb);
}
void quark_trsm_task(Quark* q) {
  int nb = 0;
  double* akk = nullptr;
  double* amk = nullptr;
  quark_unpack_args_3(q, nb, akk, amk);
  trsm_right_lower_trans(nb, nb, akk, nb, amk, nb);
}
void quark_syrk_task(Quark* q) {
  int nb = 0;
  double* amk = nullptr;
  double* amm = nullptr;
  quark_unpack_args_3(q, nb, amk, amm);
  syrk_lower(nb, nb, amk, nb, amm, nb);
}
void quark_gemm_task(Quark* q) {
  int nb = 0;
  double* amk = nullptr;
  double* ank = nullptr;
  double* amn = nullptr;
  quark_unpack_args_4(q, nb, amk, ank, amn);
  gemm_nt(nb, nb, nb, amk, nb, ank, nb, amn, nb);
}

/// Holds the factorization back (it writes tile (0,0) first) until the
/// thieves, finding nothing ready, have attached a ready list to `root`.
void quark_gate_task(Quark* q) {
  xk::Frame* root = nullptr;
  double* a00 = nullptr;
  quark_unpack_args_2(q, root, a00);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (root->ready_list.load(std::memory_order_acquire) == nullptr &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

TEST(TiledCholeskyQuark, BarrierWithReadyListBitwiseAgrees) {
  // The barrier is the master's sync over its root frame. Holding it until
  // the thieves attached a ready list to that frame makes the barrier join
  // through the list (the owner helps from it while it joins).
  const CholParams p{512, 32, 4};  // 816 tasks
  TiledMatrix a_seq(p.n, p.nb), a_par(p.n, p.nb);
  a_seq.fill_spd(11);
  a_par.fill_spd(11);
  ASSERT_EQ(cholesky_sequential(a_seq), 0);
  const int nt = a_par.nt();
  int nb = a_par.nb();
  const std::size_t tb = a_par.tile_elems() * sizeof(double);
  const Quark_Task_Flags flags;
  Quark* q = QUARK_New_Backend(static_cast<int>(p.workers),
                               QUARK_BACKEND_XKAAPI);
  xk::Frame* root = &xk::this_worker()->current_frame();
  QUARK_Insert_Task(q, quark_gate_task, &flags, sizeof(root), &root,
                    QUARK_VALUE, tb, a_par.tile(0, 0), QUARK_INOUT,
                    std::size_t{0});
  for (int k = 0; k < nt; ++k) {
    QUARK_Insert_Task(q, quark_potrf_task, &flags, sizeof(int), &nb,
                      QUARK_VALUE, tb, a_par.tile(k, k), QUARK_INOUT,
                      std::size_t{0});
    for (int m = k + 1; m < nt; ++m) {
      QUARK_Insert_Task(q, quark_trsm_task, &flags, sizeof(int), &nb,
                        QUARK_VALUE, tb, a_par.tile(k, k), QUARK_INPUT, tb,
                        a_par.tile(m, k), QUARK_INOUT, std::size_t{0});
    }
    for (int m = k + 1; m < nt; ++m) {
      QUARK_Insert_Task(q, quark_syrk_task, &flags, sizeof(int), &nb,
                        QUARK_VALUE, tb, a_par.tile(m, k), QUARK_INPUT, tb,
                        a_par.tile(m, m), QUARK_INOUT, std::size_t{0});
      for (int n = k + 1; n < m; ++n) {
        QUARK_Insert_Task(q, quark_gemm_task, &flags, sizeof(int), &nb,
                          QUARK_VALUE, tb, a_par.tile(m, k), QUARK_INPUT, tb,
                          a_par.tile(n, k), QUARK_INPUT, tb, a_par.tile(m, n),
                          QUARK_INOUT, std::size_t{0});
      }
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (root->ready_list.load(std::memory_order_acquire) == nullptr &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_NE(root->ready_list.load(std::memory_order_acquire), nullptr);
  QUARK_Barrier(q);
  QUARK_Delete(q);
  for (int j = 0; j < p.n; ++j) {
    for (int i = j; i < p.n; ++i) {
      ASSERT_EQ(a_seq.get(i, j), a_par.get(i, j))
          << "tile mismatch at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TiledCholesky,
    ::testing::Values(CholParams{16, 4, 2}, CholParams{64, 16, 2},
                      CholParams{96, 32, 4}, CholParams{100, 32, 4},
                      CholParams{128, 16, 4}, CholParams{200, 64, 3},
                      CholParams{256, 32, 8}));

TEST(TiledCholesky, NonSpdDetected) {
  TiledMatrix a(32, 8);
  a.fill_spd(1);
  a.set(5, 5, -100.0);  // break positive definiteness
  EXPECT_NE(cholesky_sequential(a), 0);
}

TEST(TiledCholesky, FlopsFormula) {
  EXPECT_NEAR(cholesky_flops(1), 1.0, 1e-12);
  EXPECT_GT(cholesky_flops(1000), 1e9 / 3.0);
}

TEST(TiledMatrixTest, GetSetRoundTrip) {
  TiledMatrix a(50, 16);
  a.set(49, 3, 2.5);
  EXPECT_DOUBLE_EQ(a.get(49, 3), 2.5);
  EXPECT_EQ(a.nt(), 4);
  EXPECT_EQ(a.tile_elems(), 256u);
}

TEST(TiledMatrixTest, SpdFillIsSymmetric) {
  TiledMatrix a(40, 8);
  a.fill_spd(3);
  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < 40; ++j) {
      ASSERT_EQ(a.get(i, j), a.get(j, i));
    }
  }
}

}  // namespace
