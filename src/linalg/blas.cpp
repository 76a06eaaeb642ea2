#include "linalg/blas.hpp"

#include <cmath>

namespace xk::linalg {

// The four Cholesky kernels start on a 64-byte boundary. Their inner loops
// are short enough that where they sit relative to the front end's fetch
// windows decides their speed: with GCC 12 -O3 on a 4-vCPU Xeon VM, the
// same gemm_nt code ran the sequential 1024x1024 factorization in ~50 ms at
// one link offset and ~90 ms at another. Pinning the alignment keeps a
// code-size change anywhere else in the binary from moving them.
[[gnu::aligned(64)]]
int potrf_lower(int n, double* a, int lda) {
  for (int j = 0; j < n; ++j) {
    double d = a[j + j * lda];
    for (int k = 0; k < j; ++k) {
      const double ljk = a[j + k * lda];
      d -= ljk * ljk;
    }
    if (d <= 0.0) return j + 1;
    d = std::sqrt(d);
    a[j + j * lda] = d;
    const double inv = 1.0 / d;
    for (int i = j + 1; i < n; ++i) {
      double s = a[i + j * lda];
      for (int k = 0; k < j; ++k) {
        s -= a[i + k * lda] * a[j + k * lda];
      }
      a[i + j * lda] = s * inv;
    }
  }
  return 0;
}

[[gnu::aligned(64)]]
void trsm_right_lower_trans(int m, int n, const double* l, int ldl, double* b,
                            int ldb) {
  // Solve X * L^T = B column by column: X[:,j] depends on X[:,k<j].
  for (int j = 0; j < n; ++j) {
    for (int k = 0; k < j; ++k) {
      const double ljk = l[j + k * ldl];
      if (ljk == 0.0) continue;
      const double* xk = b + k * ldb;
      double* xj = b + j * ldb;
      for (int i = 0; i < m; ++i) xj[i] -= xk[i] * ljk;
    }
    const double inv = 1.0 / l[j + j * ldl];
    double* xj = b + j * ldb;
    for (int i = 0; i < m; ++i) xj[i] *= inv;
  }
}

[[gnu::aligned(64)]]
void syrk_lower(int n, int k, const double* a, int lda, double* c, int ldc) {
  for (int j = 0; j < n; ++j) {
    for (int l = 0; l < k; ++l) {
      const double ajl = a[j + l * lda];
      if (ajl == 0.0) continue;
      const double* col = a + l * lda;
      double* cj = c + j * ldc;
      for (int i = j; i < n; ++i) cj[i] -= col[i] * ajl;
    }
  }
}

[[gnu::aligned(64)]]
void gemm_nt(int m, int n, int k, const double* a, int lda, const double* b,
             int ldb, double* c, int ldc) {
  for (int j = 0; j < n; ++j) {
    double* cj = c + j * ldc;
    for (int l = 0; l < k; ++l) {
      const double bjl = b[j + l * ldb];
      if (bjl == 0.0) continue;
      const double* al = a + l * lda;
      for (int i = 0; i < m; ++i) cj[i] -= al[i] * bjl;
    }
  }
}

void trsv_lower_notrans(int n, const double* l, int ldl, double* x) {
  for (int j = 0; j < n; ++j) {
    x[j] /= l[j + j * ldl];
    const double xj = x[j];
    for (int i = j + 1; i < n; ++i) x[i] -= l[i + j * ldl] * xj;
  }
}

void trsv_lower_trans(int n, const double* l, int ldl, double* x) {
  for (int j = n - 1; j >= 0; --j) {
    double s = x[j];
    for (int i = j + 1; i < n; ++i) s -= l[i + j * ldl] * x[i];
    x[j] = s / l[j + j * ldl];
  }
}

void gemv_minus(int m, int n, const double* a, int lda, const double* x,
                double* y) {
  for (int j = 0; j < n; ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    const double* col = a + j * lda;
    for (int i = 0; i < m; ++i) y[i] -= col[i] * xj;
  }
}

void gemv_minus_trans(int m, int n, const double* a, int lda, const double* x,
                      double* y) {
  for (int j = 0; j < n; ++j) {
    const double* col = a + j * lda;
    double s = 0.0;
    for (int i = 0; i < m; ++i) s += col[i] * x[i];
    y[j] -= s;
  }
}

namespace ref {

int potrf_lower(int n, double* a, int lda) {
  // Textbook jik version, structured differently from the optimized one.
  for (int j = 0; j < n; ++j) {
    for (int k = 0; k < j; ++k) {
      for (int i = j; i < n; ++i) {
        a[i + j * lda] -= a[i + k * lda] * a[j + k * lda];
      }
    }
    if (a[j + j * lda] <= 0.0) return j + 1;
    const double d = std::sqrt(a[j + j * lda]);
    a[j + j * lda] = d;
    for (int i = j + 1; i < n; ++i) a[i + j * lda] /= d;
  }
  return 0;
}

void trsm_right_lower_trans(int m, int n, const double* l, int ldl, double* b,
                            int ldb) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double s = b[i + j * ldb];
      for (int k = 0; k < j; ++k) s -= b[i + k * ldb] * l[j + k * ldl];
      b[i + j * ldb] = s / l[j + j * ldl];
    }
  }
}

void syrk_lower(int n, int k, const double* a, int lda, double* c, int ldc) {
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {
      double s = 0.0;
      for (int l = 0; l < k; ++l) s += a[i + l * lda] * a[j + l * lda];
      c[i + j * ldc] -= s;
    }
  }
}

void gemm_nt(int m, int n, int k, const double* a, int lda, const double* b,
             int ldb, double* c, int ldc) {
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      double s = 0.0;
      for (int l = 0; l < k; ++l) s += a[i + l * lda] * b[j + l * ldb];
      c[i + j * ldc] -= s;
    }
  }
}

}  // namespace ref

}  // namespace xk::linalg
