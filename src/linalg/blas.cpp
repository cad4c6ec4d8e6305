#include "linalg/blas.hpp"

#include <algorithm>
#include <vector>

#include "support/thread_pool.hpp"

namespace conflux::linalg {

// ---------------------------------------------------------------------------
// Reference kernels (the original clarity-first loops).
// ---------------------------------------------------------------------------

namespace {
/// Cache-blocking factor for the k dimension of the reference GEMM.
constexpr int kRefBlock = 64;
}  // namespace

void gemm_reference(double alpha, ConstMatrixView a, ConstMatrixView b,
                    double beta, MatrixView c) {
  const int m = c.rows(), n = c.cols(), k = a.cols();
  CONFLUX_EXPECTS(a.rows() == m && b.rows() == k && b.cols() == n);

  if (beta != 1.0) {
    for (int i = 0; i < m; ++i) {
      auto ci = c.row(i);
      if (beta == 0.0)
        std::fill(ci.begin(), ci.end(), 0.0);
      else
        for (double& x : ci) x *= beta;
    }
  }
  if (alpha == 0.0 || k == 0) return;

  // i-k-j loop with k blocking: B rows are walked contiguously and the inner
  // j loop vectorizes.
  for (int kk = 0; kk < k; kk += kRefBlock) {
    const int kend = std::min(k, kk + kRefBlock);
    for (int i = 0; i < m; ++i) {
      auto ci = c.row(i);
      for (int p = kk; p < kend; ++p) {
        const double aip = alpha * a(i, p);
        if (aip == 0.0) continue;
        auto bp = b.row(p);
        for (int j = 0; j < n; ++j) ci[j] += aip * bp[j];
      }
    }
  }
}

void trsm_left_reference(Triangle tri, Diag diag, ConstMatrixView a,
                         MatrixView b) {
  const int m = b.rows(), n = b.cols();
  CONFLUX_EXPECTS(a.rows() == m && a.cols() == m);
  if (tri == Triangle::Lower) {
    // Forward substitution: X(i,:) = (B(i,:) - sum_{p<i} A(i,p) X(p,:)) / A(i,i)
    for (int i = 0; i < m; ++i) {
      auto bi = b.row(i);
      for (int p = 0; p < i; ++p) {
        const double aip = a(i, p);
        if (aip == 0.0) continue;
        auto bp = b.row(p);
        for (int j = 0; j < n; ++j) bi[j] -= aip * bp[j];
      }
      if (diag == Diag::NonUnit) {
        const double inv = 1.0 / a(i, i);
        for (int j = 0; j < n; ++j) bi[j] *= inv;
      }
    }
  } else {
    // Backward substitution.
    for (int i = m - 1; i >= 0; --i) {
      auto bi = b.row(i);
      for (int p = i + 1; p < m; ++p) {
        const double aip = a(i, p);
        if (aip == 0.0) continue;
        auto bp = b.row(p);
        for (int j = 0; j < n; ++j) bi[j] -= aip * bp[j];
      }
      if (diag == Diag::NonUnit) {
        const double inv = 1.0 / a(i, i);
        for (int j = 0; j < n; ++j) bi[j] *= inv;
      }
    }
  }
}

void trsm_right_reference(Triangle tri, Diag diag, ConstMatrixView a,
                          MatrixView b) {
  const int m = b.rows(), n = b.cols();
  CONFLUX_EXPECTS(a.rows() == n && a.cols() == n);
  if (tri == Triangle::Upper) {
    // X * U = B: column-by-column forward sweep, row-major friendly.
    for (int i = 0; i < m; ++i) {
      auto bi = b.row(i);
      for (int j = 0; j < n; ++j) {
        double x = bi[j];
        for (int p = 0; p < j; ++p) x -= bi[p] * a(p, j);
        bi[j] = (diag == Diag::NonUnit) ? x / a(j, j) : x;
      }
    }
  } else {
    // X * L = B: backward sweep over columns.
    for (int i = 0; i < m; ++i) {
      auto bi = b.row(i);
      for (int j = n - 1; j >= 0; --j) {
        double x = bi[j];
        for (int p = j + 1; p < n; ++p) x -= bi[p] * a(p, j);
        bi[j] = (diag == Diag::NonUnit) ? x / a(j, j) : x;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Optimized GEMM: BLIS-style blocking. B is packed once per k-panel into
// NR-wide micro-panels; each thread packs its own MC x KC block of A into
// MR-wide micro-panels and drives an MR x NR register-tiled microkernel.
// Row blocks of C are independent, so the MC loop runs on the thread pool.
// ---------------------------------------------------------------------------

namespace {

// Tile sizes tuned empirically on the 1024^3 A/B benchmark (bench_kernels):
// GCC turns the 4x8 accumulator tile into clean FMA code, and the deep
// k-panel amortizes C write-back traffic. Larger MR/NR shapes spill.
constexpr int kMR = 4;     ///< microkernel rows (C register tile height)
constexpr int kNR = 8;     ///< microkernel cols (one 512-bit vector)
constexpr int kMC = 128;   ///< rows of A packed per thread block
constexpr int kKC = 1024;  ///< k-panel depth

/// Problems below this flop count skip packing entirely; the reference loop
/// is faster once the whole working set fits in L1/L2.
constexpr long long kSmallGemmFlops = 2LL * 48 * 48 * 48;

/// Pack a mc x kc block of A (row-major view) into MR-tall micro-panels:
/// panel i holds columns p as contiguous groups pa[p*MR + ir], zero-padded
/// past mc.
void pack_a(ConstMatrixView a, int i0, int k0, int mc, int kc, double* pa) {
  for (int ip = 0; ip < mc; ip += kMR) {
    const int mr = std::min(kMR, mc - ip);
    for (int p = 0; p < kc; ++p) {
      for (int ir = 0; ir < mr; ++ir) pa[p * kMR + ir] = a(i0 + ip + ir, k0 + p);
      for (int ir = mr; ir < kMR; ++ir) pa[p * kMR + ir] = 0.0;
    }
    pa += static_cast<std::ptrdiff_t>(kc) * kMR;
  }
}

/// Pack a kc x n panel of B into NR-wide micro-panels, zero-padded past n.
void pack_b(ConstMatrixView b, int k0, int kc, int n, double* pb) {
  for (int jp = 0; jp < n; jp += kNR) {
    const int nr = std::min(kNR, n - jp);
    for (int p = 0; p < kc; ++p) {
      const double* bp = &b(k0 + p, jp);
      for (int jr = 0; jr < nr; ++jr) pb[p * kNR + jr] = bp[jr];
      for (int jr = nr; jr < kNR; ++jr) pb[p * kNR + jr] = 0.0;
    }
    pb += static_cast<std::ptrdiff_t>(kc) * kNR;
  }
}

/// acc[ir][jr] += sum_p pa[p*MR+ir] * pb[p*NR+jr]. With fixed MR/NR the
/// inner loops fully unroll and vectorize into FMA register tiles.
void micro_kernel(int kc, const double* pa, const double* pb,
                  double acc[kMR][kNR]) {
  for (int p = 0; p < kc; ++p) {
    const double* ap = pa + static_cast<std::ptrdiff_t>(p) * kMR;
    const double* bp = pb + static_cast<std::ptrdiff_t>(p) * kNR;
    for (int ir = 0; ir < kMR; ++ir)
      for (int jr = 0; jr < kNR; ++jr) acc[ir][jr] += ap[ir] * bp[jr];
  }
}

}  // namespace

void gemm_optimized(double alpha, ConstMatrixView a, ConstMatrixView b,
                    double beta, MatrixView c) {
  const int m = c.rows(), n = c.cols(), k = a.cols();
  CONFLUX_EXPECTS(a.rows() == m && b.rows() == k && b.cols() == n);

  const long long flops = 2LL * m * n * k;
  if (flops <= kSmallGemmFlops) {
    gemm_reference(alpha, a, b, beta, c);
    return;
  }

  if (beta != 1.0) {
    support::parallel_for(0, m, [&](int i) {
      auto ci = c.row(i);
      if (beta == 0.0)
        std::fill(ci.begin(), ci.end(), 0.0);
      else
        for (double& x : ci) x *= beta;
    });
  }
  if (alpha == 0.0 || k == 0) return;

  const int n_panels = (n + kNR - 1) / kNR;
  const int max_kc = std::min(kKC, k);
  std::vector<double> packed_b(static_cast<std::size_t>(n_panels) * max_kc *
                               kNR);

  for (int k0 = 0; k0 < k; k0 += kKC) {
    const int kc = std::min(kKC, k - k0);
    pack_b(b, k0, kc, n, packed_b.data());

    const int i_blocks = (m + kMC - 1) / kMC;
    support::parallel_for(0, i_blocks, [&](int ib) {
      const int i0 = ib * kMC;
      const int mc = std::min(kMC, m - i0);
      // Per-call pack buffer; the block is at most MC x KC doubles = 1 MiB.
      std::vector<double> packed_a(
          static_cast<std::size_t>((mc + kMR - 1) / kMR) * kc * kMR);
      pack_a(a, i0, k0, mc, kc, packed_a.data());

      for (int jp = 0; jp < n; jp += kNR) {
        const int nr = std::min(kNR, n - jp);
        const double* pb =
            packed_b.data() + static_cast<std::ptrdiff_t>(jp / kNR) * kc * kNR;
        for (int ip = 0; ip < mc; ip += kMR) {
          const int mr = std::min(kMR, mc - ip);
          const double* pa =
              packed_a.data() + static_cast<std::ptrdiff_t>(ip / kMR) * kc * kMR;
          double acc[kMR][kNR] = {};
          micro_kernel(kc, pa, pb, acc);
          for (int ir = 0; ir < mr; ++ir) {
            double* ci = &c(i0 + ip + ir, jp);
            for (int jr = 0; jr < nr; ++jr) ci[jr] += alpha * acc[ir][jr];
          }
        }
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Optimized TRSM: blocked so that all O(m n b) update flops flow through the
// optimized GEMM; only the small diagonal-block solves run the reference
// substitution loops.
// ---------------------------------------------------------------------------

namespace {

constexpr int kTrsmBlock = 64;  ///< diagonal block size

/// TRSM problems below this size gain nothing from blocking.
bool trsm_is_small(int tri_dim, int other_dim) {
  return static_cast<long long>(tri_dim) * tri_dim * other_dim <=
         64LL * 64 * 64;
}

}  // namespace

void trsm_left_optimized(Triangle tri, Diag diag, ConstMatrixView a,
                         MatrixView b) {
  const int m = b.rows(), n = b.cols();
  CONFLUX_EXPECTS(a.rows() == m && a.cols() == m);
  if (trsm_is_small(m, n)) {
    trsm_left_reference(tri, diag, a, b);
    return;
  }
  if (tri == Triangle::Lower) {
    // Forward: solve the diagonal block, then push it into the trailing rows
    // with a GEMM update.
    for (int d0 = 0; d0 < m; d0 += kTrsmBlock) {
      const int d = std::min(kTrsmBlock, m - d0);
      trsm_left_reference(tri, diag, a.block(d0, d0, d, d), b.block(d0, 0, d, n));
      const int rest = m - d0 - d;
      if (rest > 0)
        gemm_optimized(-1.0, a.block(d0 + d, d0, rest, d), b.block(d0, 0, d, n),
                       1.0, b.block(d0 + d, 0, rest, n));
    }
  } else {
    // Backward: last block first, updates flow upward.
    for (int d0 = ((m - 1) / kTrsmBlock) * kTrsmBlock; d0 >= 0;
         d0 -= kTrsmBlock) {
      const int d = std::min(kTrsmBlock, m - d0);
      trsm_left_reference(tri, diag, a.block(d0, d0, d, d), b.block(d0, 0, d, n));
      if (d0 > 0)
        gemm_optimized(-1.0, a.block(0, d0, d0, d), b.block(d0, 0, d, n), 1.0,
                       b.block(0, 0, d0, n));
    }
  }
}

void trsm_right_optimized(Triangle tri, Diag diag, ConstMatrixView a,
                          MatrixView b) {
  const int m = b.rows(), n = b.cols();
  CONFLUX_EXPECTS(a.rows() == n && a.cols() == n);
  if (trsm_is_small(n, m)) {
    trsm_right_reference(tri, diag, a, b);
    return;
  }
  if (tri == Triangle::Upper) {
    // Forward over column blocks: X_d := B_d U_dd^{-1}, then
    // B_{>d} -= X_d U_{d,>d}.
    for (int d0 = 0; d0 < n; d0 += kTrsmBlock) {
      const int d = std::min(kTrsmBlock, n - d0);
      trsm_right_reference(tri, diag, a.block(d0, d0, d, d),
                           b.block(0, d0, m, d));
      const int rest = n - d0 - d;
      if (rest > 0)
        gemm_optimized(-1.0, b.block(0, d0, m, d), a.block(d0, d0 + d, d, rest),
                       1.0, b.block(0, d0 + d, m, rest));
    }
  } else {
    // Backward over column blocks: X_d := B_d L_dd^{-1}, then
    // B_{<d} -= X_d L_{d,<d}.
    for (int d0 = ((n - 1) / kTrsmBlock) * kTrsmBlock; d0 >= 0;
         d0 -= kTrsmBlock) {
      const int d = std::min(kTrsmBlock, n - d0);
      trsm_right_reference(tri, diag, a.block(d0, d0, d, d),
                           b.block(0, d0, m, d));
      if (d0 > 0)
        gemm_optimized(-1.0, b.block(0, d0, m, d), a.block(d0, 0, d, d0), 1.0,
                       b.block(0, 0, m, d0));
    }
  }
}

// ---------------------------------------------------------------------------
// Public entry points: the optimized kernels.
// ---------------------------------------------------------------------------

void gemm(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
          MatrixView c) {
  gemm_optimized(alpha, a, b, beta, c);
}

void schur_update(MatrixView c, ConstMatrixView a, ConstMatrixView b) {
  gemm(-1.0, a, b, 1.0, c);
}

void trsm_left(Triangle tri, Diag diag, ConstMatrixView a, MatrixView b) {
  trsm_left_optimized(tri, diag, a, b);
}

void trsm_right(Triangle tri, Diag diag, ConstMatrixView a, MatrixView b) {
  trsm_right_optimized(tri, diag, a, b);
}

}  // namespace conflux::linalg
