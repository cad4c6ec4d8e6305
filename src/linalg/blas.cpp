#include "linalg/blas.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
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

// One native-width vector of doubles: W = 8 lanes on AVX-512, 4 on AVX,
// 2 (SSE2) otherwise. The register tile is chosen once from W, the best
// measured shape on a 3072^3 multiply: 8 x 16 on AVX-512 (16 of the 32 zmm
// registers accumulate; about 145 GF/s on a 4-vCPU AVX-512 Xeon, where the
// former auto-vectorized 4 x 8 loop ran at about 78) and 4 x 8 on AVX2 (8
// of the 16 ymm registers). Written as a scalar loop the 8 x 16 tile
// spills (about 20 GF/s on the same host), and a 64-byte vector emulated
// on AVX2 runs at 3 GF/s, so each ISA keeps its own native width.
#if defined(__AVX512F__)
constexpr int kW = 8;
#elif defined(__AVX__)
constexpr int kW = 4;
#else
constexpr int kW = 2;
#endif
using Vec = double __attribute__((vector_size(kW * sizeof(double))));

constexpr int kMR = kW == 8 ? 8 : 4;  ///< microkernel rows (C tile height)
constexpr int kNR = 2 * kW;           ///< microkernel cols (two vectors)
constexpr int kMC = 128;   ///< rows of A packed per thread block
constexpr int kKC = 1024;  ///< k-panel depth
static_assert(kMC % kMR == 0, "a thread block holds whole micro-panels");

/// Problems below this flop count skip packing entirely; the reference loop
/// is faster once the whole working set fits in L1/L2.
constexpr long long kSmallGemmFlops = 2LL * 48 * 48 * 48;

/// Pack a mc x kc block of A into MR-tall micro-panels: panel i holds
/// columns p as contiguous groups pa[p*MR + ir], zero-padded past mc.
/// `at(i, p)` reads the block's entry (i, p).
template <class At>
void pack_a(At at, int mc, int kc, double* pa) {
  for (int ip = 0; ip < mc; ip += kMR) {
    const int mr = std::min(kMR, mc - ip);
    for (int p = 0; p < kc; ++p) {
      for (int ir = 0; ir < mr; ++ir) pa[p * kMR + ir] = at(ip + ir, p);
      for (int ir = mr; ir < kMR; ++ir) pa[p * kMR + ir] = 0.0;
    }
    pa += static_cast<std::ptrdiff_t>(kc) * kMR;
  }
}

/// Pack a kc x n panel of B into NR-wide micro-panels, zero-padded past n.
/// `at(p, j)` reads the panel's entry (p, j).
template <class At>
void pack_b(At at, int kc, int n, double* pb) {
  for (int jp = 0; jp < n; jp += kNR) {
    const int nr = std::min(kNR, n - jp);
    for (int p = 0; p < kc; ++p) {
      for (int jr = 0; jr < nr; ++jr) pb[p * kNR + jr] = at(p, jp + jr);
      for (int jr = nr; jr < kNR; ++jr) pb[p * kNR + jr] = 0.0;
    }
    pb += static_cast<std::ptrdiff_t>(kc) * kNR;
  }
}

/// One register tile's k-panel sum, handed to a macro kernel's write-back.
using Acc = double[kMR][kNR];

/// acc[ir][jr] = sum_p pa[p*MR+ir] * pb[p*NR+jr] for kc >= 1, summed from
/// zero in increasing p with one FMA per term (where the target has FMA),
/// exactly as a scalar loop over the one entry would sum it. The kMR x
/// kNR/kW accumulator vectors stay in registers; the do-while tells GCC
/// the loop runs, so it does not also keep them in a stack copy.
void micro_kernel(int kc, const double* pa, const double* pb, Acc& acc) {
  constexpr int kNV = kNR / kW;
  Vec c[kMR][kNV] = {};
  int p = 0;
  do {
    const double* ap = pa + static_cast<std::ptrdiff_t>(p) * kMR;
    const double* bp = pb + static_cast<std::ptrdiff_t>(p) * kNR;
    Vec b[kNV];
    for (int jv = 0; jv < kNV; ++jv)
      std::memcpy(&b[jv], bp + static_cast<std::ptrdiff_t>(jv) * kW,
                  sizeof(Vec));
    for (int ir = 0; ir < kMR; ++ir)
      for (int jv = 0; jv < kNV; ++jv) c[ir][jv] += ap[ir] * b[jv];
  } while (++p < kc);
  for (int ir = 0; ir < kMR; ++ir)
    for (int jv = 0; jv < kNV; ++jv)
      std::memcpy(&acc[ir][static_cast<std::ptrdiff_t>(jv) * kW], &c[ir][jv],
                  sizeof(Vec));
}

/// Runs the micro kernel over a packed mc x kc block of A and a packed
/// kc x nc panel of B, and hands each register tile's sum, formed from
/// zero, to `write(i, j, mr, nr, acc)`: acc[ir][jr] is the k-panel sum of
/// entry (i + ir, j + jr) of the mc x nc block, for ir < mr, jr < nr. The
/// write decides how that sum reaches C. Kept out of line: inlined into
/// gemm, GCC 12 spills the micro-kernel's loop bound and reloads
/// it from the stack on every k step.
template <class Write>
[[gnu::noinline]] void macro_kernel(int mc, int nc, int kc,
                                    const double* packed_a,
                                    const double* packed_b, Write write) {
  for (int jp = 0; jp < nc; jp += kNR) {
    const int nr = std::min(kNR, nc - jp);
    const double* pb =
        packed_b + static_cast<std::ptrdiff_t>(jp / kNR) * kc * kNR;
    for (int ip = 0; ip < mc; ip += kMR) {
      const int mr = std::min(kMR, mc - ip);
      const double* pa =
          packed_a + static_cast<std::ptrdiff_t>(ip / kMR) * kc * kMR;
      Acc acc;
      micro_kernel(kc, pa, pb, acc);
      write(ip, jp, mr, nr, acc);
    }
  }
}

/// The write-back of C += alpha * tile sum into the view c.
auto add_into(MatrixView c, double alpha) {
  return [c, alpha](int i, int j, int mr, int nr, const Acc& acc) {
    for (int ir = 0; ir < mr; ++ir) {
      double* ci = &c(i + ir, j);
      for (int jr = 0; jr < nr; ++jr) ci[jr] += alpha * acc[ir][jr];
    }
  };
}

/// The packed path of the m x n product A * B (m = a.rows(),
/// n = b.cols(), k = a.cols() >= 1): B is packed once per kKC-deep k
/// panel, and the kMC-row blocks of A are packed and run on the pool.
/// `write` receives each register tile's k-panel sum as in macro_kernel,
/// with (i, j) the tile's corner in the m x n product. Blocks of rows run
/// concurrently, so writes to different rows must not alias.
template <class Write>
void packed_product(ConstMatrixView a, ConstMatrixView b, Write write) {
  const int m = a.rows(), n = b.cols(), k = a.cols();
  const int n_panels = (n + kNR - 1) / kNR;
  const int max_kc = std::min(kKC, k);
  std::vector<double> packed_b(static_cast<std::size_t>(n_panels) * max_kc *
                               kNR);

  for (int k0 = 0; k0 < k; k0 += kKC) {
    const int kc = std::min(kKC, k - k0);
    pack_b([&](int p, int j) { return b(k0 + p, j); }, kc, n,
           packed_b.data());

    const int i_blocks = (m + kMC - 1) / kMC;
    support::parallel_for(0, i_blocks, [&](int ib) {
      const int i0 = ib * kMC;
      const int mc = std::min(kMC, m - i0);
      // Per-call pack buffer; the block is at most MC x KC doubles = 1 MiB.
      std::vector<double> packed_a(
          static_cast<std::size_t>((mc + kMR - 1) / kMR) * kc * kMR);
      pack_a([&](int i, int p) { return a(i0 + i, k0 + p); }, mc, kc,
             packed_a.data());
      macro_kernel(mc, n, kc, packed_a.data(), packed_b.data(),
                   [&write, i0](int i, int j, int mr, int nr, const Acc& acc) {
                     write(i0 + i, j, mr, nr, acc);
                   });
    });
  }
}

}  // namespace

void gemm(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
          MatrixView c) {
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
  packed_product(a, b, add_into(c, alpha));
}

void schur_update(MatrixView c, ConstMatrixView a, ConstMatrixView b) {
  gemm(-1.0, a, b, 1.0, c);
}

void schur_update_mapped(double* c, std::span<const std::size_t> row_off,
                         std::span<const std::size_t> col_off,
                         ConstMatrixView a, ConstMatrixView b) {
  const int m = static_cast<int>(row_off.size());
  const int n = static_cast<int>(col_off.size());
  const int k = a.cols();
  CONFLUX_EXPECTS(a.rows() == m && b.rows() == k && b.cols() == n);
  if (m == 0 || n == 0 || k == 0) return;

  // A kW-wide segment of columns whose offsets run on by one is written
  // through a row pointer, any other entry by entry. Testing segments
  // rather than whole kNR groups keeps the row-pointer write for tile
  // widths that are multiples of 8 (or of kW) but not of kNR.
  std::vector<unsigned char> contiguous(
      static_cast<std::size_t>((n + kW - 1) / kW));
  for (int js = 0; js < n; js += kW) {
    bool run = true;
    for (int jr = 1; jr < std::min(kW, n - js); ++jr)
      run = run && col_off[static_cast<std::size_t>(js + jr)] ==
                       col_off[static_cast<std::size_t>(js)] +
                           static_cast<std::size_t>(jr);
    contiguous[static_cast<std::size_t>(js / kW)] = run;
  }

  const std::size_t* rows = row_off.data();
  const std::size_t* cols = col_off.data();
  const unsigned char* runs = contiguous.data();
  packed_product(a, b, [=](int i, int j, int mr, int nr, const Acc& acc) {
    for (int js = 0; js < nr; js += kW) {
      const int w = std::min(kW, nr - js);
      const std::size_t* co = cols + j + js;
      if (runs[(j + js) / kW]) {
        for (int ir = 0; ir < mr; ++ir) {
          double* ci = c + rows[i + ir] + co[0];
          for (int jr = 0; jr < w; ++jr) ci[jr] -= acc[ir][js + jr];
        }
      } else {
        for (int ir = 0; ir < mr; ++ir) {
          double* ci = c + rows[i + ir];
          for (int jr = 0; jr < w; ++jr) ci[co[jr]] -= acc[ir][js + jr];
        }
      }
    }
  });
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

void trsm_left(Triangle tri, Diag diag, ConstMatrixView a, MatrixView b) {
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
        gemm(-1.0, a.block(d0 + d, d0, rest, d), b.block(d0, 0, d, n), 1.0,
             b.block(d0 + d, 0, rest, n));
    }
  } else {
    // Backward: last block first, updates flow upward.
    for (int d0 = ((m - 1) / kTrsmBlock) * kTrsmBlock; d0 >= 0;
         d0 -= kTrsmBlock) {
      const int d = std::min(kTrsmBlock, m - d0);
      trsm_left_reference(tri, diag, a.block(d0, d0, d, d), b.block(d0, 0, d, n));
      if (d0 > 0)
        gemm(-1.0, a.block(0, d0, d0, d), b.block(d0, 0, d, n), 1.0,
             b.block(0, 0, d0, n));
    }
  }
}

void trsm_right(Triangle tri, Diag diag, ConstMatrixView a, MatrixView b) {
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
        gemm(-1.0, b.block(0, d0, m, d), a.block(d0, d0 + d, d, rest), 1.0,
             b.block(0, d0 + d, m, rest));
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
        gemm(-1.0, b.block(0, d0, m, d), a.block(d0, 0, d, d0), 1.0,
             b.block(0, 0, m, d0));
    }
  }
}

// ---------------------------------------------------------------------------
// Fused triangular product for the residual checks: output tiles in a queue,
// longest k range first, pulled by one worker per pool thread. Each worker
// packs its tile's operands with the triangle masks applied, runs the GEMM
// macro kernel into a tile buffer and compares the buffer with the
// reference rows; nothing of size m x n is ever built.
// ---------------------------------------------------------------------------

namespace {

constexpr int kProductTile = 256;  ///< output tile edge
static_assert(kProductTile % kMR == 0 && kProductTile % kNR == 0,
              "a tile's pack buffers hold whole micro-panels");

struct ProductTile {
  int i0, j0, kend;  ///< top-left corner; k range [0, kend)
};

}  // namespace

double triangular_product_max_diff(TriangularProduct kind, ConstMatrixView l,
                                   ConstMatrixView u, ConstMatrixView ref,
                                   std::span<const int> row_of) {
  const bool llt = kind == TriangularProduct::LLt;
  const int m = l.rows();
  const int n = llt ? m : u.cols();
  const int kmin = llt ? m : std::min(l.cols(), u.rows());
  if (llt) CONFLUX_EXPECTS(l.cols() == m && u.rows() == m && u.cols() == m);
  CONFLUX_EXPECTS(ref.cols() == n);
  CONFLUX_EXPECTS(row_of.empty() ? ref.rows() == m
                                 : static_cast<int>(row_of.size()) == m);

  // L(i, k) = 0 for k > i and U(k, j) = 0 for k > j, so a tile's k range
  // ends at its last row or last column, whichever comes first.
  std::vector<ProductTile> tiles;
  for (int i0 = 0; i0 < m; i0 += kProductTile) {
    const int i1 = std::min(m, i0 + kProductTile);
    for (int j0 = 0; j0 < (llt ? i1 : n); j0 += kProductTile) {
      const int j1 = std::min(n, j0 + kProductTile);
      tiles.push_back({i0, j0, std::min({i1, j1, kmin})});
    }
  }
  std::stable_sort(tiles.begin(), tiles.end(),
                   [](const ProductTile& x, const ProductTile& y) {
                     return x.kend > y.kend;
                   });

  const int workers = std::min(support::global_pool().size(),
                               static_cast<int>(tiles.size()));
  std::vector<double> worst(static_cast<std::size_t>(workers), 0.0);
  std::atomic<std::size_t> next{0};
  support::parallel_for(0, workers, [&](int w) {
    std::vector<double> c(static_cast<std::size_t>(kProductTile) *
                          kProductTile);
    std::vector<double> packed_a(static_cast<std::size_t>(kProductTile) * kKC);
    std::vector<double> packed_b(static_cast<std::size_t>(kProductTile) * kKC);
    double local = 0.0;
    for (std::size_t t = next++; t < tiles.size(); t = next++) {
      const auto [i0, j0, kend] = tiles[t];
      const int mc = std::min(kProductTile, m - i0);
      const int nc = std::min(kProductTile, n - j0);
      MatrixView tile(c.data(), mc, nc, nc);
      std::fill_n(c.begin(), static_cast<std::size_t>(mc) * nc, 0.0);
      // k panels start at multiples of kKC, as in gemm, so each
      // entry is summed in the same order as a dense product would be.
      for (int k0 = 0; k0 < kend; k0 += kKC) {
        const int kc = std::min(kKC, kend - k0);
        pack_a(
            [&](int i, int p) {
              const int gi = i0 + i, gk = k0 + p;
              if (gk < gi) return l(gi, gk);
              if (gk > gi) return 0.0;
              return llt ? l(gi, gi) : 1.0;
            },
            mc, kc, packed_a.data());
        pack_b(
            [&](int p, int j) {
              const int gk = k0 + p, gj = j0 + j;
              if (gk > gj) return 0.0;
              return llt ? u(gj, gk) : u(gk, gj);
            },
            kc, nc, packed_b.data());
        macro_kernel(mc, nc, kc, packed_a.data(), packed_b.data(),
                     add_into(tile, 1.0));
      }
      for (int i = 0; i < mc; ++i) {
        const int gi = i0 + i;
        auto want = ref.row(
            row_of.empty() ? gi : row_of[static_cast<std::size_t>(gi)]);
        const int jend = llt ? std::min(nc, gi - j0 + 1) : nc;
        for (int j = 0; j < jend; ++j)
          local = max_keep_nan(local, std::abs(want[j0 + j] - tile(i, j)));
      }
    }
    worst[static_cast<std::size_t>(w)] = local;
  });

  double result = 0.0;
  for (double x : worst) result = max_keep_nan(result, x);
  return result;
}

}  // namespace conflux::linalg
