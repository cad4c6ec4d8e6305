/// \file blas.hpp
/// BLAS-3-style kernels on views: blocked GEMM, the four TRSM variants
/// the distributed factorizations use, and the fused triangular product
/// the residual checks run.
///
/// `gemm`, `trsm_left` and `trsm_right` are cache-blocked, packed,
/// register-tiled kernels that run the macro loops on the shared thread
/// pool (src/support/thread_pool.hpp); TRSM is blocked so its bulk flops
/// run through GEMM. Each has a `*_reference` twin, the original
/// clarity-first single-threaded loop, which the tests pin it against. The
/// mapped Schur update shares GEMM's packing and macro kernel, the fused
/// triangular product its micro kernel; their tests pin them against dense
/// products.
#pragma once

#include <cstddef>
#include <span>

#include "linalg/matrix.hpp"

namespace conflux::linalg {

/// C := alpha * A * B + beta * C.
/// Shapes: A is m x k, B is k x n, C is m x n.
void gemm(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
          MatrixView c);

/// C := C - A * B — the Schur-complement update used by every LU variant.
void schur_update(MatrixView c, ConstMatrixView a, ConstMatrixView b);

/// C(i, j) -= (A * B)(i, j) for an m x n matrix C stored at
/// c[row_off[i] + col_off[j]], m = row_off.size(), n = col_off.size():
/// the Schur update written straight into a layout that is not one view,
/// such as the 2.5D tile store (factor::TileStore). The offsets must
/// address distinct entries. It runs gemm's packed path at every size;
/// each entry's sum over a kKC-deep (1024) k panel is formed from zero and
/// subtracted from C once. So for k <= 1024, and above gemm's small-problem
/// cutoff (2 * 48^3 flops, below which gemm runs gemm_reference instead),
/// the result equals gemm(1, A, B, 0, P) followed by C -= P bit for bit.
/// Deeper products subtract one panel sum at a time. m, n or k = 0 leaves
/// C untouched.
void schur_update_mapped(double* c, std::span<const std::size_t> row_off,
                         std::span<const std::size_t> col_off,
                         ConstMatrixView a, ConstMatrixView b);

/// Triangle selector for TRSM.
enum class Triangle { Lower, Upper };
/// Unit-diagonal selector for TRSM.
enum class Diag { Unit, NonUnit };

/// Solve op(L/U) * X = B in place (X overwrites B), with the triangular
/// matrix applied from the left. `tri` is `a`'s triangle; entries of `a`
/// outside the triangle are ignored.
/// Shapes: a is m x m, b is m x n.
void trsm_left(Triangle tri, Diag diag, ConstMatrixView a, MatrixView b);

/// Solve X * op(L/U) = B in place (X overwrites B), triangular matrix applied
/// from the right. Shapes: a is n x n, b is m x n.
void trsm_right(Triangle tri, Diag diag, ConstMatrixView a, MatrixView b);

/// The two triangular products a residual check multiplies out.
enum class TriangularProduct {
  /// L * U: L is unit lower from `l`'s strict lower triangle (m x kmin),
  /// U is upper from `u`'s upper triangle, diagonal included (kmin x n),
  /// kmin = min(l.cols(), u.rows()); every entry is compared. `l` and `u`
  /// may be the same packed getrf view.
  LU,
  /// L * L^T: L is lower from `l`'s lower triangle, diagonal included, and
  /// L^T is read from the lower triangle of `u` (pass the same n x n
  /// view twice); only entries with j <= i are compared.
  LLt,
};

/// max over the compared entries (i, j) of |ref(row_of[i], j) - (L*U)(i, j)|
/// (an empty `row_of` means row_of[i] = i). Fused: no m x n product,
/// permuted copy or difference is ever built. The columns are cut into
/// 512-wide slabs; a slab's U is packed once, on the shared pool, and its
/// 128-row blocks of L then run on the pool, largest first, each packing
/// its L rows once per 1024-deep k panel, reusing them across the whole
/// slab and comparing its rows as soon as their sums are complete, so each
/// operand is packed about once per k panel (L once per slab), not once
/// per output tile. Each register tile's k range stops at its last
/// row or last column, because L(i, k) = 0 for k > i and U(k, j) = 0 for
/// k > j: 2/3 n^3 flops for an n x n LU, n^3 / 3 for L * L^T (a dense GEMM
/// would take 2 n^3). NaN is kept: a non-finite factor entry gives a
/// non-finite result. Each entry is summed in the order gemm's packed path
/// sums it (per 1024-deep k panel, from zero in increasing k, the panel
/// sums added in order), so above that kernel's small-problem cutoff the
/// result equals a dense product plus max_abs_diff bit for bit.
[[nodiscard]] double triangular_product_max_diff(TriangularProduct kind,
                                                 ConstMatrixView l,
                                                 ConstMatrixView u,
                                                 ConstMatrixView ref,
                                                 std::span<const int> row_of);

/// The reference kernels — the test suite pins the entry points above
/// against these.
void gemm_reference(double alpha, ConstMatrixView a, ConstMatrixView b,
                    double beta, MatrixView c);
void trsm_left_reference(Triangle tri, Diag diag, ConstMatrixView a,
                         MatrixView b);
void trsm_right_reference(Triangle tri, Diag diag, ConstMatrixView a,
                          MatrixView b);

}  // namespace conflux::linalg
