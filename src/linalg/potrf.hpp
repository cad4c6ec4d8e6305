/// \file potrf.hpp
/// Sequential unblocked Cholesky factorization A = L * L^T of symmetric
/// positive definite matrices (lower-triangular convention), the panel
/// solve, and the residual check used to verify the distributed Cholesky
/// implementations (COnfCHOX and the ScaLAPACK-style 2D baseline of the
/// journal extension, arXiv:2108.09337).
///
/// Only the lower triangle of the input is ever read or written — the
/// strict upper triangle is ignored on input and left untouched on output,
/// which is what lets the distributed algorithms carry garbage partial
/// sums above the diagonal without affecting correctness.
#pragma once

#include "linalg/getrf.hpp"  // FactorStatus
#include "linalg/matrix.hpp"

namespace conflux::linalg {

/// In-place unblocked Cholesky of the n x n view `a` (lower convention):
/// on return the lower triangle (diagonal included) holds L with
/// L * L^T = A. Returns NotSpd when a non-positive (or non-finite) pivot
/// shows the matrix is not positive definite; the factor contents are then
/// unspecified.
FactorStatus potrf_unblocked(MatrixView a);

/// Solve X * L00^T = B in place (X overwrites B) for a lower-triangular
/// L00 — the panel solve L10 := A10 * L00^{-T} both distributed Cholesky
/// variants (2D, 2.5D) perform. Materializes L00^T once and defers to
/// trsm_right, so the bulk flops run through the packed GEMM.
void trsm_right_lower_transposed(ConstMatrixView l00, MatrixView b);

/// Extract the lower-triangular factor (diagonal included, zeros above)
/// from a factored view.
[[nodiscard]] Matrix extract_lower(ConstMatrixView llt);

/// Scaled residual max_{i>=j} |(L L^T - A)(i,j)| / (n * max|A|), with L
/// read from the lower triangle of `factored`. Only the lower triangle is
/// compared: the upper one is A's by symmetry and may hold junk in
/// `factored`. Small (~1e-15) for a healthy factorization. Runs the fused
/// triangular_product_max_diff (linalg/blas.hpp), which forms only the
/// compared entries: n^3 / 3 flops, with no L, L^T or product copy built.
/// NaN in L gives a NaN residual, never a small one.
[[nodiscard]] double cholesky_residual(const Matrix& original,
                                       ConstMatrixView factored);

}  // namespace conflux::linalg
