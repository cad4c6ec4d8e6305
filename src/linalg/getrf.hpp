/// \file getrf.hpp
/// Sequential unblocked LU factorization with partial pivoting, plus pivot
/// bookkeeping and residual checks. The unblocked kernel is the local
/// building block inside the panel factorizations; the residual check is
/// what the distributed algorithms are verified with.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace conflux::linalg {

/// Result flag for factorizations. Singular is LU's failure mode (a zero
/// pivot column); NotSpd is Cholesky's (a non-positive diagonal during
/// potrf, see linalg/potrf.hpp).
enum class FactorStatus { Ok, Singular, NotSpd };

/// In-place unblocked LU with partial pivoting on a (possibly tall) m x n
/// view (m >= n not required; factors min(m, n) columns). On return `a`
/// holds L (unit lower, below diagonal) and U (upper). `ipiv[k]` is the row
/// (in 0-based local indices, >= k) swapped with row k at step k — LAPACK
/// convention.
FactorStatus getrf_unblocked(MatrixView a, std::span<int> ipiv);

/// Apply the LAPACK-style pivot sequence to the rows of `a` (forward order):
/// for k in [0, ipiv.size()): swap rows k and ipiv[k].
void apply_pivots(MatrixView a, std::span<const int> ipiv);

/// Convert a LAPACK ipiv sequence into the explicit row permutation `perm`
/// such that (PA)(i, :) = A(perm[i], :).
[[nodiscard]] std::vector<int> pivots_to_permutation(std::span<const int> ipiv,
                                                     int m);

/// Extract the unit-lower L factor (m x n) from a factored view.
[[nodiscard]] Matrix extract_lower_unit(ConstMatrixView lu);
/// Extract the upper U factor (n x n top block) from a factored view.
[[nodiscard]] Matrix extract_upper(ConstMatrixView lu);

/// Scaled residual max|A[perm, :] - L*U| / (n * max|A|) of the m x n
/// factored view (L m x min(m, n) unit lower, U min(m, n) x n upper) and
/// its row permutation (size m: factored row i is original row perm[i];
/// pivots_to_permutation converts a LAPACK ipiv). Small (~1e-14 * growth)
/// for a healthy factorization. Runs the fused triangular_product_max_diff
/// (linalg/blas.hpp) on the packed view: 2/3 n^3 flops for n x n, with no
/// L, U, PA or product copy built. NaN in a factor gives a NaN residual,
/// never a small one.
[[nodiscard]] double lu_residual(const Matrix& original,
                                 ConstMatrixView factored,
                                 std::span<const int> perm);

/// Element growth factor max|U| / max|A| — the standard stability proxy for
/// pivoting strategies (tournament pivoting is shown in [29] to behave like
/// partial pivoting). max|U| is read from the factored view's upper
/// triangle; NaN there gives a NaN growth factor.
[[nodiscard]] double growth_factor(const Matrix& original,
                                   ConstMatrixView factored);

}  // namespace conflux::linalg
