/// \file numerics.hpp
/// Per-run numerics instrumentation for the pivoted factorizations: the
/// growth factor and residual already reported by FactorResult/LuResult are
/// joined here by the eps-scaled residual ‖PA−LU‖ / (‖A‖·n·eps) — the unit
/// the stability literature (and the adversarial validation suite) reasons
/// in — and by summary statistics of the pivot sequence itself, so a run's
/// report shows not just *whether* a strategy stayed stable but *what its
/// pivoting actually did*.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace conflux::factor {

/// Summary of one run's pivot sequence. `permutation` maps position to
/// global row (L*U = A[permutation, :]); displacement measures how far the
/// chosen pivot rows sit from the natural (unpivoted) order.
struct PivotStats {
  int rows = 0;              ///< permutation length (0 = not populated)
  int off_natural = 0;       ///< positions with permutation[i] != i
  int max_displacement = 0;  ///< max |permutation[i] - i|
  double min_abs_u_diag = 0;  ///< smallest |U(i,i)| — distance to breakdown
  double max_abs_u_diag = 0;  ///< largest |U(i,i)| — growth's diagonal face
                              ///< (both NaN when a diagonal entry is NaN)
};

/// Compute pivot statistics from a run's row permutation and the diagonal
/// of its U factor (both sized n).
[[nodiscard]] PivotStats pivot_stats(std::span<const int> permutation,
                                     std::span<const double> u_diag);

/// Convert the scaled residual max|LU − PA| / (n·max|A|) the backends
/// report into units of machine epsilon: ‖PA−LU‖ / (‖A‖·n·eps). Classical
/// backward-error analysis bounds this by c(n) times the growth factor,
/// which is exactly how the adversarial suite asserts it.
[[nodiscard]] double residual_in_eps(double scaled_residual);

}  // namespace conflux::factor
