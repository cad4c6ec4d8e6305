#include "factor/numerics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/assert.hpp"

namespace conflux::factor {

PivotStats pivot_stats(std::span<const int> permutation,
                       std::span<const double> u_diag) {
  CONFLUX_EXPECTS(permutation.size() == u_diag.size());
  PivotStats stats;
  stats.rows = static_cast<int>(permutation.size());
  if (stats.rows == 0) return stats;
  stats.min_abs_u_diag = std::numeric_limits<double>::infinity();
  for (int i = 0; i < stats.rows; ++i) {
    const int p = permutation[static_cast<std::size_t>(i)];
    if (p != i) ++stats.off_natural;
    stats.max_displacement = std::max(stats.max_displacement,
                                      std::abs(p - i));
    // Both extremes keep NaN, so a NaN on U's diagonal shows in the summary.
    const double d = std::abs(u_diag[static_cast<std::size_t>(i)]);
    if (d < stats.min_abs_u_diag || std::isnan(d)) stats.min_abs_u_diag = d;
    stats.max_abs_u_diag = linalg::max_keep_nan(stats.max_abs_u_diag, d);
  }
  return stats;
}

double residual_in_eps(double scaled_residual) {
  return scaled_residual / std::numeric_limits<double>::epsilon();
}

}  // namespace conflux::factor
