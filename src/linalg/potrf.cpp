#include "linalg/potrf.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "support/assert.hpp"

namespace conflux::linalg {

FactorStatus potrf_unblocked(MatrixView a) {
  const int n = a.rows();
  CONFLUX_EXPECTS(a.cols() == n);
  FactorStatus status = FactorStatus::Ok;
  for (int j = 0; j < n; ++j) {
    double d = a(j, j);
    for (int k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
    if (!(d > 0.0) || !std::isfinite(d)) {
      status = FactorStatus::NotSpd;
      d = 1.0;  // keep the remaining columns finite
    }
    a(j, j) = std::sqrt(d);
    const double inv = 1.0 / a(j, j);
    for (int i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (int k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s * inv;
    }
  }
  return status;
}

void trsm_right_lower_transposed(ConstMatrixView l00, MatrixView b) {
  const int kb = l00.rows();
  CONFLUX_EXPECTS(l00.cols() == kb && b.cols() == kb);
  Matrix u00t(kb, kb);
  for (int i = 0; i < kb; ++i)
    for (int j = i; j < kb; ++j) u00t(i, j) = l00(j, i);
  trsm_right(Triangle::Upper, Diag::NonUnit, u00t.view(), b);
}

Matrix extract_lower(ConstMatrixView llt) {
  const int n = llt.rows();
  CONFLUX_EXPECTS(llt.cols() == n);
  Matrix l(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j <= i; ++j) l(i, j) = llt(i, j);
  return l;
}

double cholesky_residual(const Matrix& original, ConstMatrixView factored) {
  const int n = original.rows();
  CONFLUX_EXPECTS(original.cols() == n && factored.rows() == n);

  const double err = triangular_product_max_diff(
      TriangularProduct::LLt, factored, factored, original.view(), {});
  const double scale = std::max(1.0, max_abs(original.view())) * n;
  return err / scale;
}

}  // namespace conflux::linalg
