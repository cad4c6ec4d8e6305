#include "factor/step_records.hpp"

#include <algorithm>

#include "linalg/blas.hpp"
#include "support/assert.hpp"

namespace conflux::factor {

std::vector<StepRecord> make_step_records(int n, int v, bool with_a01) {
  CONFLUX_EXPECTS(n % v == 0);
  const int steps = n / v;
  std::vector<StepRecord> records(static_cast<std::size_t>(steps));
  for (auto& rec : records) {
    rec.pivots.assign(static_cast<std::size_t>(v), -1);
    rec.a00 = linalg::Matrix(v, v);
    rec.a10 = linalg::Matrix(n, v);
    if (with_a01) rec.a01 = linalg::Matrix(v, n);
  }
  return records;
}

AssembledFactors assemble_factors(const std::vector<StepRecord>& records,
                                  int n, int v) {
  CONFLUX_EXPECTS(static_cast<int>(records.size()) == n / v);
  AssembledFactors f;
  f.l = linalg::Matrix(n, n);
  f.u = linalg::Matrix(n, n);
  f.pivot_order.reserve(static_cast<std::size_t>(n));

  const int steps = n / v;
  for (int t = 0; t < steps; ++t) {
    const StepRecord& rec = records[static_cast<std::size_t>(t)];
    for (int q = 0; q < v; ++q) {
      const int row = t * v + q;  // position in the permuted ordering
      const int grow = rec.pivots[static_cast<std::size_t>(q)];
      CONFLUX_ASSERT(grow >= 0 && grow < n);
      f.pivot_order.push_back(grow);

      // L: earlier steps' trsm'd panel values for this global row, then the
      // unit-diagonal A00 row.
      for (int s = 0; s < t; ++s) {
        const StepRecord& prev = records[static_cast<std::size_t>(s)];
        for (int k = 0; k < v; ++k)
          f.l(row, s * v + k) = prev.a10(grow, k);
      }
      for (int k = 0; k < q; ++k) f.l(row, t * v + k) = rec.a00(q, k);
      f.l(row, t * v + q) = 1.0;

      // U: A00's upper part, then this step's trsm'd row panel.
      for (int k = q; k < v; ++k) f.u(row, t * v + k) = rec.a00(q, k);
      for (int col = (t + 1) * v; col < n; ++col)
        f.u(row, col) = rec.a01(q, col);
    }
  }
  return f;
}

linalg::Matrix assemble_cholesky_factor(const std::vector<StepRecord>& records,
                                        int n, int v) {
  CONFLUX_EXPECTS(static_cast<int>(records.size()) == n / v);
  linalg::Matrix l(n, n);
  const int steps = n / v;
  for (int t = 0; t < steps; ++t) {
    const StepRecord& rec = records[static_cast<std::size_t>(t)];
    // Diagonal block: the lower triangle of L00.
    for (int i = 0; i < v; ++i)
      for (int j = 0; j <= i; ++j) l(t * v + i, t * v + j) = rec.a00(i, j);
    // Below-panel rows: the solved L10 strip.
    for (int r = (t + 1) * v; r < n; ++r)
      for (int k = 0; k < v; ++k) l(r, t * v + k) = rec.a10(r, k);
  }
  return l;
}

double masked_lu_residual(const linalg::Matrix& a, const AssembledFactors& f) {
  const int n = a.rows();
  CONFLUX_EXPECTS(a.cols() == n && f.l.rows() == n);

  const double err = linalg::triangular_product_max_diff(
      linalg::TriangularProduct::LU, f.l.view(), f.u.view(), a.view(),
      f.pivot_order);
  const double scale = std::max(1.0, linalg::max_abs(a.view())) * n;
  return err / scale;
}

double masked_growth_factor(const linalg::Matrix& a,
                            const AssembledFactors& f) {
  const double amax = linalg::max_abs(a.view());
  return amax == 0.0 ? 0.0 : linalg::max_abs(f.u.view()) / amax;
}

}  // namespace conflux::factor
