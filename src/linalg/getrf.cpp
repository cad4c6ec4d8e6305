#include "linalg/getrf.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "linalg/blas.hpp"

namespace conflux::linalg {

namespace {
void swap_rows(MatrixView a, int r0, int r1) {
  if (r0 == r1) return;
  auto x = a.row(r0);
  auto y = a.row(r1);
  for (int j = 0; j < a.cols(); ++j) std::swap(x[j], y[j]);
}
}  // namespace

FactorStatus getrf_unblocked(MatrixView a, std::span<int> ipiv) {
  const int m = a.rows(), n = a.cols();
  const int kmax = std::min(m, n);
  CONFLUX_EXPECTS(static_cast<int>(ipiv.size()) >= kmax);
  FactorStatus status = FactorStatus::Ok;

  for (int k = 0; k < kmax; ++k) {
    // Pivot search in column k, rows k..m.
    int piv = k;
    double best = std::abs(a(k, k));
    for (int i = k + 1; i < m; ++i) {
      const double v = std::abs(a(i, k));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    ipiv[k] = piv;
    swap_rows(a, k, piv);

    const double akk = a(k, k);
    if (akk == 0.0) {
      status = FactorStatus::Singular;
      continue;  // LAPACK keeps going; the column below stays as-is.
    }
    const double inv = 1.0 / akk;
    for (int i = k + 1; i < m; ++i) a(i, k) *= inv;
    // Rank-1 trailing update.
    for (int i = k + 1; i < m; ++i) {
      const double lik = a(i, k);
      if (lik == 0.0) continue;
      auto ai = a.row(i);
      auto ak = a.row(k);
      for (int j = k + 1; j < n; ++j) ai[j] -= lik * ak[j];
    }
  }
  return status;
}

void apply_pivots(MatrixView a, std::span<const int> ipiv) {
  for (std::size_t k = 0; k < ipiv.size(); ++k)
    swap_rows(a, static_cast<int>(k), ipiv[k]);
}

std::vector<int> pivots_to_permutation(std::span<const int> ipiv, int m) {
  std::vector<int> perm(static_cast<std::size_t>(m));
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t k = 0; k < ipiv.size(); ++k)
    std::swap(perm[k], perm[static_cast<std::size_t>(ipiv[k])]);
  return perm;
}

Matrix extract_lower_unit(ConstMatrixView lu) {
  const int m = lu.rows();
  const int n = std::min(lu.rows(), lu.cols());
  Matrix l(m, n);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      if (j < i)
        l(i, j) = lu(i, j);
      else if (j == i)
        l(i, j) = 1.0;
    }
  return l;
}

Matrix extract_upper(ConstMatrixView lu) {
  const int n = std::min(lu.rows(), lu.cols());
  const int cols = lu.cols();
  Matrix u(n, cols);
  for (int i = 0; i < n; ++i)
    for (int j = i; j < cols; ++j) u(i, j) = lu(i, j);
  return u;
}

double lu_residual(const Matrix& original, ConstMatrixView factored,
                   std::span<const int> perm) {
  const int m = original.rows(), n = original.cols();
  CONFLUX_EXPECTS(factored.rows() == m && factored.cols() == n);
  CONFLUX_EXPECTS(static_cast<int>(perm.size()) == m);
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(m), 0);
  for (int r : perm) {
    CONFLUX_EXPECTS_MSG(r >= 0 && r < m && !seen[static_cast<std::size_t>(r)],
                        "lu_residual needs a row permutation, not an ipiv");
    seen[static_cast<std::size_t>(r)] = 1;
  }

  const double err = triangular_product_max_diff(
      TriangularProduct::LU, factored, factored, original.view(), perm);
  const double scale = std::max(1.0, max_abs(original.view())) * std::max(1, n);
  return err / scale;
}

double growth_factor(const Matrix& original, ConstMatrixView factored) {
  const double a = max_abs(original.view());
  // max|U|, read in place from the factored view's upper triangle.
  const int kmin = std::min(factored.rows(), factored.cols());
  double umax = 0.0;
  for (int i = 0; i < kmin; ++i)
    for (int j = i; j < factored.cols(); ++j)
      umax = max_keep_nan(umax, std::abs(factored(i, j)));
  return a == 0.0 ? 0.0 : umax / a;
}

}  // namespace conflux::linalg
