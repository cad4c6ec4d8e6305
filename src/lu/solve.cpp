#include "lu/solve.hpp"

#include <cmath>

#include "linalg/matrix.hpp"

namespace conflux::lu {

std::vector<double> lu_solve(const LuResult& result,
                             std::span<const double> b) {
  CONFLUX_EXPECTS_MSG(result.factors != nullptr,
                      "lu_solve needs a numeric run with keep_factors");
  const linalg::Matrix& f = *result.factors;
  const int n = f.rows();
  CONFLUX_EXPECTS(static_cast<int>(b.size()) == n);
  CONFLUX_EXPECTS(static_cast<int>(result.permutation.size()) == n);

  // y = L^{-1} (P b): forward substitution with the unit-lower factor.
  std::vector<double> y(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    double acc = b[static_cast<std::size_t>(
        result.permutation[static_cast<std::size_t>(i)])];
    for (int k = 0; k < i; ++k) acc -= f(i, k) * y[static_cast<std::size_t>(k)];
    y[static_cast<std::size_t>(i)] = acc;
  }
  // x = U^{-1} y: backward substitution.
  std::vector<double> x(static_cast<std::size_t>(n));
  for (int i = n - 1; i >= 0; --i) {
    double acc = y[static_cast<std::size_t>(i)];
    for (int k = i + 1; k < n; ++k)
      acc -= f(i, k) * x[static_cast<std::size_t>(k)];
    const double diag = f(i, i);
    CONFLUX_EXPECTS_MSG(diag != 0.0, "singular U in lu_solve");
    x[static_cast<std::size_t>(i)] = acc / diag;
  }
  return x;
}

linalg::Matrix lu_solve(const LuResult& result, const linalg::Matrix& b) {
  linalg::Matrix x(b.rows(), b.cols());
  std::vector<double> column(static_cast<std::size_t>(b.rows()));
  for (int j = 0; j < b.cols(); ++j) {
    for (int i = 0; i < b.rows(); ++i)
      column[static_cast<std::size_t>(i)] = b(i, j);
    const std::vector<double> xj = lu_solve(result, column);
    for (int i = 0; i < b.rows(); ++i)
      x(i, j) = xj[static_cast<std::size_t>(i)];
  }
  return x;
}

double solve_residual(const linalg::Matrix& a, std::span<const double> x,
                      std::span<const double> b) {
  const int n = a.rows();
  CONFLUX_EXPECTS(a.cols() == n && static_cast<int>(x.size()) == n &&
                  static_cast<int>(b.size()) == n);
  // Both maxima keep NaN: a NaN solution must not pass a `< tol` gate.
  double err = 0.0, xmax = 0.0;
  for (double v : x) xmax = linalg::max_keep_nan(xmax, std::abs(v));
  for (int i = 0; i < n; ++i) {
    double acc = -b[static_cast<std::size_t>(i)];
    auto row = a.row(i);
    for (int j = 0; j < n; ++j) acc += row[j] * x[static_cast<std::size_t>(j)];
    err = linalg::max_keep_nan(err, std::abs(acc));
  }
  const double scale =
      std::max(1.0, linalg::max_abs(a.view())) * std::max(1.0, xmax) * n;
  return err / scale;
}

SolveOutcome factor_and_solve(const std::string& algorithm,
                              const linalg::Matrix& a,
                              std::span<const double> b, int p) {
  LuConfig cfg;
  cfg.n = a.rows();
  cfg.p = p;
  cfg.mode = Mode::Numeric;
  cfg.keep_factors = true;
  SolveOutcome out;
  out.factorization = make_algorithm(algorithm)->run(&a, cfg);
  out.x = lu_solve(out.factorization, b);
  return out;
}

}  // namespace conflux::lu
