#include "linalg/matrix.hpp"

#include <cmath>

namespace conflux::linalg {

Matrix Matrix::identity(int n) {
  Matrix eye(n, n);
  for (int i = 0; i < n; ++i) eye(i, i) = 1.0;
  return eye;
}

void copy(ConstMatrixView src, MatrixView dst) {
  CONFLUX_EXPECTS(src.rows() == dst.rows() && src.cols() == dst.cols());
  for (int i = 0; i < src.rows(); ++i) {
    auto s = src.row(i);
    auto d = dst.row(i);
    for (int j = 0; j < src.cols(); ++j) d[j] = s[j];
  }
}

double max_abs(ConstMatrixView a) {
  double m = 0.0;
  for (int i = 0; i < a.rows(); ++i)
    for (double x : a.row(i)) m = max_keep_nan(m, std::abs(x));
  return m;
}

double max_abs_diff(ConstMatrixView a, ConstMatrixView b) {
  CONFLUX_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  double m = 0.0;
  for (int i = 0; i < a.rows(); ++i) {
    auto ra = a.row(i);
    auto rb = b.row(i);
    for (int j = 0; j < a.cols(); ++j)
      m = max_keep_nan(m, std::abs(ra[j] - rb[j]));
  }
  return m;
}

}  // namespace conflux::linalg
