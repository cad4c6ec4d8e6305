#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "support/thread_pool.hpp"

namespace conflux::linalg {

namespace {

/// Elements below which a fill or scan stays on the calling thread; a
/// pool dispatch costs more than it saves on smaller data.
constexpr std::size_t kPoolElements = std::size_t{1} << 16;

/// max |a(i, j)| over rows i < rows and j >= (upper ? i : 0), taken on the
/// pool for a large view: worker w scans rows w, w + W, ..., so the
/// triangle's long and short rows spread evenly over the workers.
double scan_max_abs(ConstMatrixView a, int rows, bool upper) {
  const int workers =
      static_cast<std::size_t>(rows) * a.cols() < kPoolElements
          ? std::min(rows, 1)
          : std::min(rows, support::global_pool().size());
  std::vector<double> worst(static_cast<std::size_t>(workers), 0.0);
  support::parallel_for(0, workers, [&](int w) {
    double m = 0.0;
    for (int i = w; i < rows; i += workers)
      for (double x : a.row(i).subspan(upper ? static_cast<std::size_t>(i) : 0))
        m = max_keep_nan(m, std::abs(x));
    worst[static_cast<std::size_t>(w)] = m;
  });
  double m = 0.0;
  for (double x : worst) m = max_keep_nan(m, x);
  return m;
}

}  // namespace

void zero_fill(std::span<double> data) {
  if (data.size() < kPoolElements) {
    std::fill(data.begin(), data.end(), 0.0);
    return;
  }
  const std::size_t chunks = (data.size() + kPoolElements - 1) / kPoolElements;
  support::parallel_for(0, static_cast<int>(chunks), [&](int c) {
    const std::size_t lo = static_cast<std::size_t>(c) * kPoolElements;
    std::fill_n(data.begin() + static_cast<std::ptrdiff_t>(lo),
                std::min(kPoolElements, data.size() - lo), 0.0);
  });
}

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

void permute_rows(MatrixView a, std::span<const int> perm) {
  const int m = a.rows();
  CONFLUX_EXPECTS(static_cast<int>(perm.size()) == m);
  // Marks each row `perm` names, which checks that it names every row
  // once (else a cycle walk would not end); then pending[r] means row r
  // is still to be written.
  std::vector<std::uint8_t> pending(static_cast<std::size_t>(m), 0);
  for (int r : perm) {
    CONFLUX_EXPECTS_MSG(
        r >= 0 && r < m && !pending[static_cast<std::size_t>(r)],
        "permute_rows needs a permutation");
    pending[static_cast<std::size_t>(r)] = 1;
  }
  std::vector<double> held(static_cast<std::size_t>(a.cols()));
  for (int start = 0; start < m; ++start) {
    if (!pending[static_cast<std::size_t>(start)]) continue;
    pending[static_cast<std::size_t>(start)] = 0;
    if (perm[static_cast<std::size_t>(start)] == start) continue;
    // Row `start` goes to scratch; each row of the cycle then takes its
    // source's row, and the row whose source is `start` takes the scratch.
    std::copy(a.row(start).begin(), a.row(start).end(), held.begin());
    int i = start;
    for (int src = perm[static_cast<std::size_t>(i)]; src != start;
         i = src, src = perm[static_cast<std::size_t>(i)]) {
      std::copy(a.row(src).begin(), a.row(src).end(), a.row(i).begin());
      pending[static_cast<std::size_t>(src)] = 0;
    }
    std::copy(held.begin(), held.end(), a.row(i).begin());
  }
}

double max_abs(ConstMatrixView a) { return scan_max_abs(a, a.rows(), false); }

double max_abs_upper(ConstMatrixView a) {
  return scan_max_abs(a, std::min(a.rows(), a.cols()), true);
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
