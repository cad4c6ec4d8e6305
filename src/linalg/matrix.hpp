/// \file matrix.hpp
/// Dense row-major matrix with value semantics plus lightweight non-owning
/// views. This is the numeric substrate under every LU implementation and
/// under the verification harness.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "support/assert.hpp"

namespace conflux::linalg {

class ConstMatrixView;

/// Non-owning mutable view of a row-major block with leading dimension `ld`.
/// Views are cheap to copy and never outlive the owning storage (Core
/// Guidelines P.8/R.4 — views are parameters, not members of long-lived
/// objects in this codebase).
class MatrixView {
 public:
  MatrixView(double* data, int rows, int cols, int ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    CONFLUX_EXPECTS(rows >= 0 && cols >= 0 && ld >= cols);
  }

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int ld() const { return ld_; }
  [[nodiscard]] double* data() const { return data_; }

  [[nodiscard]] double& operator()(int i, int j) const {
    return data_[static_cast<std::size_t>(i) * ld_ + j];
  }

  /// Row `i` as a span of `cols()` elements.
  [[nodiscard]] std::span<double> row(int i) const {
    return {data_ + static_cast<std::size_t>(i) * ld_,
            static_cast<std::size_t>(cols_)};
  }

  /// Sub-block view rooted at (i0, j0) of size r x c.
  [[nodiscard]] MatrixView block(int i0, int j0, int r, int c) const {
    CONFLUX_EXPECTS(i0 >= 0 && j0 >= 0 && i0 + r <= rows_ && j0 + c <= cols_);
    return {data_ + static_cast<std::size_t>(i0) * ld_ + j0, r, c, ld_};
  }

 private:
  double* data_;
  int rows_, cols_, ld_;
};

/// Non-owning read-only view; implicitly constructible from MatrixView.
class ConstMatrixView {
 public:
  ConstMatrixView(const double* data, int rows, int cols, int ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    CONFLUX_EXPECTS(rows >= 0 && cols >= 0 && ld >= cols);
  }
  ConstMatrixView(MatrixView v)  // NOLINT(google-explicit-constructor)
      : ConstMatrixView(v.data(), v.rows(), v.cols(), v.ld()) {}

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int ld() const { return ld_; }
  [[nodiscard]] const double* data() const { return data_; }

  [[nodiscard]] const double& operator()(int i, int j) const {
    return data_[static_cast<std::size_t>(i) * ld_ + j];
  }

  [[nodiscard]] std::span<const double> row(int i) const {
    return {data_ + static_cast<std::size_t>(i) * ld_,
            static_cast<std::size_t>(cols_)};
  }

  [[nodiscard]] ConstMatrixView block(int i0, int j0, int r, int c) const {
    CONFLUX_EXPECTS(i0 >= 0 && j0 >= 0 && i0 + r <= rows_ && j0 + c <= cols_);
    return {data_ + static_cast<std::size_t>(i0) * ld_ + j0, r, c, ld_};
  }

 private:
  const double* data_;
  int rows_, cols_, ld_;
};

/// Owning dense row-major matrix.
class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized rows x cols matrix.
  Matrix(int rows, int cols)
      : rows_(rows),
        cols_(cols),
        data_(static_cast<std::size_t>(rows) * cols, 0.0) {
    CONFLUX_EXPECTS(rows >= 0 && cols >= 0);
  }

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] double& operator()(int i, int j) {
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }
  [[nodiscard]] const double& operator()(int i, int j) const {
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }

  [[nodiscard]] std::span<double> row(int i) {
    return {data_.data() + static_cast<std::size_t>(i) * cols_,
            static_cast<std::size_t>(cols_)};
  }
  [[nodiscard]] std::span<const double> row(int i) const {
    return {data_.data() + static_cast<std::size_t>(i) * cols_,
            static_cast<std::size_t>(cols_)};
  }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  /// Whole-matrix mutable view.
  [[nodiscard]] MatrixView view() {
    return {data_.data(), rows_, cols_, cols_};
  }
  /// Whole-matrix read-only view.
  [[nodiscard]] ConstMatrixView view() const {
    return {data_.data(), rows_, cols_, cols_};
  }
  /// Sub-block views.
  [[nodiscard]] MatrixView block(int i0, int j0, int r, int c) {
    return view().block(i0, j0, r, c);
  }
  [[nodiscard]] ConstMatrixView block(int i0, int j0, int r, int c) const {
    return view().block(i0, j0, r, c);
  }

  /// The n x n identity.
  [[nodiscard]] static Matrix identity(int n);

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  int rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// Copy `src` into `dst` (shapes must match).
void copy(ConstMatrixView src, MatrixView dst);

/// max(m, x) that keeps NaN: once either argument is NaN the result is
/// NaN (std::max drops a NaN `x`), so a max-reduction over non-finite data
/// is not small. The LU and Cholesky residuals and growth factors reduce
/// through it.
[[nodiscard]] inline double max_keep_nan(double m, double x) {
  return (x > m || std::isnan(x)) ? x : m;
}

/// max_ij |A(i,j)|; NaN when any entry is NaN.
[[nodiscard]] double max_abs(ConstMatrixView a);

/// max_ij |A(i,j) - B(i,j)| (shapes must match); NaN when any difference
/// is NaN.
[[nodiscard]] double max_abs_diff(ConstMatrixView a, ConstMatrixView b);

}  // namespace conflux::linalg
