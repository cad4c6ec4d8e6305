// Tests for the BLAS-3 kernels: GEMM against a naive reference, the four
// TRSM variants against explicit residuals, over parameterized shape
// sweeps; and the packed kernels (GEMM, the mapped Schur update, the fused
// triangular product) bit for bit against a scalar model of their rounding
// contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/generate.hpp"

namespace conflux::linalg {
namespace {

Matrix naive_gemm(double alpha, const Matrix& a, const Matrix& b, double beta,
                  const Matrix& c) {
  Matrix out = c;
  for (int i = 0; i < c.rows(); ++i)
    for (int j = 0; j < c.cols(); ++j) {
      double sum = 0;
      for (int k = 0; k < a.cols(); ++k) sum += a(i, k) * b(k, j);
      out(i, j) = alpha * sum + beta * c(i, j);
    }
  return out;
}

class GemmShape
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShape, MatchesNaive) {
  const auto [m, n, k] = GetParam();
  const Matrix a = generate(m, k, MatrixKind::Uniform, 1);
  const Matrix b = generate(k, n, MatrixKind::Uniform, 2);
  Matrix c = generate(m, n, MatrixKind::Uniform, 3);
  const Matrix want = naive_gemm(1.5, a, b, -0.5, c);
  gemm(1.5, a.view(), b.view(), -0.5, c.view());
  EXPECT_LT(max_abs_diff(c.view(), want.view()), 1e-12 * k);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShape,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(5, 3, 7),
                      std::make_tuple(16, 16, 16), std::make_tuple(33, 1, 65),
                      std::make_tuple(64, 65, 63), std::make_tuple(1, 70, 70),
                      std::make_tuple(128, 17, 96)));

TEST(Gemm, BetaZeroOverwritesGarbage) {
  Matrix c(2, 2);
  c(0, 0) = std::numeric_limits<double>::quiet_NaN();
  const Matrix a = Matrix::identity(2);
  gemm(1.0, a.view(), a.view(), 0.0, c.view());
  EXPECT_EQ(c(0, 0), 1.0);
  EXPECT_EQ(c(0, 1), 0.0);
}

TEST(Gemm, AlphaZeroScalesOnly) {
  Matrix c(2, 2);
  c(1, 1) = 4.0;
  const Matrix a = generate(2, MatrixKind::Uniform, 1);
  gemm(0.0, a.view(), a.view(), 0.5, c.view());
  EXPECT_EQ(c(1, 1), 2.0);
}

TEST(Gemm, EmptyKIsPureScale) {
  Matrix a(3, 0), b(0, 3);
  Matrix c = Matrix::identity(3);
  gemm(1.0, a.view(), b.view(), 3.0, c.view());
  EXPECT_EQ(c(1, 1), 3.0);
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 2), c(2, 2);  // a.cols != b.rows
  EXPECT_THROW(gemm(1.0, a.view(), b.view(), 0.0, c.view()),
               ContractViolation);
}

TEST(SchurUpdate, SubtractsProduct) {
  const Matrix a = generate(8, 4, MatrixKind::Uniform, 4);
  const Matrix b = generate(4, 8, MatrixKind::Uniform, 5);
  Matrix c = generate(8, 8, MatrixKind::Uniform, 6);
  const Matrix want = naive_gemm(-1.0, a, b, 1.0, c);
  schur_update(c.view(), a.view(), b.view());
  EXPECT_LT(max_abs_diff(c.view(), want.view()), 1e-13);
}

// ---------------------------------------------------------------------------
// The mapped Schur update: C lives at base[row_off[i] + col_off[j]], laid
// out like the 2.5D tile store — column tiles of width w, each an m x w
// row-major block, with the rows in shuffled order.
// ---------------------------------------------------------------------------

struct MappedC {
  std::vector<double> store;
  std::vector<std::size_t> row_off, col_off;

  MappedC(const Matrix& c, int w) {
    const int m = c.rows(), n = c.cols();
    const int tiles = (n + w - 1) / w;
    store.assign(static_cast<std::size_t>(tiles) * m * w, 0.0);
    // Row i sits at position slot[i] of each tile: a fixed shuffle.
    std::vector<int> slot(static_cast<std::size_t>(m));
    std::iota(slot.begin(), slot.end(), 0);
    std::shuffle(slot.begin(), slot.end(), std::mt19937(37));
    for (const int r : slot) row_off.push_back(static_cast<std::size_t>(r) * w);
    for (int j = 0; j < n; ++j)
      col_off.push_back(static_cast<std::size_t>(j / w) * m * w + j % w);
    for (int i = 0; i < m; ++i)
      for (int j = 0; j < n; ++j) at(i, j) = c(i, j);
  }
  double& at(int i, int j) {
    return store[row_off[static_cast<std::size_t>(i)] +
                 col_off[static_cast<std::size_t>(j)]];
  }
  void update(const Matrix& a, const Matrix& b) {
    schur_update_mapped(store.data(), row_off, col_off, a.view(), b.view());
  }
};

TEST(MappedUpdateEdges, EmptyShapesLeaveCUntouched) {
  for (const auto& [m, n, k] :
       {std::make_tuple(0, 5, 3), std::make_tuple(5, 0, 3),
        std::make_tuple(5, 5, 0)}) {
    const Matrix a = generate(m, k, MatrixKind::Uniform, 41);
    const Matrix b = generate(k, n, MatrixKind::Uniform, 42);
    Matrix c = generate(std::max(m, 1), std::max(n, 1), MatrixKind::Uniform,
                        43);
    c(0, 0) = -0.0;
    MappedC mapped(c, 4);
    const std::vector<double> before = mapped.store;
    mapped.row_off.resize(static_cast<std::size_t>(m));
    mapped.col_off.resize(static_cast<std::size_t>(n));
    mapped.update(a, b);
    EXPECT_EQ(std::memcmp(mapped.store.data(), before.data(),
                          before.size() * sizeof(double)),
              0)
        << "m=" << m << " n=" << n << " k=" << k;
  }
}

// Past one k panel (1024) each panel's sum is subtracted on its own, so the
// result is a GEMM up to rounding, not bit for bit.
TEST(MappedUpdateEdges, TwoKPanelsMatchReference) {
  const int m = 71, n = 45, k = 1100;
  const Matrix a = generate(m, k, MatrixKind::Uniform, 51);
  const Matrix b = generate(k, n, MatrixKind::Uniform, 52);
  Matrix want = generate(m, n, MatrixKind::Uniform, 53);
  MappedC got(want, 12);
  gemm_reference(-1.0, a.view(), b.view(), 1.0, want.view());
  got.update(a, b);
  double worst = 0.0;
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j)
      worst = std::max(worst, std::abs(got.at(i, j) - want(i, j)));
  EXPECT_LT(worst, 1e-12);
}

TEST(MappedUpdateEdges, ShapeMismatchThrows) {
  const Matrix a(3, 2), b(2, 4);
  std::vector<double> c(12);
  const std::vector<std::size_t> rows = {0, 4}, cols = {0, 1, 2, 3};
  EXPECT_THROW(schur_update_mapped(c.data(), rows, cols, a.view(), b.view()),
               ContractViolation);
}

// ---------------------------------------------------------------------------
// The rounding contract of the packed kernels, pinned bit for bit against
// an independent scalar model: per kKC = 1024-deep k panel, each entry's
// sum is formed from zero in increasing k, one FMA per term where the
// target has FMA, and only then written back to C. The register tile's
// shape does not enter, so the pins hold for every ISA's tile; the sizes
// straddle the 4 x 8 (AVX2) and 8 x 16 (AVX-512) tiles, the 128-row block
// and the 256-wide residual tile, and the depths straddle the k panel.
// ---------------------------------------------------------------------------

constexpr int kPanelDepth = 1024;
constexpr int kPinSizes[] = {1, 3, 4, 5, 7, 9, 15, 17, 127, 128, 129, 300};
constexpr int kPinDepths[] = {1, 4, 16, 64, 1024, 1100};

double fma_term(double a, double b, double sum) {
#ifdef __FMA__
  return std::fma(a, b, sum);
#else
  return a * b + sum;
#endif
}

/// The k-panel sums of A * B: entry (i, j) of panel q sums
/// a(i, p) * b(p, j) over p in [q * 1024, min(k, (q + 1) * 1024)).
std::vector<Matrix> panel_sums(const Matrix& a, const Matrix& b) {
  const int m = a.rows(), n = b.cols(), k = a.cols();
  std::vector<Matrix> sums;
  for (int k0 = 0; k0 < k; k0 += kPanelDepth) {
    Matrix s(m, n);
    for (int i = 0; i < m; ++i) {
      double* si = &s(i, 0);
      for (int p = k0; p < std::min(k, k0 + kPanelDepth); ++p) {
        const double aip = a(i, p);
        const double* bp = &b(p, 0);
        for (int j = 0; j < n; ++j) si[j] = fma_term(aip, bp[j], si[j]);
      }
    }
    sums.push_back(std::move(s));
  }
  return sums;
}

int mismatched_rows(const Matrix& got, const Matrix& want) {
  int count = 0;
  for (int i = 0; i < got.rows(); ++i)
    count += static_cast<int>(std::memcmp(&got(i, 0), &want(i, 0),
                                          sizeof(double) * got.cols()) != 0);
  return count;
}

// gemm above its small-problem cutoff (2 * 48^3 flops), and the mapped
// update at every size and tile widths 7, 12, 16, 20 and 24. Width 16
// makes every 8-column segment contiguous; with the AVX-512 tile's
// 16-wide column groups, width 24 splits every other group between its
// two 8-wide vectors, and 12 and 20 split groups mid-vector; width 7
// splits the vectors of every ISA, so the entry-by-entry write runs on
// each. Below the cutoff gemm runs gemm_reference, whose rounding depends
// on whether the compiler contracts its loop into FMAs, so it is pinned
// only against the reference tolerance (OptimizedGemmShape).
// |alpha| = 1 keeps the write-back to one rounding whether or not it is
// contracted.
TEST(KernelContract, PackedKernelsMatchScalarModel) {
  int shapes = 0;
  for (const int k : kPinDepths)
    for (const int m : kPinSizes)
      for (const int n : kPinSizes) {
        const Matrix a = generate(m, k, MatrixKind::Uniform, 61);
        const Matrix b = generate(k, n, MatrixKind::Uniform, 62);
        const Matrix c0 = generate(m, n, MatrixKind::Uniform, 63);
        const std::vector<Matrix> sums = panel_sums(a, b);
        const auto where = [&] {
          return "m=" + std::to_string(m) + " n=" + std::to_string(n) +
                 " k=" + std::to_string(k);
        };

        if (static_cast<long long>(m) * n * k > 48LL * 48 * 48) {
          ++shapes;
          const double alpha = shapes % 2 ? 1.0 : -1.0;
          const double beta = shapes % 3 == 0 ? 0.0 : shapes % 3 == 1 ? 1.0
                                                                      : 0.5;
          Matrix want = c0;
          for (int i = 0; i < m; ++i)
            for (int j = 0; j < n; ++j) {
              double& w = want(i, j);
              if (beta != 1.0) w = beta == 0.0 ? 0.0 : w * beta;
              for (const Matrix& s : sums) w += alpha * s(i, j);
            }
          Matrix got = c0;
          gemm(alpha, a.view(), b.view(), beta, got.view());
          EXPECT_EQ(mismatched_rows(got, want), 0) << "gemm " << where();
        }

        Matrix want = c0;
        for (int i = 0; i < m; ++i)
          for (int j = 0; j < n; ++j)
            for (const Matrix& s : sums) want(i, j) -= s(i, j);
        for (const int w : {7, 12, 16, 20, 24}) {
          MappedC mapped(c0, w);
          mapped.update(a, b);
          Matrix got(m, n);
          for (int i = 0; i < m; ++i)
            for (int j = 0; j < n; ++j) got(i, j) = mapped.at(i, j);
          EXPECT_EQ(mismatched_rows(got, want), 0)
              << "mapped w=" << w << " " << where();
        }
      }
  EXPECT_GT(shapes, 100);  // most shapes are above the cutoff
}

/// The model of triangular_product_max_diff's product: L * U with the
/// kind's triangle masks, summed per k panel like panel_sums. L(i, p) is
/// zero for p > i, so row i's terms stop there; the zero terms the kernel
/// adds past that point leave a finite sum unchanged.
Matrix triangular_model(TriangularProduct kind, const Matrix& l,
                        const Matrix& u) {
  const bool llt = kind == TriangularProduct::LLt;
  const int m = l.rows();
  const int n = llt ? m : u.cols();
  const int kmin = llt ? m : std::min(l.cols(), u.rows());
  Matrix upper(kmin, n);  // U with its mask applied
  for (int p = 0; p < kmin; ++p)
    for (int j = p; j < n; ++j) upper(p, j) = llt ? u(j, p) : u(p, j);
  Matrix prod(m, n);
  std::vector<double> s(static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i)
    for (int k0 = 0; k0 < std::min(i + 1, kmin); k0 += kPanelDepth) {
      std::fill(s.begin(), s.end(), 0.0);
      for (int p = k0; p < std::min({i + 1, kmin, k0 + kPanelDepth}); ++p) {
        const double lip = p < i ? l(i, p) : llt ? l(i, i) : 1.0;
        for (int j = 0; j < n; ++j)
          s[static_cast<std::size_t>(j)] =
              fma_term(lip, upper(p, j), s[static_cast<std::size_t>(j)]);
      }
      for (int j = 0; j < n; ++j) prod(i, j) += s[static_cast<std::size_t>(j)];
    }
  return prod;
}

// With ref set to the model's product (rows permuted for LU) every
// compared entry must match bit for bit, so the max difference is exactly
// 0; against a perturbed ref the max must equal the model's.
TEST(KernelContract, TriangularProductMatchesScalarModel) {
  struct Case {
    TriangularProduct kind;
    int m, k, n;
  };
  const Case cases[] = {
      {TriangularProduct::LU, 1, 1, 1},
      {TriangularProduct::LU, 17, 9, 129},
      {TriangularProduct::LU, 129, 300, 17},
      {TriangularProduct::LU, 300, 128, 300},
      {TriangularProduct::LU, 1100, 1100, 1100},
      {TriangularProduct::LLt, 1, 1, 1},
      {TriangularProduct::LLt, 129, 129, 129},
      {TriangularProduct::LLt, 300, 300, 300},
      {TriangularProduct::LLt, 1100, 1100, 1100},
  };
  for (const auto& [kind, m, k, n] : cases) {
    const bool llt = kind == TriangularProduct::LLt;
    const Matrix l = generate(m, k, MatrixKind::Uniform, 71);
    const Matrix u = llt ? l : generate(k, n, MatrixKind::Uniform, 72);
    std::vector<int> row_of;
    if (!llt) {
      row_of.resize(static_cast<std::size_t>(m));
      std::iota(row_of.begin(), row_of.end(), 0);
      std::shuffle(row_of.begin(), row_of.end(), std::mt19937(73));
    }
    const auto row = [&](int i) {
      return row_of.empty() ? i : row_of[static_cast<std::size_t>(i)];
    };
    const Matrix prod = triangular_model(kind, l, u);
    const Matrix noise = generate(m, n, MatrixKind::Uniform, 74);
    Matrix exact(m, n), perturbed(m, n);
    double want = 0.0;
    for (int i = 0; i < m; ++i)
      for (int j = 0; j < n; ++j) {
        exact(row(i), j) = prod(i, j);
        perturbed(row(i), j) = prod(i, j) + 1e-6 * noise(i, j);
        if (!llt || j <= i)
          want = std::max(want,
                          std::abs(perturbed(row(i), j) - prod(i, j)));
      }
    const std::string where = (llt ? "LLt" : "LU") + std::string(" m=") +
                              std::to_string(m) + " k=" + std::to_string(k) +
                              " n=" + std::to_string(n);
    EXPECT_EQ(triangular_product_max_diff(kind, l.view(), u.view(),
                                          exact.view(), row_of),
              0.0)
        << where;
    EXPECT_EQ(triangular_product_max_diff(kind, l.view(), u.view(),
                                          perturbed.view(), row_of),
              want)
        << where;
  }
}

/// Build a well-conditioned triangular matrix.
Matrix triangular(int n, Triangle tri, Diag diag, std::uint64_t seed) {
  Matrix t = generate(n, MatrixKind::Uniform, seed);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      const bool keep = tri == Triangle::Lower ? j <= i : j >= i;
      if (!keep) t(i, j) = 0.0;
      if (i == j) t(i, j) = diag == Diag::Unit ? 1.0 : 2.0 + 0.1 * i;
    }
  return t;
}

class TrsmCase : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TrsmCase, LeftLowerSolves) {
  const auto [m, n] = GetParam();
  for (Diag diag : {Diag::Unit, Diag::NonUnit}) {
    const Matrix l = triangular(m, Triangle::Lower, diag, 11);
    const Matrix b = generate(m, n, MatrixKind::Uniform, 12);
    Matrix x = b;
    trsm_left(Triangle::Lower, diag, l.view(), x.view());
    Matrix lx(m, n);
    gemm(1.0, l.view(), x.view(), 0.0, lx.view());
    EXPECT_LT(max_abs_diff(lx.view(), b.view()), 1e-10) << "m=" << m;
  }
}

TEST_P(TrsmCase, LeftUpperSolves) {
  const auto [m, n] = GetParam();
  for (Diag diag : {Diag::Unit, Diag::NonUnit}) {
    const Matrix u = triangular(m, Triangle::Upper, diag, 13);
    const Matrix b = generate(m, n, MatrixKind::Uniform, 14);
    Matrix x = b;
    trsm_left(Triangle::Upper, diag, u.view(), x.view());
    Matrix ux(m, n);
    gemm(1.0, u.view(), x.view(), 0.0, ux.view());
    EXPECT_LT(max_abs_diff(ux.view(), b.view()), 1e-10);
  }
}

TEST_P(TrsmCase, RightUpperSolves) {
  const auto [m, n] = GetParam();
  for (Diag diag : {Diag::Unit, Diag::NonUnit}) {
    const Matrix u = triangular(n, Triangle::Upper, diag, 15);
    const Matrix b = generate(m, n, MatrixKind::Uniform, 16);
    Matrix x = b;
    trsm_right(Triangle::Upper, diag, u.view(), x.view());
    Matrix xu(m, n);
    gemm(1.0, x.view(), u.view(), 0.0, xu.view());
    EXPECT_LT(max_abs_diff(xu.view(), b.view()), 1e-10);
  }
}

TEST_P(TrsmCase, RightLowerSolves) {
  const auto [m, n] = GetParam();
  for (Diag diag : {Diag::Unit, Diag::NonUnit}) {
    const Matrix l = triangular(n, Triangle::Lower, diag, 17);
    const Matrix b = generate(m, n, MatrixKind::Uniform, 18);
    Matrix x = b;
    trsm_right(Triangle::Lower, diag, l.view(), x.view());
    Matrix xl(m, n);
    gemm(1.0, x.view(), l.view(), 0.0, xl.view());
    EXPECT_LT(max_abs_diff(xl.view(), b.view()), 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TrsmCase,
                         ::testing::Values(std::make_tuple(1, 1),
                                           std::make_tuple(4, 9),
                                           std::make_tuple(16, 16),
                                           std::make_tuple(31, 7),
                                           std::make_tuple(64, 33)));

// ---------------------------------------------------------------------------
// Entry-point-vs-reference pins: the packed/tiled kernels must agree with
// the reference loops elementwise (up to summation-order rounding) on shapes that
// exercise the small fast path, the packed path, and every edge-padding case.
// ---------------------------------------------------------------------------

class OptimizedGemmShape
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(OptimizedGemmShape, MatchesReferenceElementwise) {
  const auto [m, n, k] = GetParam();
  for (const auto& [alpha, beta] :
       {std::make_tuple(1.0, 0.0), std::make_tuple(-1.0, 1.0),
        std::make_tuple(1.5, -0.5)}) {
    const Matrix a = generate(m, k, MatrixKind::Uniform, 21);
    const Matrix b = generate(k, n, MatrixKind::Uniform, 22);
    const Matrix c0 = generate(m, n, MatrixKind::Uniform, 23);
    Matrix c_ref = c0, c_opt = c0;
    gemm_reference(alpha, a.view(), b.view(), beta, c_ref.view());
    gemm(alpha, a.view(), b.view(), beta, c_opt.view());
    EXPECT_LT(max_abs_diff(c_ref.view(), c_opt.view()), 1e-12 * (k + 1))
        << "m=" << m << " n=" << n << " k=" << k << " alpha=" << alpha;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OptimizedGemmShape,
    ::testing::Values(std::make_tuple(1, 1, 1),       // degenerate
                      std::make_tuple(47, 31, 53),    // small fast path
                      std::make_tuple(96, 64, 256),   // exactly one k-panel
                      std::make_tuple(97, 65, 257),   // every edge padded
                      std::make_tuple(200, 120, 300),  // k spans two panels
                      std::make_tuple(130, 7, 512)));  // narrow C

class OptimizedTrsmShape
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OptimizedTrsmShape, AllVariantsMatchReference) {
  const auto [m, n] = GetParam();
  for (Triangle tri : {Triangle::Lower, Triangle::Upper}) {
    for (Diag diag : {Diag::Unit, Diag::NonUnit}) {
      {
        const Matrix a = triangular(m, tri, diag, 24);
        const Matrix b = generate(m, n, MatrixKind::Uniform, 25);
        Matrix x_ref = b, x_opt = b;
        trsm_left_reference(tri, diag, a.view(), x_ref.view());
        trsm_left(tri, diag, a.view(), x_opt.view());
        // Relative to the solution magnitude: random unit-triangular solves
        // grow exponentially in m, so an absolute tolerance cannot work.
        EXPECT_LT(max_abs_diff(x_ref.view(), x_opt.view()),
                  1e-13 * (1.0 + max_abs(x_ref.view())))
            << "left m=" << m << " n=" << n;
      }
      {
        const Matrix a = triangular(n, tri, diag, 26);
        const Matrix b = generate(m, n, MatrixKind::Uniform, 27);
        Matrix x_ref = b, x_opt = b;
        trsm_right_reference(tri, diag, a.view(), x_ref.view());
        trsm_right(tri, diag, a.view(), x_opt.view());
        EXPECT_LT(max_abs_diff(x_ref.view(), x_opt.view()),
                  1e-13 * (1.0 + max_abs(x_ref.view())))
            << "right m=" << m << " n=" << n;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, OptimizedTrsmShape,
                         ::testing::Values(std::make_tuple(3, 5),
                                           std::make_tuple(64, 64),
                                           std::make_tuple(129, 96),
                                           std::make_tuple(192, 200)));

TEST(Trsm, IgnoresOppositeTriangleGarbage) {
  Matrix l = triangular(6, Triangle::Lower, Diag::NonUnit, 19);
  // Poison the strictly-upper part; the solve must not read it.
  for (int i = 0; i < 6; ++i)
    for (int j = i + 1; j < 6; ++j)
      l(i, j) = std::numeric_limits<double>::quiet_NaN();
  const Matrix b = generate(6, 3, MatrixKind::Uniform, 20);
  Matrix x = b;
  trsm_left(Triangle::Lower, Diag::NonUnit, l.view(), x.view());
  EXPECT_FALSE(std::isnan(x(5, 2)));
}

TEST(Trsm, ShapeMismatchThrows) {
  Matrix a(3, 3), b(4, 2);
  EXPECT_THROW(trsm_left(Triangle::Lower, Diag::Unit, a.view(), b.view()),
               ContractViolation);
  Matrix c(2, 4);
  EXPECT_THROW(trsm_right(Triangle::Upper, Diag::Unit, a.view(), c.view()),
               ContractViolation);
}

}  // namespace
}  // namespace conflux::linalg
