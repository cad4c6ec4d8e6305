// Sequential Cholesky (potrf): residuals on the SPD matrix families,
// non-SPD detection, and the lower-triangle-only
// contract that lets the distributed algorithms carry junk above the
// diagonal, and the fused L * L^T residual product across its output tiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/generate.hpp"
#include "linalg/potrf.hpp"

namespace conflux::linalg {
namespace {

constexpr double kTol = 1e-13;

TEST(PotrfUnblocked, FactorsSpdMatrix) {
  const Matrix a = generate(64, MatrixKind::Spd, 11);
  Matrix f = a;
  EXPECT_EQ(potrf_unblocked(f.view()), FactorStatus::Ok);
  EXPECT_LT(cholesky_residual(a, f.view()), kTol);
}

TEST(PotrfUnblocked, FactorsLaplacian) {
  // The 2D Laplacian is SPD — a structured second family (49 = 7x7 grid).
  const Matrix a = generate(49, MatrixKind::Laplace2D, 12);
  Matrix f = a;
  EXPECT_EQ(potrf_unblocked(f.view()), FactorStatus::Ok);
  EXPECT_LT(cholesky_residual(a, f.view()), kTol);
}

TEST(PotrfUnblocked, DiagonalMatrixGivesSqrtDiagonal) {
  Matrix a(3, 3);
  a(0, 0) = 4.0;
  a(1, 1) = 9.0;
  a(2, 2) = 16.0;
  EXPECT_EQ(potrf_unblocked(a.view()), FactorStatus::Ok);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(a(2, 2), 4.0);
}

TEST(PotrfUnblocked, RejectsIndefiniteMatrix) {
  Matrix a(4, 4);
  for (int i = 0; i < 4; ++i) a(i, i) = 1.0;
  a(3, 3) = -1.0;
  EXPECT_EQ(potrf_unblocked(a.view()), FactorStatus::NotSpd);
}

TEST(PotrfUnblocked, IgnoresUpperTriangleJunk) {
  const Matrix a = generate(48, MatrixKind::Spd, 13);
  Matrix junk = a;
  for (int i = 0; i < 48; ++i)
    for (int j = i + 1; j < 48; ++j) junk(i, j) = 1e30;
  EXPECT_EQ(potrf_unblocked(junk.view()), FactorStatus::Ok);
  EXPECT_LT(cholesky_residual(a, junk.view()), kTol);
}

TEST(ExtractLower, ZeroesAboveDiagonal) {
  Matrix f(3, 3);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) f(i, j) = 1.0 + i * 3 + j;
  const Matrix l = extract_lower(f.view());
  EXPECT_DOUBLE_EQ(l(2, 0), f(2, 0));
  EXPECT_DOUBLE_EQ(l(1, 1), f(1, 1));
  EXPECT_DOUBLE_EQ(l(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(l(0, 2), 0.0);
}

TEST(SpdGenerator, IsSymmetricWithDominantDiagonal) {
  const Matrix a = generate(32, MatrixKind::Spd, 15);
  for (int i = 0; i < 32; ++i) {
    EXPECT_GT(a(i, i), 31.0);
    for (int j = 0; j < i; ++j) EXPECT_DOUBLE_EQ(a(i, j), a(j, i));
  }
}

TEST(SpdGenerator, RequiresSquareShape) {
  EXPECT_THROW((void)generate(8, 16, MatrixKind::Spd), ContractViolation);
}

TEST(CholeskyResidual, DetectsWrongFactor) {
  const Matrix a = generate(16, MatrixKind::Spd, 16);
  Matrix f = a;
  EXPECT_EQ(potrf_unblocked(f.view()), FactorStatus::Ok);
  f(8, 3) += 0.5;  // corrupt one entry of L
  EXPECT_GT(cholesky_residual(a, f.view()), 1e-4);
}

// The fused L * L^T product against a dense gemm_reference product and a
// max-abs difference over j <= i taken here, at sizes below, on and across
// the 256-wide output tiles.
class CholeskyResidualTiles : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyResidualTiles, MatchesDenseProductOnLowerTriangle) {
  const int n = GetParam();
  // Any view works: L is read from on and below the diagonal.
  const Matrix f = generate(n, MatrixKind::Uniform, 17);
  const Matrix l = extract_lower(f.view());
  Matrix lt(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j <= i; ++j) lt(j, i) = l(i, j);
  Matrix prod(n, n);
  gemm_reference(1.0, l.view(), lt.view(), 0.0, prod.view());

  std::vector<int> row_of(static_cast<std::size_t>(n));
  std::iota(row_of.begin(), row_of.end(), 0);
  std::mt19937 rng(18);
  std::shuffle(row_of.begin(), row_of.end(), rng);
  // ref = P^T (L L^T + small noise) on the compared entries and junk above
  // the diagonal, which must not be compared.
  const Matrix noise = generate(n, MatrixKind::Uniform, 19);
  Matrix ref(n, n);
  double want = 0.0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      double& r = ref(row_of[i], j);
      r = j <= i ? prod(i, j) + 1e-6 * noise(i, j) : 1e3;
      if (j <= i) want = std::max(want, std::abs(r - prod(i, j)));
    }

  const double got = triangular_product_max_diff(
      TriangularProduct::LLt, f.view(), f.view(), ref.view(), row_of);
  EXPECT_GT(want, 0.0);
  EXPECT_NEAR(got, want, 1e-12);
  // Above gemm's small-problem cutoff the sums run in the same order as
  // its packed path: every compared entry equal bit for bit.
  if (n > 48) {
    Matrix opt(n, n);
    gemm(1.0, l.view(), lt.view(), 0.0, opt.view());
    for (int i = 0; i < n; ++i)
      for (int j = 0; j <= i; ++j) ref(row_of[i], j) = opt(i, j);
    EXPECT_EQ(triangular_product_max_diff(TriangularProduct::LLt, f.view(),
                                          f.view(), ref.view(), row_of),
              0.0);
  }
}

TEST_P(CholeskyResidualTiles, DetectsOnePerturbedEntry) {
  const int n = GetParam();
  const Matrix a = generate(n, MatrixKind::Spd, 20);
  Matrix f = a;
  ASSERT_EQ(potrf_unblocked(f.view()), FactorStatus::Ok);
  EXPECT_LT(cholesky_residual(a, f.view()), kTol);
  // The lower-triangle mirrors of the LU spots: (n-1, n-1) has the longest
  // k range, (256, 255) sits on a tile edge, (n-1, 0) reaches the last row.
  std::vector<std::pair<int, int>> spots = {{n - 1, n - 1}, {n - 1, 0}};
  if (n > 256) spots.emplace_back(256, 255);
  for (const auto& [r, c] : spots) {
    Matrix bad = f;
    bad(r, c) += max_abs(a.view());
    EXPECT_GT(cholesky_residual(a, bad.view()), 1e-4) << r << "," << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyResidualTiles,
                         ::testing::Values(1, 255, 256, 257, 600));

}  // namespace
}  // namespace conflux::linalg
