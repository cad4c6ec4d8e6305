// Tests for sequential LU with partial pivoting: residuals across matrix
// families and shapes, pivot bookkeeping, and the fused residual product
// across its row blocks and column slabs.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <tuple>

#include "linalg/blas.hpp"
#include "linalg/generate.hpp"
#include "linalg/getrf.hpp"
#include "linalg/potrf.hpp"
#include "lu/lu_common.hpp"

namespace conflux::linalg {
namespace {

// lu_residual takes the row permutation; getrf hands back a LAPACK ipiv.
std::vector<int> perm_of(const Matrix& a, const std::vector<int>& ipiv) {
  return pivots_to_permutation(ipiv, a.rows());
}

class GetrfFamily
    : public ::testing::TestWithParam<std::tuple<MatrixKind, int>> {};

TEST_P(GetrfFamily, UnblockedResidualSmall) {
  const auto [kind, n] = GetParam();
  const Matrix a = generate(n, kind, 21);
  Matrix f = a;
  std::vector<int> ipiv(static_cast<std::size_t>(n));
  EXPECT_EQ(getrf_unblocked(f.view(), ipiv), FactorStatus::Ok);
  EXPECT_LT(lu_residual(a, f.view(), perm_of(a, ipiv)), 1e-13);
}

INSTANTIATE_TEST_SUITE_P(
    Families, GetrfFamily,
    ::testing::Combine(::testing::Values(MatrixKind::Uniform,
                                         MatrixKind::DiagDominant,
                                         MatrixKind::Interaction),
                       ::testing::Values(1, 2, 5, 16, 33, 64, 100)));

TEST(Getrf, TallMatrixFactorsLeadingColumns) {
  const Matrix a = generate(20, 6, MatrixKind::Uniform, 24);
  Matrix f = a;
  std::vector<int> ipiv(6);
  EXPECT_EQ(getrf_unblocked(f.view(), ipiv), FactorStatus::Ok);
  // PA = LU with L 20x6 unit-lower, U 6x6 upper.
  Matrix pa = a;
  apply_pivots(pa.view(), ipiv);
  const Matrix l = extract_lower_unit(f.view());
  const Matrix u = extract_upper(f.view());
  Matrix prod(20, 6);
  gemm(1.0, l.view(), u.view(), 0.0, prod.view());
  EXPECT_LT(max_abs_diff(prod.view(), pa.view()), 1e-12);
  EXPECT_LT(lu_residual(a, f.view(), perm_of(a, ipiv)), 1e-13);
}

TEST(Getrf, WideMatrixResidual) {
  // U is 6 x 20 upper trapezoidal; L is 6 x 6.
  const Matrix a = generate(6, 20, MatrixKind::Uniform, 30);
  Matrix f = a;
  std::vector<int> ipiv(6);
  EXPECT_EQ(getrf_unblocked(f.view(), ipiv), FactorStatus::Ok);
  EXPECT_LT(lu_residual(a, f.view(), perm_of(a, ipiv)), 1e-13);
  f(5, 19) += 1.0;
  EXPECT_GT(lu_residual(a, f.view(), perm_of(a, ipiv)), 1e-4);
}

TEST(Getrf, SingularMatrixFlagged) {
  Matrix a(4, 4);  // all zeros
  std::vector<int> ipiv(4);
  EXPECT_EQ(getrf_unblocked(a.view(), ipiv), FactorStatus::Singular);
}

TEST(Getrf, PivotsPickLargestMagnitude) {
  Matrix a(3, 3);
  a(0, 0) = 0.1;
  a(1, 0) = -9.0;  // largest in column 0
  a(2, 0) = 2.0;
  a(0, 1) = 1;
  a(1, 1) = 1;
  a(2, 2) = 1;
  std::vector<int> ipiv(3);
  (void)getrf_unblocked(a.view(), ipiv);
  EXPECT_EQ(ipiv[0], 1);
}

TEST(Pivots, PermutationRoundTrip) {
  const std::vector<int> ipiv = {2, 2, 3, 3};
  const std::vector<int> perm = pivots_to_permutation(ipiv, 4);
  // Applying ipiv to the identity row order must equal perm.
  Matrix rows(4, 1);
  for (int i = 0; i < 4; ++i) rows(i, 0) = i;
  apply_pivots(rows.view(), ipiv);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(static_cast<int>(rows(i, 0)), perm[static_cast<std::size_t>(i)]);
}

TEST(Pivots, ResidualRejectsAnIpiv) {
  const Matrix a = generate(4, MatrixKind::Uniform, 26);
  Matrix f = a;
  std::vector<int> ipiv(4);
  (void)getrf_unblocked(f.view(), ipiv);
  const std::vector<int> not_a_permutation = {2, 2, 3, 3};
  EXPECT_THROW((void)lu_residual(a, f.view(), not_a_permutation),
               ContractViolation);
}

TEST(Pivots, PermutationIsBijective) {
  const Matrix a = generate(32, MatrixKind::Uniform, 25);
  Matrix f = a;
  std::vector<int> ipiv(32);
  (void)getrf_unblocked(f.view(), ipiv);
  std::vector<int> perm = pivots_to_permutation(ipiv, 32);
  std::sort(perm.begin(), perm.end());
  std::vector<int> want(32);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(perm, want);
}

TEST(Extract, FactorsHaveCorrectStructure) {
  const Matrix a = generate(10, MatrixKind::Uniform, 26);
  Matrix f = a;
  std::vector<int> ipiv(10);
  (void)getrf_unblocked(f.view(), ipiv);
  const Matrix l = extract_lower_unit(f.view());
  const Matrix u = extract_upper(f.view());
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(l(i, i), 1.0);
    for (int j = i + 1; j < 10; ++j) EXPECT_EQ(l(i, j), 0.0);
    for (int j = 0; j < i; ++j) EXPECT_EQ(u(i, j), 0.0);
  }
}

TEST(Growth, DiagDominantHasNoGrowth) {
  const Matrix a = generate(32, MatrixKind::DiagDominant, 27);
  Matrix f = a;
  std::vector<int> ipiv(32);
  (void)getrf_unblocked(f.view(), ipiv);
  EXPECT_LE(growth_factor(a, f.view()), 1.5);
}

TEST(Growth, PartialPivotingBoundedOnRandom) {
  const Matrix a = generate(64, MatrixKind::Uniform, 28);
  Matrix f = a;
  std::vector<int> ipiv(64);
  (void)getrf_unblocked(f.view(), ipiv);
  // Average-case growth for GEPP is ~ n^(2/3); 2^63 worst case never occurs
  // for random matrices. Generous bound:
  EXPECT_LE(growth_factor(a, f.view()), 64.0);
}

TEST(Residual, DetectsCorruptedFactor) {
  const Matrix a = generate(16, MatrixKind::Uniform, 29);
  Matrix f = a;
  std::vector<int> ipiv(16);
  (void)getrf_unblocked(f.view(), ipiv);
  f(8, 8) += 0.5;  // corrupt U
  EXPECT_GT(lu_residual(a, f.view(), perm_of(a, ipiv)), 1e-4);
}

TEST(Residual, NonFiniteFactorIsNotSmall) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const Matrix a = generate(16, MatrixKind::Uniform, 31);
  Matrix f = a;
  std::vector<int> ipiv(16);
  (void)getrf_unblocked(f.view(), ipiv);

  // Packed LU: one NaN in U, then every factor NaN.
  const std::vector<int> perm = perm_of(a, ipiv);
  Matrix one_nan = f;
  one_nan(8, 8) = kNaN;
  EXPECT_FALSE(std::isfinite(lu_residual(a, one_nan.view(), perm)));
  EXPECT_FALSE(std::isfinite(growth_factor(a, one_nan.view())));
  Matrix all_nan(16, 16);
  std::fill(all_nan.data(), all_nan.data() + all_nan.size(), kNaN);
  EXPECT_FALSE(std::isfinite(lu_residual(a, all_nan.view(), perm)));
  EXPECT_FALSE(std::isfinite(growth_factor(a, all_nan.view())));

  // The LU finish every LU driver ends in (COnfLUX and CALU included):
  // the same two corruptions, through the packed factor and its row
  // permutation, reach the residual, growth and pivot summary.
  lu::LuConfig cfg;
  cfg.verify = true;
  for (const Matrix* bad : {&one_nan, &all_nan}) {
    lu::LuResult res;
    lu::finish_lu(res, a, cfg, f, perm);
    EXPECT_LT(res.residual, 1e-13);
    lu::finish_lu(res, a, cfg, *bad, perm);
    EXPECT_FALSE(std::isfinite(res.residual));
    EXPECT_FALSE(std::isfinite(res.residual_eps));
    EXPECT_FALSE(std::isfinite(res.growth));
    EXPECT_TRUE(std::isnan(res.pivot_stats.min_abs_u_diag));
    EXPECT_TRUE(std::isnan(res.pivot_stats.max_abs_u_diag));
  }

  // Cholesky (ScaLAPACK, COnfCHOX): one NaN in L, then all of L NaN.
  const Matrix spd = generate(16, MatrixKind::Spd, 32);
  Matrix chol = spd;
  ASSERT_EQ(potrf_unblocked(chol.view()), FactorStatus::Ok);
  EXPECT_LT(cholesky_residual(spd, chol.view()), 1e-13);
  chol(8, 8) = kNaN;
  EXPECT_FALSE(std::isfinite(cholesky_residual(spd, chol.view())));
  EXPECT_FALSE(std::isfinite(cholesky_residual(spd, all_nan.view())));
}

std::vector<int> random_permutation(int n, unsigned seed) {
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  std::mt19937 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  return perm;
}

// The same checks at n = 1100, where every pooled scan and the residual
// product split their work over several workers and two k panels: one NaN
// in a late row, column or panel must still reach each result that reads
// it. The inputs are built from known factors (A = P^T L U and
// A = L L^T), so the clean residuals are small.
TEST(Residual, NonFiniteEntryIsNotSmallAtScale) {
  constexpr int n = 1100;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Matrix f = generate(n, MatrixKind::Uniform, 37);  // packed L \ U
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < i; ++j) f(i, j) *= 0.1;
    f(i, i) += 2.0;
  }
  const std::vector<int> perm = random_permutation(n, 38);
  Matrix a(n, n);
  {
    Matrix prod(n, n);
    gemm(1.0, extract_lower_unit(f.view()).view(),
         extract_upper(f.view()).view(), 0.0, prod.view());
    for (int i = 0; i < n; ++i)
      std::copy(prod.row(i).begin(), prod.row(i).end(),
                a.row(perm[static_cast<std::size_t>(i)]).begin());
  }
  Matrix chol(n, n), chol_t(n, n);  // L, lower with a positive diagonal
  for (int i = 0; i < n; ++i)
    for (int j = 0; j <= i; ++j) chol(i, j) = chol_t(j, i) = f(i, j);
  Matrix spd(n, n);
  gemm(1.0, chol.view(), chol_t.view(), 0.0, spd.view());

  lu::LuConfig cfg;
  cfg.verify = true;
  lu::LuResult clean;
  lu::finish_lu(clean, a, cfg, f, perm);
  ASSERT_LT(clean.residual, 1e-13);
  ASSERT_TRUE(std::isfinite(clean.growth));
  ASSERT_LT(cholesky_residual(spd, chol.view()), 1e-13);

  // What each place is read by: A by every check, L by the residuals only,
  // U also by the growth factor and the diagonal by the pivot summary.
  enum Place { kInA, kInL, kInU, kOnDiagonal };
  const struct {
    const char* what;
    Place place;
    int i, j;
  } cases[] = {
      {"the last row of A", kInA, n - 1, 517},
      {"strict-lower L at k >= 1024", kInL, n - 1, 1030},
      {"U's last column", kInU, 700, n - 1},
      {"the last diagonal entry", kOnDiagonal, n - 1, n - 1},
  };
  for (const auto& [what, place, i, j] : cases) {
    SCOPED_TRACE(what);
    Matrix bad_a = a, bad_f = f, bad_spd = spd, bad_chol = chol;
    if (place == kInA) {
      bad_a(i, j) = kNaN;
      bad_spd(i, j) = kNaN;
      EXPECT_TRUE(std::isnan(max_abs(bad_a.view())));
    } else {
      bad_f(i, j) = kNaN;
      // Cholesky reads L^T's last column from L's last row.
      bad_chol(std::max(i, j), std::min(i, j)) = kNaN;
    }
    EXPECT_TRUE(std::isnan(lu_residual(bad_a, bad_f.view(), perm)));
    EXPECT_TRUE(std::isnan(cholesky_residual(bad_spd, bad_chol.view())));
    const bool reads_u = place != kInL;
    EXPECT_EQ(std::isnan(growth_factor(bad_a, bad_f.view())), reads_u);

    lu::LuResult res;
    lu::finish_lu(res, bad_a, cfg, bad_f, perm);
    EXPECT_TRUE(std::isnan(res.residual));
    EXPECT_TRUE(std::isnan(res.residual_eps));
    EXPECT_EQ(std::isnan(res.growth), reads_u);
    EXPECT_EQ(std::isnan(res.pivot_stats.min_abs_u_diag),
              place == kOnDiagonal);
    EXPECT_EQ(std::isnan(res.pivot_stats.max_abs_u_diag),
              place == kOnDiagonal);
  }
}

// The fused residual product against a dense gemm_reference product and a
// max-abs difference taken here, at sizes below, on and across the
// kernel's 128-row blocks and 512-wide column slabs.
class LuResidualTiles : public ::testing::TestWithParam<int> {};

// max_ij |ref(row_of[i], j) - prod(i, j)|.
double permuted_max_diff(const Matrix& ref, const Matrix& prod,
                         const std::vector<int>& row_of) {
  double worst = 0.0;
  for (int i = 0; i < prod.rows(); ++i)
    for (int j = 0; j < prod.cols(); ++j)
      worst = std::max(worst, std::abs(ref(row_of[i], j) - prod(i, j)));
  return worst;
}

TEST_P(LuResidualTiles, MatchesDenseProduct) {
  const int n = GetParam();
  // Any packed view works: L is read from below the diagonal, U from on
  // and above it.
  const Matrix f = generate(n, MatrixKind::Uniform, 33);
  const std::vector<int> row_of = random_permutation(n, 34);
  const Matrix l = extract_lower_unit(f.view());
  const Matrix u = extract_upper(f.view());
  Matrix prod(n, n);
  gemm_reference(1.0, l.view(), u.view(), 0.0, prod.view());
  // ref = P^T (L U + small noise): a skipped or misplaced nonzero term
  // moves an entry by O(1) and shows above the noise.
  const Matrix noise = generate(n, MatrixKind::Uniform, 35);
  Matrix ref(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      ref(row_of[i], j) = prod(i, j) + 1e-6 * noise(i, j);

  const double got = triangular_product_max_diff(
      TriangularProduct::LU, f.view(), f.view(), ref.view(), row_of);
  const double want = permuted_max_diff(ref, prod, row_of);
  EXPECT_GT(want, 0.0);
  EXPECT_NEAR(got, want, 1e-12);
  // Above gemm's small-problem cutoff the sums run in the same order as
  // its packed path: every entry equal bit for bit.
  if (n > 48) {
    Matrix opt(n, n);
    gemm(1.0, l.view(), u.view(), 0.0, opt.view());
    Matrix opt_ref(n, n);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) opt_ref(row_of[i], j) = opt(i, j);
    EXPECT_EQ(triangular_product_max_diff(TriangularProduct::LU, f.view(),
                                          f.view(), opt_ref.view(), row_of),
              0.0);
  }
}

TEST_P(LuResidualTiles, DetectsOnePerturbedEntry) {
  const int n = GetParam();
  const Matrix a = generate(n, MatrixKind::Uniform, 36);
  Matrix f = a;
  std::vector<int> ipiv(static_cast<std::size_t>(n));
  ASSERT_EQ(getrf_unblocked(f.view(), ipiv), FactorStatus::Ok);
  const std::vector<int> perm = perm_of(a, ipiv);
  EXPECT_LT(lu_residual(a, f.view(), perm), 1e-13);
  // (n-1, n-1) has the longest k range, (255, 256) sits on a row-block
  // edge, (511, 512) on a slab edge and (0, n-1) reaches every row of the
  // last column.
  std::vector<std::pair<int, int>> spots = {{n - 1, n - 1}, {0, n - 1}};
  if (n > 256) spots.emplace_back(255, 256);
  if (n > 512) spots.emplace_back(511, 512);
  for (const auto& [r, c] : spots) {
    Matrix bad = f;
    bad(r, c) += max_abs(a.view());
    EXPECT_GT(lu_residual(a, bad.view(), perm), 1e-4) << r << "," << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuResidualTiles,
                         ::testing::Values(1, 255, 256, 257, 600));

}  // namespace
}  // namespace conflux::linalg
