// Tests for the Matrix value type and its views.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "linalg/generate.hpp"
#include "linalg/matrix.hpp"

namespace conflux::linalg {
namespace {

TEST(Matrix, ZeroInitialized) {
  Matrix a(3, 4);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 4; ++j) EXPECT_EQ(a(i, j), 0.0);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 4);
  EXPECT_EQ(a.size(), 12u);
}

// A matrix above the pooled-fill threshold is zeroed in chunks on the
// pool; its odd size leaves a short last chunk. The same-size matrix
// filled and freed first offers its memory for reuse.
TEST(Matrix, LargeIsZeroInitialized) {
  { Matrix dirty(601, 701); std::fill_n(dirty.data(), dirty.size(), 7.0); }
  const Matrix a(601, 701);
  EXPECT_EQ(std::count(a.data(), a.data() + a.size(), 0.0),
            static_cast<std::ptrdiff_t>(a.size()));
}

TEST(Matrix, IdentityHasUnitDiagonal) {
  const Matrix eye = Matrix::identity(5);
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 5; ++j) EXPECT_EQ(eye(i, j), i == j ? 1.0 : 0.0);
}

TEST(Matrix, ValueSemantics) {
  Matrix a(2, 2);
  a(0, 1) = 3.5;
  Matrix b = a;
  b(0, 1) = -1.0;
  EXPECT_EQ(a(0, 1), 3.5);
  EXPECT_EQ(b(0, 1), -1.0);
  EXPECT_TRUE(a == a);
  EXPECT_FALSE(a == b);
}

TEST(Matrix, RowSpanIsLive) {
  Matrix a(2, 3);
  auto r = a.row(1);
  r[2] = 9.0;
  EXPECT_EQ(a(1, 2), 9.0);
}

TEST(View, BlockAddressesSubmatrix) {
  Matrix a(4, 4);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) a(i, j) = i * 10 + j;
  auto blk = a.block(1, 2, 2, 2);
  EXPECT_EQ(blk.rows(), 2);
  EXPECT_EQ(blk.cols(), 2);
  EXPECT_EQ(blk(0, 0), 12.0);
  EXPECT_EQ(blk(1, 1), 23.0);
  blk(0, 0) = -5;
  EXPECT_EQ(a(1, 2), -5.0);
}

TEST(View, NestedBlocks) {
  Matrix a(6, 6);
  a(3, 3) = 7;
  auto outer = a.block(2, 2, 4, 4);
  auto inner = outer.block(1, 1, 2, 2);
  EXPECT_EQ(inner(0, 0), 7.0);
}

TEST(View, BlockOutOfRangeThrows) {
  Matrix a(3, 3);
  EXPECT_THROW((void)a.block(1, 1, 3, 1), ContractViolation);
  EXPECT_THROW((void)a.block(-1, 0, 1, 1), ContractViolation);
}

TEST(View, ConstViewFromMutable) {
  Matrix a(2, 2);
  a(1, 0) = 4;
  MatrixView mv = a.view();
  ConstMatrixView cv = mv;  // implicit conversion
  EXPECT_EQ(cv(1, 0), 4.0);
}

TEST(Copy, CopiesBlockwise) {
  Matrix a(3, 3), b(3, 3);
  a(2, 2) = 8;
  copy(a.view(), b.view());
  EXPECT_EQ(b(2, 2), 8.0);
  EXPECT_THROW(copy(a.view(), Matrix(2, 3).view()), ContractViolation);
}

TEST(Norms, MaxAbs) {
  Matrix a(2, 2);
  a(0, 0) = 3;
  a(1, 1) = -4;
  EXPECT_EQ(max_abs(a.view()), 4.0);
}

TEST(Norms, MaxAbsDiff) {
  Matrix a(2, 2), b(2, 2);
  b(0, 1) = 0.25;
  EXPECT_EQ(max_abs_diff(a.view(), b.view()), 0.25);
}

TEST(Norms, MaxReductionsKeepNaN) {
  // std::max(m, NaN) returns m: a NaN anywhere but first would vanish.
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 3;
  a(1, 0) = std::numeric_limits<double>::quiet_NaN();
  a(1, 1) = -4;
  EXPECT_TRUE(std::isnan(max_abs(a.view())));
  EXPECT_TRUE(std::isnan(max_abs_diff(a.view(), b.view())));
  EXPECT_TRUE(std::isnan(max_abs_diff(b.view(), a.view())));
  EXPECT_TRUE(std::isnan(max_keep_nan(std::nan(""), 1.0)));
  EXPECT_EQ(max_keep_nan(1.0, 2.0), 2.0);
}

// n = 1100 spreads every pooled scan over several chunks: a NaN in a
// chunk other than the first must still reach the result.
TEST(Norms, MaxReductionsKeepNaNAtScale) {
  constexpr int n = 1100;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const Matrix a = generate(n, MatrixKind::Uniform, 41);
  ASSERT_TRUE(std::isfinite(max_abs(a.view())));
  ASSERT_TRUE(std::isfinite(max_abs_upper(a.view())));
  const struct {
    int i, j;
    bool upper;  ///< inside the upper triangle max_abs_upper reads
  } places[] = {
      {n - 1, 517, false},    // the last row
      {n - 1, 1030, false},   // strict lower, column >= 1024
      {700, n - 1, true},     // the last column
      {n - 1, n - 1, true},   // the last diagonal entry
  };
  for (const auto& [i, j, upper] : places) {
    Matrix bad = a;
    bad(i, j) = kNaN;
    EXPECT_TRUE(std::isnan(max_abs(bad.view()))) << i << "," << j;
    EXPECT_TRUE(std::isnan(max_abs_diff(a.view(), bad.view())))
        << i << "," << j;
    EXPECT_EQ(std::isnan(max_abs_upper(bad.view())), upper) << i << "," << j;
  }
}

TEST(Norms, MaxAbsUpperReadsTheUpperTriangle) {
  Matrix a(3, 4);
  a(2, 1) = -9;  // below the diagonal: not read
  a(1, 1) = -5;
  a(2, 3) = 2;
  EXPECT_EQ(max_abs_upper(a.view()), 5.0);
  Matrix tall(4, 2);
  tall(3, 1) = 8;  // row 3 >= min(rows, cols): not read
  tall(0, 1) = 1;
  EXPECT_EQ(max_abs_upper(tall.view()), 1.0);
}

/// The reordering permute_rows replaces: a copy of the rows into a second
/// matrix, row i of the result taken from row perm[i].
Matrix row_copy(const Matrix& a, const std::vector<int>& perm) {
  Matrix out(a.rows(), a.cols());
  for (int i = 0; i < a.rows(); ++i) {
    auto src = a.row(perm[static_cast<std::size_t>(i)]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
}

TEST(PermuteRows, MatchesTheRowCopy) {
  const struct {
    const char* what;
    std::vector<int> perm;
  } cases[] = {
      {"identity", {0, 1, 2, 3, 4, 5, 6}},
      {"one 7-cycle", {1, 2, 3, 4, 5, 6, 0}},
      {"one 7-cycle, backwards", {6, 0, 1, 2, 3, 4, 5}},
      {"only 2-cycles", {1, 0, 3, 2, 5, 4, 7, 6}},
      {"cycles and fixed points", {2, 1, 0, 5, 3, 4, 6, 8, 7}},
      {"one row", {0}},
      {"no rows", {}},
  };
  for (const auto& [what, perm] : cases) {
    const int m = static_cast<int>(perm.size());
    const Matrix a = generate(m, 5, MatrixKind::Uniform, 43);
    Matrix got = a;
    permute_rows(got.view(), perm);
    EXPECT_TRUE(got == row_copy(a, perm)) << what;
  }

  // A shuffled permutation, applied to a view with a leading dimension
  // wider than its rows.
  std::vector<int> perm(300);
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), std::mt19937(44));
  const Matrix a = generate(300, 9, MatrixKind::Uniform, 45);
  Matrix wide(300, 12);
  copy(a.view(), wide.block(0, 2, 300, 9));
  permute_rows(wide.block(0, 2, 300, 9), perm);
  const Matrix want = row_copy(a, perm);
  for (int i = 0; i < 300; ++i)
    for (int j = 0; j < 12; ++j)
      ASSERT_EQ(wide(i, j), j < 2 || j >= 11 ? 0.0 : want(i, j - 2))
          << i << "," << j;
}

TEST(PermuteRows, RejectsWhatIsNotAPermutation) {
  Matrix a(3, 2);
  EXPECT_THROW(permute_rows(a.view(), std::vector<int>{0, 1}),
               ContractViolation);
  EXPECT_THROW(permute_rows(a.view(), std::vector<int>{0, 1, 1}),
               ContractViolation);
  EXPECT_THROW(permute_rows(a.view(), std::vector<int>{0, 1, 3}),
               ContractViolation);
  EXPECT_THROW(permute_rows(a.view(), std::vector<int>{0, -1, 2}),
               ContractViolation);
}

class GeneratorTest : public ::testing::TestWithParam<MatrixKind> {};

TEST_P(GeneratorTest, DeterministicBySeed) {
  const Matrix a = generate(24, GetParam(), 5);
  const Matrix b = generate(24, GetParam(), 5);
  EXPECT_EQ(max_abs_diff(a.view(), b.view()), 0.0);
}

TEST_P(GeneratorTest, SeedChangesUniformFamilies) {
  if (GetParam() == MatrixKind::Laplace2D) GTEST_SKIP() << "seedless kind";
  const Matrix a = generate(24, GetParam(), 5);
  const Matrix b = generate(24, GetParam(), 6);
  EXPECT_GT(max_abs_diff(a.view(), b.view()), 0.0);
}

TEST_P(GeneratorTest, BoundedEntries) {
  const Matrix a = generate(32, GetParam(), 1);
  EXPECT_LE(max_abs(a.view()), 64.0);
  EXPECT_GT(max_abs(a.view()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, GeneratorTest,
                         ::testing::Values(MatrixKind::Uniform,
                                           MatrixKind::DiagDominant,
                                           MatrixKind::Interaction,
                                           MatrixKind::Laplace2D));

TEST(Generator, DiagDominantIsDominant) {
  const Matrix a = generate(16, MatrixKind::DiagDominant, 3);
  for (int i = 0; i < 16; ++i) {
    double off = 0;
    for (int j = 0; j < 16; ++j)
      if (j != i) off += std::abs(a(i, j));
    EXPECT_GT(std::abs(a(i, i)), off);
  }
}

TEST(Generator, Laplace2DStencil) {
  const Matrix a = generate(16, MatrixKind::Laplace2D, 1);  // 4x4 grid
  EXPECT_EQ(a(0, 0), 4.0);
  EXPECT_EQ(a(0, 1), -1.0);
  EXPECT_EQ(a(0, 4), -1.0);
  EXPECT_EQ(a(0, 5), 0.0);  // diagonal neighbour is not connected
  EXPECT_EQ(a(3, 4), 0.0);  // row wrap is not connected
}

TEST(Generator, RectangularShapes) {
  const Matrix a = generate(10, 4, MatrixKind::Uniform, 2);
  EXPECT_EQ(a.rows(), 10);
  EXPECT_EQ(a.cols(), 4);
}

}  // namespace
}  // namespace conflux::linalg
