// Tests for the Matrix value type and its views.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

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
