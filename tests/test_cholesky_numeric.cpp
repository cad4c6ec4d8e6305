// Numerical correctness of the distributed Cholesky family (COnfCHOX and
// the ScaLAPACK-style 2D baseline): residual ||L L^T - A|| across rank
// counts, block sizes and replication depths, the non-SPD detection path,
// and the LU/Cholesky consistency invariant (both factorizations of the
// same SPD matrix reconstruct it to the same tolerance).
#include <gtest/gtest.h>

#include <tuple>

#include "cholesky/cholesky_common.hpp"
#include "linalg/generate.hpp"
#include "lu/lu_common.hpp"

namespace conflux::cholesky {
namespace {

using linalg::generate;
using linalg::Matrix;
using linalg::MatrixKind;

constexpr double kTol = 1e-11;

CholResult run_numeric(const std::string& algo, const Matrix& a, int p,
                       int block = 0, int force_layers = 0) {
  CholConfig cfg;
  cfg.n = a.rows();
  cfg.p = p;
  cfg.block = block;
  cfg.force_layers = force_layers;
  cfg.mode = Mode::Numeric;
  return make_cholesky_algorithm(algo)->run(&a, cfg);
}

class AlgoRanks
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(AlgoRanks, FactorsSpdMatrix) {
  const auto [algo, p] = GetParam();
  const Matrix a = generate(96, MatrixKind::Spd, 81);
  const CholResult res = run_numeric(algo, a, p);
  EXPECT_TRUE(res.spd);
  EXPECT_LT(res.residual, kTol) << res.grid;
  EXPECT_LE(res.ranks_used, p);
  EXPECT_EQ(res.ranks_available, p);
  EXPECT_GT(res.block, 0);
}

TEST_P(AlgoRanks, FactorsLaplacian) {
  const auto [algo, p] = GetParam();
  const Matrix a = generate(64, MatrixKind::Laplace2D, 82);
  const CholResult res = run_numeric(algo, a, p);
  EXPECT_TRUE(res.spd);
  EXPECT_LT(res.residual, kTol) << res.grid;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgoRanks,
    ::testing::Combine(::testing::Values("COnfCHOX", "ScaLAPACK"),
                       ::testing::Values(1, 2, 4, 8, 9, 12, 16, 18)));

class ConfchoxBlocks : public ::testing::TestWithParam<int> {};

TEST_P(ConfchoxBlocks, ExplicitBlockSizes) {
  const int v = GetParam();
  const Matrix a = generate(96, MatrixKind::Spd, 83);
  const CholResult res = run_numeric("COnfCHOX", a, 8, v);
  EXPECT_EQ(res.block, v);
  EXPECT_LT(res.residual, kTol);
}

INSTANTIATE_TEST_SUITE_P(Widths, ConfchoxBlocks,
                         ::testing::Values(4, 8, 12, 16, 24, 32, 48, 96));

class ConfchoxLayers : public ::testing::TestWithParam<int> {};

TEST_P(ConfchoxLayers, ForcedReplicationDepths) {
  const int c = GetParam();
  const Matrix a = generate(80, MatrixKind::Spd, 84);
  const CholResult res = run_numeric("COnfCHOX", a, 16, 0, c);
  EXPECT_LT(res.residual, kTol) << res.grid;
  EXPECT_NE(res.grid.find("x " + std::to_string(c) + "]"), std::string::npos)
      << res.grid;
}

INSTANTIATE_TEST_SUITE_P(Depths, ConfchoxLayers, ::testing::Values(1, 2, 4));

TEST(Confchox, SingleStepWholeMatrixBlock) {
  // v = N degenerates to one sequential potrf plus the L00 broadcast.
  const Matrix a = generate(32, MatrixKind::Spd, 85);
  const CholResult res = run_numeric("COnfCHOX", a, 4, 32);
  EXPECT_LT(res.residual, kTol);
}

TEST(Confchox, KeepFactorsYieldsLowerTriangularL) {
  const Matrix a = generate(64, MatrixKind::Spd, 86);
  CholConfig cfg;
  cfg.n = 64;
  cfg.p = 8;
  cfg.keep_factors = true;
  const CholResult res = make_cholesky_algorithm("COnfCHOX")->run(&a, cfg);
  ASSERT_NE(res.factors, nullptr);
  const Matrix& l = *res.factors;
  for (int i = 0; i < 64; ++i) {
    EXPECT_GT(l(i, i), 0.0);
    for (int j = i + 1; j < 64; ++j) EXPECT_DOUBLE_EQ(l(i, j), 0.0);
  }
}

class AlgoNames : public ::testing::TestWithParam<const char*> {};

TEST_P(AlgoNames, DetectsNonSpdInput) {
  // A generic uniform matrix is (almost surely) indefinite.
  const Matrix a = generate(64, MatrixKind::Uniform, 87);
  const CholResult res = run_numeric(GetParam(), a, 4);
  EXPECT_FALSE(res.spd);
}

INSTANTIATE_TEST_SUITE_P(Both, AlgoNames,
                         ::testing::Values("COnfCHOX", "ScaLAPACK"));

// ---- The LU/Cholesky consistency invariant -------------------------------
// Factoring the same SPD matrix through both pipelines must reconstruct it
// to the same (tiny) scaled-residual tolerance: L*L^T == A for Cholesky and
// P*L*U == A for LU.

TEST(Consistency, CholeskyMatchesLuToleranceOnSpdMatrix) {
  const Matrix a = generate(96, MatrixKind::Spd, 88);

  const CholResult chol = run_numeric("COnfCHOX", a, 8);
  lu::LuConfig lu_cfg;
  lu_cfg.n = 96;
  lu_cfg.p = 8;
  const lu::LuResult lu = lu::make_algorithm("COnfLUX")->run(&a, lu_cfg);

  EXPECT_TRUE(chol.spd);
  EXPECT_LT(chol.residual, kTol);
  EXPECT_LT(lu.residual, kTol);
  // Same reconstruction quality up to a small constant (both are scaled
  // max-norm residuals of the same matrix).
  EXPECT_LT(chol.residual, 100.0 * lu.residual + 1e-14);
}

TEST(Consistency, BothBaselinesAgreeToo) {
  const Matrix a = generate(64, MatrixKind::Spd, 89);
  const CholResult chol = run_numeric("ScaLAPACK", a, 6);
  lu::LuConfig lu_cfg;
  lu_cfg.n = 64;
  lu_cfg.p = 6;
  const lu::LuResult lu = lu::make_algorithm("LibSci")->run(&a, lu_cfg);
  EXPECT_LT(chol.residual, kTol);
  EXPECT_LT(lu.residual, kTol);
}

// ---- Interface ------------------------------------------------------------

TEST(Interface, UnknownAlgorithmThrows) {
  EXPECT_THROW(make_cholesky_algorithm("Elemental"), ContractViolation);
}

TEST(Interface, NumericModeRequiresMatrix) {
  CholConfig cfg;
  cfg.n = 32;
  cfg.p = 2;
  cfg.mode = Mode::Numeric;
  EXPECT_THROW(make_cholesky_algorithm("COnfCHOX")->run(nullptr, cfg),
               ContractViolation);
}

TEST(Interface, ResultCarriesVolumeInvariants) {
  const Matrix a = generate(64, MatrixKind::Spd, 90);
  const CholResult res = run_numeric("COnfCHOX", a, 8);
  EXPECT_EQ(res.total.bytes_sent, res.total.bytes_received);
  EXPECT_GT(res.total.messages_sent, 0u);
  EXPECT_GT(res.bytes_per_rank(), 0.0);
}

}  // namespace
}  // namespace conflux::cholesky
