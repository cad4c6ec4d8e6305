// Numerical correctness of all four distributed LU implementations:
// residual ||LU - PA|| across algorithms, matrix families, rank counts and
// block sizes — including true 2.5D grids with replication.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "factor/core25d.hpp"
#include "linalg/generate.hpp"
#include "lu/lu_common.hpp"

namespace conflux::lu {
namespace {

using linalg::generate;
using linalg::Matrix;
using linalg::MatrixKind;

constexpr double kTol = 1e-11;

LuResult run_numeric(const std::string& algo, const Matrix& a, int p,
                     int block = 0, int force_layers = 0) {
  LuConfig cfg;
  cfg.n = a.rows();
  cfg.p = p;
  cfg.block = block;
  cfg.force_layers = force_layers;
  cfg.mode = Mode::Numeric;
  return make_algorithm(algo)->run(&a, cfg);
}

class AlgoRanks
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(AlgoRanks, FactorsUniformMatrix) {
  const auto [algo, p] = GetParam();
  const Matrix a = generate(96, MatrixKind::Uniform, 51);
  const LuResult res = run_numeric(algo, a, p);
  EXPECT_LT(res.residual, kTol) << res.grid;
  EXPECT_LE(res.ranks_used, p);
  EXPECT_EQ(res.ranks_available, p);
  EXPECT_GT(res.block, 0);
}

TEST_P(AlgoRanks, FactorsInteractionMatrix) {
  const auto [algo, p] = GetParam();
  const Matrix a = generate(64, MatrixKind::Interaction, 52);
  EXPECT_LT(run_numeric(algo, a, p).residual, kTol);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgoRanks,
    ::testing::Combine(::testing::Values("COnfLUX", "LibSci", "SLATE",
                                         "CANDMC"),
                       ::testing::Values(1, 2, 4, 8, 9, 12, 16, 18)));

class AlgoKinds
    : public ::testing::TestWithParam<std::tuple<const char*, MatrixKind>> {};

TEST_P(AlgoKinds, ResidualSmallAcrossFamilies) {
  const auto [algo, kind] = GetParam();
  const Matrix a = generate(100, kind, 53);
  const LuResult res = run_numeric(algo, a, 4);
  EXPECT_LT(res.residual, kTol);
  EXPECT_GE(res.growth, 0.9);  // max|U| >= max|A| row after pivoting... loose
}

INSTANTIATE_TEST_SUITE_P(
    Families, AlgoKinds,
    ::testing::Combine(::testing::Values("COnfLUX", "LibSci", "SLATE",
                                         "CANDMC"),
                       ::testing::Values(MatrixKind::Uniform,
                                         MatrixKind::DiagDominant,
                                         MatrixKind::Interaction,
                                         MatrixKind::Laplace2D)));

class ConfluxBlocks : public ::testing::TestWithParam<int> {};

TEST_P(ConfluxBlocks, ExplicitBlockSizes) {
  const int v = GetParam();
  const Matrix a = generate(96, MatrixKind::Uniform, 54);
  const LuResult res = run_numeric("COnfLUX", a, 8, v);
  EXPECT_EQ(res.block, v);
  EXPECT_LT(res.residual, kTol);
}

INSTANTIATE_TEST_SUITE_P(Widths, ConfluxBlocks,
                         ::testing::Values(4, 8, 12, 16, 24, 32, 48, 96));

// The tile store's separable address (row_offset + col_offset, which the
// mapped Schur update consumes) must land on the documented layout: tile
// (It, Jt) at [(It / Px) * ltc + Jt / Py] * v^2, row-major within the tile,
// every owned element at its own offset inside the store.
TEST(TileStore, OffsetsAddressTheDocumentedLayout) {
  factor::Plan25D plan;
  plan.v = 12;
  plan.steps = 7;  // 7 tiles: ragged over both 2 and 3
  plan.n = plan.steps * plan.v;
  plan.g = grid::Grid3D(2, 3, 2);
  plan.active = plan.g.active();
  const Matrix input(plan.n, plan.n);
  for (int rank = 0; rank < plan.active; ++rank) {
    const grid::Coord3 me = plan.g.coord_of(rank);
    factor::TileStore store(plan, me, &input);
    const int px = plan.g.px_extent(), py = plan.g.py_extent();
    const int ltc = (plan.steps - me.py + py - 1) / py;
    std::set<std::size_t> seen;
    for (int row = 0; row < plan.n; ++row) {
      if ((row / plan.v) % px != me.px) continue;
      for (int col = 0; col < plan.n; ++col) {
        if ((col / plan.v) % py != me.py) continue;
        const std::size_t off = store.row_offset(row) + store.col_offset(col);
        EXPECT_EQ(store.data() + off, &store.elem_at(row, col));
        const std::size_t tile =
            static_cast<std::size_t>(row / plan.v / px) * ltc +
            col / plan.v / py;
        EXPECT_EQ(off, tile * plan.v * plan.v +
                           static_cast<std::size_t>(row % plan.v) * plan.v +
                           col % plan.v)
            << "rank " << rank << " (" << row << ", " << col << ")";
        seen.insert(off);
      }
    }
    // A bijection onto the store: distinct offsets, none past the end.
    const int ltr = (plan.steps - me.px + px - 1) / px;
    const std::size_t owned =
        static_cast<std::size_t>(ltr) * ltc * plan.v * plan.v;
    EXPECT_EQ(seen.size(), owned);
    EXPECT_LT(*seen.rbegin(), owned);
  }
}

class ConfluxLayers : public ::testing::TestWithParam<int> {};

TEST_P(ConfluxLayers, ForcedReplicationDepths) {
  const int c = GetParam();
  const Matrix a = generate(80, MatrixKind::Uniform, 55);
  LuConfig cfg;
  cfg.n = 80;
  cfg.p = 16;
  cfg.force_layers = c;
  const LuResult real = make_algorithm("COnfLUX")->run(&a, cfg);
  EXPECT_LT(real.residual, kTol) << real.grid;
  // Grid string records the forced depth.
  EXPECT_NE(real.grid.find("x " + std::to_string(c) + "]"), std::string::npos)
      << real.grid;
}

INSTANTIATE_TEST_SUITE_P(Depths, ConfluxLayers, ::testing::Values(1, 2, 4));

TEST(Conflux, SingleStepWholeMatrixBlock) {
  // v = N degenerates to one tournament over the whole matrix.
  const Matrix a = generate(32, MatrixKind::Uniform, 56);
  const LuResult res = run_numeric("COnfLUX", a, 4, 32);
  EXPECT_LT(res.residual, kTol);
}

TEST(Conflux, PivotGrowthComparableToGepp) {
  const Matrix a = generate(128, MatrixKind::Uniform, 57);
  const LuResult conflux = run_numeric("COnfLUX", a, 8);
  const LuResult gepp = run_numeric("LibSci", a, 8);
  // Tournament pivoting is as stable as partial pivoting in practice [29].
  EXPECT_LT(conflux.growth, 10.0 * gepp.growth + 1.0);
}

TEST(Conflux, DeterministicAcrossRankCounts) {
  // Different grids factor the same matrix; residuals all tiny and the
  // pivot growth identical up to roundoff noise.
  const Matrix a = generate(64, MatrixKind::Uniform, 58);
  const double r1 = run_numeric("COnfLUX", a, 2).residual;
  const double r2 = run_numeric("COnfLUX", a, 16).residual;
  EXPECT_LT(r1, kTol);
  EXPECT_LT(r2, kTol);
}

TEST(Scalapack, BlockSizeSweep) {
  const Matrix a = generate(96, MatrixKind::Uniform, 59);
  for (int nb : {4, 8, 16, 32, 96}) {
    const LuResult res = run_numeric("LibSci", a, 6, nb);
    EXPECT_LT(res.residual, kTol) << "nb=" << nb;
  }
}

TEST(Scalapack, MatchesSequentialPivotChoice) {
  // With P = 1 the 2D algorithm degenerates to GEPP: growth must equal the
  // sequential factorization's exactly.
  const Matrix a = generate(64, MatrixKind::Uniform, 60);
  const LuResult p1 = run_numeric("LibSci", a, 1);
  const LuResult p4 = run_numeric("LibSci", a, 4);
  EXPECT_NEAR(p1.growth, p4.growth, 1e-9);  // same pivots on any grid
}

TEST(Candmc, ReplicatedLayersStayCoherent) {
  const Matrix a = generate(64, MatrixKind::Uniform, 61);
  LuConfig cfg;
  cfg.n = 64;
  cfg.p = 18;  // 2 layers x (3 x 3)
  cfg.force_layers = 2;
  const LuResult res = make_algorithm("CANDMC")->run(&a, cfg);
  EXPECT_LT(res.residual, kTol) << res.grid;
  EXPECT_EQ(res.ranks_used, 18);
}

TEST(Interface, UnknownAlgorithmThrows) {
  EXPECT_THROW(make_algorithm("HPL"), ContractViolation);
}

TEST(Interface, NumericModeRequiresMatrix) {
  LuConfig cfg;
  cfg.n = 32;
  cfg.p = 2;
  cfg.mode = Mode::Numeric;
  EXPECT_THROW(make_algorithm("COnfLUX")->run(nullptr, cfg),
               ContractViolation);
}

TEST(Interface, ResultCarriesVolumeInvariants) {
  const Matrix a = generate(64, MatrixKind::Uniform, 62);
  const LuResult res = run_numeric("COnfLUX", a, 8);
  EXPECT_EQ(res.total.bytes_sent, res.total.bytes_received);
  EXPECT_GT(res.total.messages_sent, 0u);
  EXPECT_GE(res.max_rank_bytes, res.total_bytes() / (2 * res.ranks_used));
  EXPECT_GT(res.bytes_per_rank(), 0.0);
}

TEST(Interface, SyntheticPivotsAreSpreadAndComplete) {
  std::vector<std::uint8_t> pivoted(64, 0);
  const auto piv = synthetic_pivots(pivoted, 64, 16, 0, 42);
  ASSERT_EQ(piv.size(), 16u);
  std::set<int> uniq(piv.begin(), piv.end());
  EXPECT_EQ(uniq.size(), 16u);
  // Spread: not all from one 16-row tile.
  int low = 0;
  for (int r : piv)
    if (r < 16) ++low;
  EXPECT_LT(low, 12);
}

}  // namespace
}  // namespace conflux::lu
