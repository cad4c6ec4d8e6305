// Adversarial numerics wall: every LU backend must stay backward-stable on
// the generator's hostile matrix families (graded/ill-scaled, near-singular,
// prescribed-condition randsvd), with element growth bounded by the
// documented pivoting-strategy limits. Wilkinson's worst-case matrix is the
// known exception: ALL row-pivoting strategies — partial and tournament
// alike — are fooled into the no-swap trap and attain 2^(n-1) growth, so
// bounds are growth-scaled rather than absolute. The suite also pins the
// CALU-specific contracts: dry == numeric communication volume, and total
// volume within 1.1x of COnfLUX (the tournament tree sends Px - 1 messages
// per panel against the butterfly's ~Px log2 Px).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>

#include "linalg/generate.hpp"
#include "lu/lu_common.hpp"

namespace conflux::lu {
namespace {

using linalg::generate;
using linalg::Matrix;
using linalg::MatrixKind;

LuResult run_verified(const std::string& algo, const Matrix& a, int p) {
  LuConfig cfg;
  cfg.n = a.rows();
  cfg.p = p;
  cfg.mode = Mode::Numeric;
  cfg.verify = true;
  return make_algorithm(algo)->run(&a, cfg);
}

TEST(PivotStats, NaNOnTheDiagonalShowsInBothExtremes) {
  const std::vector<int> perm = {0, 1, 2};
  const std::vector<double> u_diag = {
      1.0, std::numeric_limits<double>::quiet_NaN(), 2.0};
  const factor::PivotStats stats = factor::pivot_stats(perm, u_diag);
  EXPECT_TRUE(std::isnan(stats.min_abs_u_diag));
  EXPECT_TRUE(std::isnan(stats.max_abs_u_diag));
  EXPECT_EQ(stats.off_natural, 0);
}

constexpr const char* kAllAlgos[] = {"LibSci", "SLATE", "CANDMC", "COnfLUX",
                                     "CALU"};

// ---- every backend x every adversarial kind ------------------------------

class AdversarialNumerics
    : public ::testing::TestWithParam<std::tuple<const char*, MatrixKind>> {};

TEST_P(AdversarialNumerics, ResidualBoundedByGrowth) {
  const auto [algo, kind] = GetParam();
  const int n = 64, p = 8;
  const Matrix a = generate(n, kind, 101);
  const LuResult res = run_verified(algo, a, p);

  // Backward stability: ||PA - LU|| / (||A|| n eps) <= C * growth is the
  // classic LU error bound; C = 100 leaves an order of magnitude of slack
  // over what the simulator actually produces.
  ASSERT_TRUE(std::isfinite(res.growth)) << algo;
  EXPECT_GT(res.growth, 0.0) << algo;
  ASSERT_TRUE(std::isfinite(res.residual_eps)) << algo;
  EXPECT_LE(res.residual_eps, 100.0 * std::max(1.0, res.growth))
      << algo << " on " << linalg::to_string(kind);

  // Pivot-sequence instrumentation is populated and sane.
  EXPECT_EQ(res.pivot_stats.rows, n) << algo;
  EXPECT_GE(res.pivot_stats.off_natural, 0) << algo;
  EXPECT_LE(res.pivot_stats.off_natural, n) << algo;
  EXPECT_GT(res.pivot_stats.min_abs_u_diag, 0.0) << algo;
  EXPECT_GE(res.pivot_stats.max_abs_u_diag, res.pivot_stats.min_abs_u_diag)
      << algo;
}

TEST_P(AdversarialNumerics, GrowthBoundedOffWilkinson) {
  const auto [algo, kind] = GetParam();
  if (kind == MatrixKind::Wilkinson) GTEST_SKIP();
  const Matrix a = generate(64, kind, 103);
  const LuResult res = run_verified(algo, a, 8);
  // Away from the engineered worst case, every strategy keeps growth modest
  // (measured values are < 20; 1e3 is the alarm threshold).
  EXPECT_LT(res.growth, 1e3) << algo << " on " << linalg::to_string(kind);
}

std::vector<std::tuple<const char*, MatrixKind>> adversarial_grid() {
  std::vector<std::tuple<const char*, MatrixKind>> out;
  for (const char* algo : kAllAlgos)
    for (MatrixKind kind : linalg::adversarial_kinds())
      out.emplace_back(algo, kind);
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllBackends, AdversarialNumerics,
                         ::testing::ValuesIn(adversarial_grid()));

// ---- Wilkinson: the universal no-swap trap -------------------------------

TEST(Wilkinson, EveryStrategyHitsExponentialGrowth) {
  // W(n) has |column maxima| on the diagonal at every elimination step, so
  // partial pivoting never swaps — and the tournament's GEPP-ranked merge
  // reproduces the same choice. Growth is exactly 2^(n-1) for everyone;
  // tournament pivoting is NOT a stability upgrade here, which is the point
  // of keeping this family in the wall.
  const int n = 64;
  const Matrix a = generate(n, MatrixKind::Wilkinson, 107);
  for (const char* algo : kAllAlgos) {
    const LuResult res = run_verified(algo, a, 8);
    EXPECT_GT(std::log2(res.growth), n - 4.0) << algo;
    // No strategy moves a row: the pivot sequence is the natural order.
    EXPECT_EQ(res.pivot_stats.off_natural, 0) << algo;
  }
}

TEST(Wilkinson, TournamentGrowthWithinDocumentedBound) {
  // CALU's worst-case bound (arXiv 0808.2664, Thm 2.3-style): growth is at
  // most 2^(n (log2 P + 1)) — exponentially weaker than GEPP's 2^(n-1) in
  // the exponent, but still a bound. Compare in log space; the bound itself
  // overflows a double long before the measured growth does.
  const int n = 64, p = 8;
  const Matrix a = generate(n, MatrixKind::Wilkinson, 109);
  const LuResult res = run_verified("CALU", a, p);
  const double log2_bound = n * (std::log2(static_cast<double>(p)) + 1.0);
  EXPECT_LE(std::log2(res.growth), log2_bound);
}

// ---- CALU communication contracts ----------------------------------------

class CaluDryParity
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CaluDryParity, DryEqualsNumericVolume) {
  const auto [n, p] = GetParam();
  const Matrix a = generate(n, MatrixKind::Uniform, 113);
  LuConfig cfg;
  cfg.n = n;
  cfg.p = p;
  cfg.mode = Mode::Numeric;
  const LuResult numeric = make_algorithm("CALU")->run(&a, cfg);
  cfg.mode = Mode::DryRun;
  const LuResult dry = make_algorithm("CALU")->run(nullptr, cfg);
  const double ratio = dry.total_bytes() / numeric.total_bytes();
  EXPECT_GT(ratio, 0.93) << "n=" << n << " p=" << p;
  EXPECT_LT(ratio, 1.07) << "n=" << n << " p=" << p;
  EXPECT_EQ(dry.ranks_used, numeric.ranks_used);
  EXPECT_EQ(dry.block, numeric.block);
  EXPECT_EQ(dry.grid, numeric.grid);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CaluDryParity,
                         ::testing::Values(std::make_tuple(128, 8),
                                           std::make_tuple(192, 12),
                                           std::make_tuple(128, 16)));

TEST(CaluVolume, WithinElevenTenthsOfConflux) {
  // Acceptance bound: the reduction tree can only remove tournament
  // traffic relative to the butterfly, so CALU stays within 1.1x of
  // COnfLUX on every grid (and in practice below it).
  LuConfig cfg;
  cfg.mode = Mode::DryRun;
  for (const auto& [n, p] : {std::pair{512, 16}, std::pair{1024, 64},
                             std::pair{2048, 64}}) {
    cfg.n = n;
    cfg.p = p;
    const double conflux =
        make_algorithm("COnfLUX")->run(nullptr, cfg).total_bytes();
    const double calu =
        make_algorithm("CALU")->run(nullptr, cfg).total_bytes();
    EXPECT_LT(calu, 1.1 * conflux) << "n=" << n << " p=" << p;
  }
}

TEST(CaluNumerics, MatchesConfluxFactorsOnSameProblem) {
  // Same engine, same tournament_round merge in global row order: both
  // topologies select identical pivots on a generic matrix, so the
  // factorizations agree to rounding.
  const int n = 64;
  const Matrix a = generate(n, MatrixKind::Uniform, 127);
  const LuResult conflux = run_verified("COnfLUX", a, 8);
  const LuResult calu = run_verified("CALU", a, 8);
  EXPECT_NEAR(calu.residual, conflux.residual, 1e-15);
  EXPECT_NEAR(calu.growth, conflux.growth, 1e-9 * conflux.growth);
}

}  // namespace
}  // namespace conflux::lu
