// Tests for the linear-system solve layer: factor once with any of the
// five distributed algorithms, then solve by permuted forward/backward
// substitution. Backward-error checks across algorithms, matrix families
// and multiple right-hand sides, and the factor-output contract the solve
// relies on, over every registered backend of both families.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "cholesky/cholesky_common.hpp"
#include "linalg/blas.hpp"
#include "linalg/generate.hpp"
#include "linalg/getrf.hpp"
#include "linalg/potrf.hpp"
#include "lu/solve.hpp"
#include "support/random.hpp"
#include "verify/commcheck.hpp"

namespace conflux::lu {
namespace {

using linalg::generate;
using linalg::Matrix;
using linalg::MatrixKind;

std::vector<double> rhs_for(const Matrix& a, std::uint64_t seed) {
  // Build b = A * x_true so the true solution is known.
  const int n = a.rows();
  Matrix xt(n, 1);
  conflux::Rng rng(seed);
  for (int i = 0; i < n; ++i) xt(i, 0) = rng.uniform(-1.0, 1.0);
  Matrix b(n, 1);
  linalg::gemm(1.0, a.view(), xt.view(), 0.0, b.view());
  std::vector<double> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = b(i, 0);
  return out;
}

class SolveAlgos : public ::testing::TestWithParam<const char*> {};

TEST_P(SolveAlgos, BackwardErrorTiny) {
  const Matrix a = generate(96, MatrixKind::Uniform, 81);
  const std::vector<double> b = rhs_for(a, 82);
  const SolveOutcome out = factor_and_solve(GetParam(), a, b, 8);
  EXPECT_LT(out.factorization.residual, 1e-11);
  EXPECT_LT(solve_residual(a, out.x, b), 1e-12);
}

TEST_P(SolveAlgos, InteractionMatrixSolves) {
  const Matrix a = generate(64, MatrixKind::Interaction, 83);
  const std::vector<double> b = rhs_for(a, 84);
  const SolveOutcome out = factor_and_solve(GetParam(), a, b, 9);
  EXPECT_LT(solve_residual(a, out.x, b), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SolveAlgos,
                         ::testing::Values("COnfLUX", "LibSci", "SLATE",
                                           "CANDMC", "CALU"));

// ---- adversarial multi-RHS solves ----------------------------------------
// Build B = A * X_true so the true solution is known, factor once, solve
// k right-hand sides, and check both the scaled backward residual and the
// forward error against a conditioning-scaled tolerance per family.

struct AdversarialSolveCase {
  MatrixKind kind;
  double forward_tol;  ///< ~ cond(A) * n * eps with an order of slack
};

class AdversarialSolve
    : public ::testing::TestWithParam<
          std::tuple<const char*, AdversarialSolveCase>> {};

TEST_P(AdversarialSolve, MultiRhsForwardErrorWithinConditioning) {
  const auto [algo, c] = GetParam();
  const int n = 64, k = 4;
  const Matrix a = generate(n, c.kind, 95);
  const Matrix xt = generate(n, k, MatrixKind::Uniform, 96);
  Matrix b(n, k);
  linalg::gemm(1.0, a.view(), xt.view(), 0.0, b.view());

  LuConfig cfg;
  cfg.n = n;
  cfg.p = 8;
  cfg.keep_factors = true;
  const LuResult fact = make_algorithm(algo)->run(&a, cfg);
  ASSERT_NE(fact.factors, nullptr) << algo;
  const Matrix x = lu_solve(fact, b);

  double fwd = 0.0, xt_max = 0.0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < k; ++j) {
      fwd = std::max(fwd, std::abs(x(i, j) - xt(i, j)));
      xt_max = std::max(xt_max, std::abs(xt(i, j)));
    }
  EXPECT_LT(fwd / xt_max, c.forward_tol)
      << algo << " on " << linalg::to_string(c.kind);

  // Backward error stays eps-scale per column regardless of conditioning.
  for (int j = 0; j < k; ++j) {
    std::vector<double> xj(static_cast<std::size_t>(n));
    std::vector<double> bj(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      xj[static_cast<std::size_t>(i)] = x(i, j);
      bj[static_cast<std::size_t>(i)] = b(i, j);
    }
    EXPECT_LT(solve_residual(a, xj, bj), 1e-10)
        << algo << " on " << linalg::to_string(c.kind) << " rhs " << j;
  }
}

std::vector<std::tuple<const char*, AdversarialSolveCase>>
adversarial_solve_grid() {
  // Forward-error tolerances scale with each family's conditioning:
  // graded ~2^48, randsvd cond 1e10, near-singular ~1e8.
  const AdversarialSolveCase cases[] = {
      {MatrixKind::Graded, 5e-1},
      {MatrixKind::RandSvd, 1e-2},
      {MatrixKind::NearSingular, 1e-4},
  };
  std::vector<std::tuple<const char*, AdversarialSolveCase>> out;
  for (const char* algo : {"COnfLUX", "CALU", "LibSci"})
    for (const AdversarialSolveCase& c : cases) out.emplace_back(algo, c);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Families, AdversarialSolve,
                         ::testing::ValuesIn(adversarial_solve_grid()));

TEST(Solve, FactorOnceSolveMany) {
  const int n = 80;
  const Matrix a = generate(n, MatrixKind::Uniform, 85);
  LuConfig cfg;
  cfg.n = n;
  cfg.p = 8;
  cfg.keep_factors = true;
  const LuResult fact = make_algorithm("COnfLUX")->run(&a, cfg);
  ASSERT_NE(fact.factors, nullptr);
  for (std::uint64_t seed : {86u, 87u, 88u}) {
    const std::vector<double> b = rhs_for(a, seed);
    const std::vector<double> x = lu_solve(fact, b);
    EXPECT_LT(solve_residual(a, x, b), 1e-12) << "seed=" << seed;
  }
}

TEST(Solve, MultiRhsMatrixVariant) {
  const int n = 64, k = 5;
  const Matrix a = generate(n, MatrixKind::DiagDominant, 89);
  Matrix xt = generate(n, k, MatrixKind::Uniform, 90);
  Matrix b(n, k);
  linalg::gemm(1.0, a.view(), xt.view(), 0.0, b.view());

  LuConfig cfg;
  cfg.n = n;
  cfg.p = 4;
  cfg.keep_factors = true;
  const LuResult fact = make_algorithm("LibSci")->run(&a, cfg);
  const Matrix x = lu_solve(fact, b);
  // Diagonally dominant: the recovered solution matches x_true closely.
  EXPECT_LT(linalg::max_abs_diff(x.view(), xt.view()), 1e-10);
}

TEST(Solve, IdentityIsTrivial) {
  const Matrix eye = Matrix::identity(16);
  std::vector<double> b(16);
  for (int i = 0; i < 16; ++i) b[static_cast<std::size_t>(i)] = i;
  const SolveOutcome out = factor_and_solve("COnfLUX", eye, b, 4);
  for (int i = 0; i < 16; ++i)
    EXPECT_NEAR(out.x[static_cast<std::size_t>(i)], i, 1e-14);
}

TEST(Solve, PermutationIsRecorded) {
  const Matrix a = generate(48, MatrixKind::Uniform, 91);
  LuConfig cfg;
  cfg.n = 48;
  cfg.p = 4;
  cfg.keep_factors = true;
  for (const char* algo : {"COnfLUX", "SLATE"}) {
    const LuResult fact = make_algorithm(algo)->run(&a, cfg);
    ASSERT_EQ(fact.permutation.size(), 48u) << algo;
    std::vector<int> sorted = fact.permutation;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 48; ++i)
      EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i) << algo;
  }
}

TEST(Solve, NonFiniteSolutionIsNotSmall) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const Matrix a = generate(16, MatrixKind::Uniform, 94);
  std::vector<double> b(16, 1.0);
  EXPECT_FALSE(std::isfinite(solve_residual(a, std::vector(16, kNaN), b)));
  // A finite x with one NaN in A x - b: only the error reduction sees it.
  b[5] = kNaN;
  EXPECT_FALSE(std::isfinite(solve_residual(a, std::vector(16, 1.0), b)));
}

// The output contract of every registered backend: a numeric run with
// verify and keep_factors reports the residual of exactly the factors it
// hands back (LU: with its row permutation), bit for bit.
class OutputContract : public ::testing::TestWithParam<verify::Backend> {};

TEST_P(OutputContract, ResidualIsThatOfTheKeptFactors) {
  const verify::Backend& backend = GetParam();
  const int n = 96;
  const Matrix a = generate(n, backend.input_kind(), 97);
  factor::FactorConfig cfg;
  cfg.n = n;
  cfg.p = 8;
  cfg.verify = true;
  cfg.keep_factors = true;
  if (backend.family == "LU") {
    const LuResult res = make_algorithm(backend.name)->run(&a, cfg);
    ASSERT_NE(res.factors, nullptr);
    ASSERT_EQ(res.permutation.size(), static_cast<std::size_t>(n));
    EXPECT_LT(res.residual, 1e-12);
    EXPECT_EQ(linalg::lu_residual(a, res.factors->view(), res.permutation),
              res.residual);
  } else {
    const cholesky::CholResult res =
        cholesky::make_cholesky_algorithm(backend.name)->run(&a, cfg);
    ASSERT_NE(res.factors, nullptr);
    const Matrix& l = *res.factors;
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j) ASSERT_EQ(l(i, j), 0.0) << i << "," << j;
    EXPECT_LT(res.residual, 1e-12);
    EXPECT_EQ(linalg::cholesky_residual(a, l.view()), res.residual);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryBackend, OutputContract,
    ::testing::ValuesIn(verify::registered_backends()),
    [](const ::testing::TestParamInfo<verify::Backend>& info) {
      return info.param.name;
    });

TEST(Solve, WithoutKeepFactorsThrows) {
  const Matrix a = generate(32, MatrixKind::Uniform, 92);
  LuConfig cfg;
  cfg.n = 32;
  cfg.p = 2;
  const LuResult fact = make_algorithm("COnfLUX")->run(&a, cfg);
  const std::vector<double> b(32, 1.0);
  EXPECT_THROW((void)lu_solve(fact, b), ContractViolation);
}

TEST(Solve, SizeMismatchThrows) {
  const Matrix a = generate(32, MatrixKind::Uniform, 93);
  LuConfig cfg;
  cfg.n = 32;
  cfg.p = 2;
  cfg.keep_factors = true;
  const LuResult fact = make_algorithm("COnfLUX")->run(&a, cfg);
  const std::vector<double> bad(31, 1.0);
  EXPECT_THROW((void)lu_solve(fact, bad), ContractViolation);
}

}  // namespace
}  // namespace conflux::lu
