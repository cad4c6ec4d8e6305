/// \file solve.hpp
/// Linear-system solving on top of the distributed factorizations — the
/// operation the paper's motivating applications (DFT, HPL) actually need.
/// A numeric-mode run with cfg.keep_factors retains the packed factors and
/// row permutation in the LuResult; lu_solve applies them to one or more
/// right-hand sides by permuted forward/backward substitution.
#pragma once

#include <span>
#include <vector>

#include "lu/lu_common.hpp"

namespace conflux::lu {

/// Solve A x = b using the factors carried by `result` (requires a
/// numeric-mode run with cfg.keep_factors = true). Returns x.
/// Works for every algorithm: the factors satisfy L U = A[perm, :], so the
/// solve is L y = b[perm], then U x = y.
[[nodiscard]] std::vector<double> lu_solve(const LuResult& result,
                                           std::span<const double> b);

/// Multi-RHS variant: each column of `b` (n x k) is solved independently;
/// returns an n x k solution matrix.
[[nodiscard]] linalg::Matrix lu_solve(const LuResult& result,
                                      const linalg::Matrix& b);

/// Scaled solve residual max|A x - b| / (n * max|A| * max|x|) — the
/// standard backward-error proxy. NaN in x gives a NaN residual.
[[nodiscard]] double solve_residual(const linalg::Matrix& a,
                                    std::span<const double> x,
                                    std::span<const double> b);

/// Convenience one-shot: factor `a` with the named algorithm on `p`
/// simulated ranks and solve for `b`. Returns {x, result}.
struct SolveOutcome {
  std::vector<double> x;
  LuResult factorization;
};
[[nodiscard]] SolveOutcome factor_and_solve(const std::string& algorithm,
                                            const linalg::Matrix& a,
                                            std::span<const double> b, int p);

}  // namespace conflux::lu
