/// \file cholesky_common.hpp
/// Configuration, result and interface types for the distributed Cholesky
/// implementations — the second factorization family of the journal
/// extension ("Near-Optimal Matrix Factorizations", arXiv:2108.09337):
/// COnfCHOX (2.5D, communication-avoiding) and a ScaLAPACK-style 2D
/// block-cyclic baseline (pdpotrf).
///
/// The family-neutral parts — problem shape, Numeric/DryRun duality, 2.5D
/// ablation knobs, CommVolume reporting — are the shared types of
/// factor/factorization.hpp, exactly as for LU (lu/lu_common.hpp). Cholesky
/// needs no pivoting, so its communication schedule is fully deterministic:
/// DryRun and Numeric runs produce bit-identical volumes (the volume tests
/// assert equality, not a tolerance band).
#pragma once

#include <memory>
#include <string>

#include "factor/factorization.hpp"
#include "linalg/matrix.hpp"

namespace conflux::cholesky {

/// Numeric-vs-DryRun execution mode, shared across factorization families.
using factor::Mode;

/// A distributed-Cholesky problem configuration: the family-neutral
/// FactorConfig (factor/factorization.hpp); its `seed` field is unused here
/// (no synthetic pivots to draw).
using CholConfig = factor::FactorConfig;

/// Result of one Cholesky factorization run. The communication metrics,
/// grid description, residual and wall time are the shared FactorResult
/// fields. `factors`, when kept, holds the lower-triangular L (zeros above
/// the diagonal) with L * L^T = A; there is no permutation.
struct CholResult : factor::FactorResult {
  /// False when a non-positive pivot showed the input was not positive
  /// definite (numeric mode only); the factors/residual are then
  /// meaningless.
  bool spd = true;
};

/// The finish both Cholesky drivers end in. `l` holds L on and below the
/// diagonal and zeros above it. Under cfg.verify it fills the residual;
/// under cfg.keep_factors it keeps `l` in the result.
void finish_cholesky(CholResult& result, const linalg::Matrix& a,
                     const CholConfig& cfg, linalg::Matrix l);

/// Interface implemented by both Cholesky algorithms.
class CholeskyAlgorithm {
 public:
  virtual ~CholeskyAlgorithm() = default;

  /// Factor the SPD matrix `a` (its lower triangle decides L) under
  /// `cfg`. In DryRun mode `a` is ignored (it may be null); in Numeric
  /// mode it must be N x N. In Numeric mode with cfg.verify, the
  /// result carries the scaled residual max|L L^T - A| / (N max|A|).
  [[nodiscard]] virtual CholResult run(const linalg::Matrix* a,
                                       const CholConfig& cfg) = 0;
};

/// Instantiate an algorithm by name: "COnfCHOX" or "ScaLAPACK". Throws
/// ContractViolation for unknown names.
[[nodiscard]] std::unique_ptr<CholeskyAlgorithm> make_cholesky_algorithm(
    const std::string& name);

}  // namespace conflux::cholesky
