/// \file lu_common.hpp
/// Configuration, result and interface types for the distributed LU
/// implementations (COnfLUX, the three comparison targets of §8 — Cray
/// LibSci, SLATE, CANDMC — and the CALU tournament-pivoting backend).
///
/// The family-neutral parts — problem shape, Numeric/DryRun duality,
/// 2.5D ablation knobs, CommVolume reporting — live in
/// factor/factorization.hpp and are shared with the Cholesky family
/// (cholesky/cholesky_common.hpp). This header adds the LU-specific pieces:
/// pivot growth, the packed-factor + permutation contract consumed by
/// lu/solve.hpp, and the synthetic pivot schedule dry runs replay.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "factor/factorization.hpp"
#include "factor/numerics.hpp"
#include "linalg/matrix.hpp"

namespace conflux::lu {

/// Numeric-vs-DryRun execution mode, shared across factorization families.
/// For LU, DryRun replays the identical communication schedule with ghost
/// payloads and synthetic (hash-spread) pivots; message sizes depend only
/// on index sets, so the measured volume matches a numeric run to within
/// the pivot-placement noise band (tests pin it at a few percent).
using factor::Mode;

/// A distributed-LU problem configuration: the family-neutral FactorConfig
/// (factor/factorization.hpp), so one config runs a backend of either
/// family.
using LuConfig = factor::FactorConfig;

/// Result of one LU factorization run. The communication metrics, grid
/// description, residual and wall time are the shared FactorResult fields;
/// LU adds the pivot-growth stability proxy and the row permutation.
struct LuResult : factor::FactorResult {
  double growth = std::numeric_limits<double>::quiet_NaN();  ///< Numeric:
                                                             ///< max|U|/max|A|

  /// The residual in units of machine epsilon — ‖PA−LU‖ / (‖A‖·n·eps), the
  /// form the stability bounds (and the adversarial numerics suite) use.
  /// Populated with `residual` by numeric runs with cfg.verify.
  double residual_eps = std::numeric_limits<double>::quiet_NaN();

  /// Pivot-sequence summary (rows == 0 when not populated): how far from
  /// natural order the strategy pivoted, and the |U| diagonal extremes.
  /// Populated by numeric runs with cfg.verify.
  factor::PivotStats pivot_stats;

  /// Row permutation accompanying `factors` (the shared FactorResult
  /// member): the packed matrix holds L below the diagonal and U on/above
  /// it in permuted row order, with L*U = A[permutation, :]. Only
  /// populated by numeric runs with cfg.keep_factors (see lu/solve.hpp).
  std::vector<int> permutation;
};

/// The finish every LU driver ends in. `packed` holds L below the diagonal
/// and U on and above it, in pivot order: L*U = A[permutation, :]. Under
/// cfg.verify it fills residual, growth, residual_eps and pivot_stats; under
/// cfg.keep_factors it keeps `packed` and `permutation` in the result.
void finish_lu(LuResult& result, const linalg::Matrix& a, const LuConfig& cfg,
               linalg::Matrix packed, std::vector<int> permutation);

/// Interface implemented by all five LU algorithms.
class LuAlgorithm {
 public:
  virtual ~LuAlgorithm() = default;

  /// Factor `a` under `cfg`. In DryRun mode `a` is ignored (it may be
  /// null); in Numeric mode it must be N x N. In Numeric
  /// mode with cfg.verify, the result carries the scaled residual
  /// max|LU - PA| / (N max|A|).
  [[nodiscard]] virtual LuResult run(const linalg::Matrix* a,
                                     const LuConfig& cfg) = 0;
};

/// Instantiate an algorithm by table name: "COnfLUX", "LibSci", "SLATE",
/// "CANDMC", "CALU". Throws ContractViolation for unknown names.
[[nodiscard]] std::unique_ptr<LuAlgorithm> make_algorithm(
    const std::string& name);

/// Deterministic synthetic pivot choice for dry runs: pick `v` rows from the
/// not-yet-pivoted set by hashed order, which spreads pivots evenly across
/// tile rows (the "with high probability, pivots are evenly distributed"
/// assumption of §7.4). All ranks compute the same selection locally.
[[nodiscard]] std::vector<int> synthetic_pivots(
    const std::vector<std::uint8_t>& pivoted, int n, int v, int step,
    std::uint64_t seed);

}  // namespace conflux::lu
