/// \file step_records.hpp
/// Out-of-band recording of per-step factors for verification, shared by
/// the LU and Cholesky factorization families.
///
/// The paper (and this reproduction) excludes result collection from the
/// measured communication volume; ranks therefore write their factor pieces
/// straight into pre-allocated shared buffers. Writes are disjoint by
/// construction (each row/column chunk has exactly one owner), and the
/// SPMD join synchronizes before the host reads them.
///
/// The same StepRecord shape serves both families:
///  - COnfLUX fills pivots/a00/a10/a01 (see assemble_factors);
///  - COnfCHOX, which never pivots and whose row panel is the transposed
///    column panel, fills only a00 (the v x v L00 block) and a10 (the
///    solved L10 rows); assemble_cholesky_factor ignores pivots/a01.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace conflux::factor {

/// Factors produced at outer-loop step t of a block algorithm with masked
/// rows (COnfLUX) or a fixed leading panel (COnfCHOX). Row-indexed by
/// *global* row id so concurrent writers stay disjoint.
struct StepRecord {
  std::vector<int> pivots;  ///< the v pivot rows chosen this step, in order
                            ///< (identity for the pivot-free Cholesky)
  linalg::Matrix a00;       ///< v x v packed factor of the pivot block:
                            ///< LU of A00 (COnfLUX) or lower L00 (COnfCHOX)
  linalg::Matrix a10;       ///< N x v; row r holds L[r, step-cols] if r was
                            ///< unpivoted (LU) / below the panel (Cholesky)
  linalg::Matrix a01;       ///< v x N; column c holds U[step-rows, c] for
                            ///< trailing columns (LU only)
};

/// Pre-sized record set for n / v steps. `with_a01` is false for the
/// Cholesky family, whose row panel is recovered from a10 by transposition.
[[nodiscard]] std::vector<StepRecord> make_step_records(int n, int v,
                                                        bool with_a01 = true);

/// Assemble the explicit LU factors from step records:
/// rows of L and U appear in pivot order (the row permutation), columns in
/// natural order, so that L * U == A[pivot_order, :].
struct AssembledFactors {
  std::vector<int> pivot_order;  ///< row permutation: position -> global row
  linalg::Matrix l;              ///< n x n unit lower triangular
  linalg::Matrix u;              ///< n x n upper triangular
};

[[nodiscard]] AssembledFactors assemble_factors(
    const std::vector<StepRecord>& records, int n, int v);

/// Assemble the lower-triangular Cholesky factor L (zeros above the
/// diagonal) from records whose a00 holds L00 and whose a10 rows hold the
/// solved L10 panels. Row order is natural (no pivoting).
[[nodiscard]] linalg::Matrix assemble_cholesky_factor(
    const std::vector<StepRecord>& records, int n, int v);

/// Scaled residual max|L*U - A[perm, :]| / (n * max|A|), through the fused
/// linalg::triangular_product_max_diff: 2/3 n^3 flops, no n x n product
/// or permuted copy built; NaN in a factor gives a NaN residual.
[[nodiscard]] double masked_lu_residual(const linalg::Matrix& a,
                                        const AssembledFactors& f);

/// Growth factor max|U| / max|A|; NaN when U holds a NaN.
[[nodiscard]] double masked_growth_factor(const linalg::Matrix& a,
                                          const AssembledFactors& f);

}  // namespace conflux::factor
