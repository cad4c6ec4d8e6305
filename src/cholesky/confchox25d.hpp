/// \file confchox25d.hpp
/// COnfCHOX — the near-communication-optimal 2.5D Cholesky factorization of
/// the journal extension (arXiv:2108.09337), built on the same 2.5D tile
/// core as COnfLUX (factor/core25d.hpp) minus everything pivoting required:
///   - lazy panel reduction: trailing-matrix updates accumulate as
///     per-layer partial sums; only the next panel's column strip is summed
///     across layers each step (Cholesky has no row-panel reduce — the row
///     panel IS the transposed column panel),
///   - no pivoting: SPD inputs make the natural diagonal pivots stable, so
///     the tournament and pivot broadcasts of COnfLUX disappear and the
///     schedule is fully deterministic,
///   - layer-sliced panel multicast for the symmetric Schur update
///     A11 -= L10 * L10^T: each layer receives only its v/c k-slice of the
///     solved panel, once along process rows and once (transposed) along
///     process columns.
/// Leading-order cost: N^3/(P sqrt M) elements per rank on the same
/// [Px, Py, c] grids as COnfLUX, against the Cholesky lower bound
/// N^3/(3 P sqrt M) of the DAAP analysis (daap/kernels.hpp).
#pragma once

#include "cholesky/cholesky_common.hpp"

namespace conflux::cholesky {

class Confchox25D final : public CholeskyAlgorithm {
 public:
  [[nodiscard]] CholResult run(const linalg::Matrix* a,
                               const CholConfig& cfg) override;
};

}  // namespace conflux::cholesky
