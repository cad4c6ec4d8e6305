/// \file scalapack2d_chol.hpp
/// ScaLAPACK-style 2D block-cyclic Cholesky (pdpotrf): the comparison
/// baseline for COnfCHOX, mirroring how lu/scalapack2d.hpp serves COnfLUX.
/// Right-looking elimination on a Pr x Pc grid chosen greedily over all
/// ranks (the LibSci chooser):
///   - the diagonal-block owner factors A00 = L00 L00^T locally and
///     broadcasts L00 down its process column,
///   - the panel column solves L10 := A10 * L00^{-T},
///   - the L panel is broadcast along process rows, then transposed into
///     the process columns (each column's owner re-broadcasts the rows that
///     are that column's trailing indices — pdpotrf's transpose step),
///   - every rank updates its local trailing block A11 -= L10 * L10^T.
/// Leading cost N^2/2 (1/Pr + 1/Pc) elements per rank — no memory-for-
/// communication trade-off, hence strictly more traffic than COnfCHOX
/// whenever replication depth c > 1 is available.
#pragma once

#include "cholesky/cholesky_common.hpp"

namespace conflux::cholesky {

class Scalapack2DCholesky final : public CholeskyAlgorithm {
 public:
  [[nodiscard]] CholResult run(const linalg::Matrix* a,
                               const CholConfig& cfg) override;
};

}  // namespace conflux::cholesky
