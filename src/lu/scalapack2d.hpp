/// \file scalapack2d.hpp
/// The 2D comparison targets of §8: a right-looking block-cyclic LU with
/// partial pivoting, the textbook ScaLAPACK pdgetrf schedule that both Cray
/// LibSci and SLATE implement (Table 2 classifies both as 2D with leading
/// cost N^2/sqrt(P) per rank). The two proxies differ exactly where the
/// real libraries differ for communication purposes:
///   - LibSci: greedy divisor grid over ALL ranks (1 x P at primes — the
///     outlier behaviour in Fig. 6a's inset), default block 64;
///   - SLATE: near-square grid that may idle a few ranks, default block 16.
#pragma once

#include <span>
#include <vector>

#include "grid/block_cyclic.hpp"
#include "grid/grid3d.hpp"
#include "lu/lu_common.hpp"

namespace conflux::lu {

/// One row move of a pdlaswp step: the row at original position `src` ends
/// at position `pos`; `osrc` and `odst` are the process rows owning them.
struct RowMove {
  int osrc = 0, odst = 0, src = 0, pos = 0;
  friend bool operator==(const RowMove&, const RowMove&) = default;
};

/// Buffers pdlaswp_moves reuses from step to step, so a step allocates
/// nothing once they have grown to the panel width.
struct PdlaswpScratch {
  std::vector<RowMove> panel;  ///< slot i: position k0 + i
  std::vector<RowMove> below;  ///< touched positions >= k0 + kb
  std::vector<int> table;      ///< open-addressed index into `below`
  std::vector<RowMove> moves;  ///< the returned view
};

/// The pdlaswp plan of one panel step as process row `pr` sees it. `piv[i]`
/// is the row swapped with row k0 + i, applied in order (k0 + i <= piv[i] <
/// rowmap.extent()). The swaps compose into a permutation of the touched
/// positions in O(kb): a position's slot holds the original row that ends
/// there. Returned are the moves (src != pos) whose source or destination
/// owner is `pr`, sorted by (osrc, odst, pos), so each (osrc -> odst) group
/// is contiguous and lists its rows in ascending position on sender and
/// receiver alike. The view is valid until the next call on `scratch`.
[[nodiscard]] std::span<const RowMove> pdlaswp_moves(
    std::span<const int> piv, int k0, const grid::BlockCyclic1D& rowmap,
    int pr, PdlaswpScratch& scratch);

/// The one 2D LU driver: `layers` replicated copies of the right-looking
/// pdgetrf schedule, one per face of `face.active()` ranks (face l holds
/// global ranks l * face.active() + face.rank_of(pr, pc)). Every face runs
/// the same pivots, so the replicas stay coherent, and face 0 hands back
/// the factors. LibSci and SLATE run one face, CANDMC c; `grid_label` is
/// the result's grid string.
[[nodiscard]] LuResult run_2d_faces(const linalg::Matrix* a,
                                    const LuConfig& cfg,
                                    const grid::Grid2D& face, int nb,
                                    int layers, std::string grid_label);

/// LibSci proxy (and, via `slate_mode`, the SLATE proxy).
class ScaLapack2D : public LuAlgorithm {
 public:
  explicit ScaLapack2D(bool slate_mode = false) : slate_(slate_mode) {}

  [[nodiscard]] LuResult run(const linalg::Matrix* a,
                             const LuConfig& cfg) override;

 private:
  bool slate_;
};

}  // namespace conflux::lu
