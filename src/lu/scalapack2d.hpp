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

#include "grid/grid3d.hpp"
#include "lu/lu_common.hpp"

namespace conflux::lu {

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

  [[nodiscard]] std::string name() const override {
    return slate_ ? "SLATE" : "LibSci";
  }
  [[nodiscard]] LuResult run(const linalg::Matrix* a,
                             const LuConfig& cfg) override;

 private:
  bool slate_;
};

}  // namespace conflux::lu
