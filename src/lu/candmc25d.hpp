/// \file candmc25d.hpp
/// CANDMC comparison proxy. The real library implements Solomonik &
/// Demmel's 2.5D LU with an asymptotically optimal model of 5 N^3/(P sqrt M)
/// [56], but the paper's measurements (Fig. 6a, Table 2) show it moving
/// 2-4x MORE data than the 2D libraries at every measured scale — large
/// constants from replication traffic dominate until several hundred
/// thousand ranks.
///
/// This proxy reproduces that measured behaviour mechanically: the matrix is
/// replicated across c = min(P*M/N^2, P^(1/3)) layers, each layer executes
/// the full 2D right-looking schedule on its P/c-rank face (redundant
/// compute keeps replicas coherent, as 2.5D schedules do between their
/// reduction points), and row interchanges are physical — every layer pays
/// them. Per-rank volume is therefore ~ N^2 sqrt(c/P): a factor sqrt(c)
/// above the 2D libraries, matching the paper's measured ratios. The
/// *model* line for CANDMC in tables/figures uses the authors' published
/// cost, exactly as the paper does (models::CandmcModel).
#pragma once

#include "lu/lu_common.hpp"

namespace conflux::lu {

class Candmc25D final : public LuAlgorithm {
 public:
  [[nodiscard]] LuResult run(const linalg::Matrix* a,
                             const LuConfig& cfg) override;
};

}  // namespace conflux::lu
