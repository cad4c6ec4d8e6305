/// \file block25d.hpp
/// The 2.5D masked-row LU engine: COnfLUX, the paper's
/// near-communication-optimal LU factorization (Algorithm 1), and CALU on
/// the same engine.
///
/// Algorithm 1 runs on a 2.5D decomposition [Px, Py, c] with:
///   - lazy panel reduction: trailing-matrix updates accumulate as per-layer
///     partial sums; only the next panel's column/row strips are summed
///     across layers each step (steps 1 and 5),
///   - row-masking tournament pivoting: pivot rows are never swapped, only
///     their indices travel (step 2/3),
///   - 1D panel layouts for the triangular solves (steps 4/6/7/9),
///   - layer-sliced panel multicast for the Schur update: each layer
///     receives only its v/c slice of A10 and A01 (steps 8/10).
/// Leading-order cost: N^3/(P sqrt M) elements per rank (Lemma 10), a factor
/// 1/3 above the lower bound of §6.
///
/// COnfLUX and CALU (Grigori, Demmel, Xiang; arXiv 0808.2664) differ in
/// exactly one place: the topology of the step-2 panel tournament that
/// selects the v pivot rows. The engine takes that topology as a
/// parameter, so the two backends diverge only where the paper and the
/// CALU line actually disagree. Both topologies apply the same
/// tournament_round merge in global row order, hence the same documented
/// growth bound of roughly 2^(n/b · (log2 Px + 1)) — attained only on
/// Wilkinson-type adversaries, like partial pivoting's 2^(n-1).
#pragma once

#include "lu/lu_common.hpp"

namespace conflux::lu {

/// Panel-tournament topology for step 2 of the 2.5D engine.
enum class PanelTournament {
  Butterfly,  ///< COnfLUX (§7.3): hypercube all-to-all exchange; every
              ///< participant finishes holding the winners.
              ///< ~Px log2(Px) messages per panel.
  Tree,       ///< CALU/TSLU (arXiv 0808.2664): binary reduction tree;
              ///< candidates funnel to participant 0, which alone holds the
              ///< winners until the step-3 pivot broadcast disseminates
              ///< them. Px - 1 messages per panel, so CALU's volume is
              ///< bounded by COnfLUX's on every grid.
};

/// COnfLUX (Butterfly) and, via the tournament, CALU (Tree). Numeric and
/// dry modes follow the FactorConfig contract of lu_common.hpp; dry runs
/// make the same calls with ghost payloads and synthetic pivots.
class Block25D final : public LuAlgorithm {
 public:
  explicit Block25D(PanelTournament tournament) : tournament_(tournament) {}

  [[nodiscard]] LuResult run(const linalg::Matrix* a,
                             const LuConfig& cfg) override;

 private:
  PanelTournament tournament_;
};

}  // namespace conflux::lu
