/// \file block25d.hpp
/// The shared 2.5D masked-row LU engine behind COnfLUX and CALU.
///
/// Both backends run the identical Algorithm-1 step structure — lazy panel
/// reduction across layers, row-masking pivoting (rows never move, only
/// their indices travel), 1D panel layouts for the triangular solves, and
/// layer-sliced panel multicasts for the Schur update. They differ in
/// exactly one place: the topology of the step-2 panel tournament that
/// selects the v pivot rows. The engine takes that topology as a parameter,
/// so the two backends are guaranteed to diverge only where the paper
/// and the CALU line (arXiv 0808.2664) actually disagree.
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
              ///< them. Px - 1 messages per panel.
};

/// Run the 2.5D engine with the given tournament topology. Numeric and dry
/// modes follow the FactorConfig contract of lu_common.hpp; dry runs make
/// the numeric run's calls with ghost payloads and synthetic pivots.
[[nodiscard]] LuResult run_block25d(const linalg::Matrix* a,
                                    const LuConfig& cfg,
                                    PanelTournament tournament);

}  // namespace conflux::lu
