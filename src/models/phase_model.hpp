/// \file phase_model.hpp
/// Per-phase communication-volume predictions for the 2.5D LU engine
/// (COnfLUX and CALU), the analytic counterpart of ConfScope's measured
/// per-phase byte attribution. Where cost_model.hpp predicts one total per
/// implementation, this model splits the prediction along the same span
/// names the instrumented engine uses (support/telemetry.hpp), by summing
/// the engine's exact per-step message sizes on the grid and block size the
/// implementation itself would pick:
///
///   layer_reduction   steps 1 + 5 (cross-layer panel reductions)
///   panel_tournament  step 2 (butterfly or reduction-tree pivoting)
///   pivot_apply       step 3 (pivots + A00 broadcast to all ranks)
///   trsm              steps 4/7/9 — local compute, zero wire bytes
///   schur_update      steps 8 + 10 (layer-sliced panel multicasts)
///
/// The only approximation is the per-owner row split (assumed even, which
/// the hash-spread synthetic pivots guarantee to within one tile); every
/// other term replays the schedule's size arithmetic exactly, so measured
/// dry-run volumes land well inside the benchmarks' 1.1x model band.
#pragma once

#include <string>
#include <vector>

namespace conflux::models {

/// Predicted bytes on the wire (summed over ranks, self-sends excluded —
/// the fabric's accounting convention) for one phase.
struct PhaseVolume {
  std::string phase;  ///< telemetry span name
  double bytes = 0;
};

/// True for the algorithms predict_lu_phases covers ("COnfLUX", "CALU").
[[nodiscard]] bool has_phase_model(const std::string& algo);

/// Per-phase predicted volume of `algo` on N x N over P ranks with the
/// paper's default memory rule (M = N^2 / P^(2/3)). Entries appear in
/// engine step order; phases with zero predicted wire bytes (trsm) are
/// included so the measured/model table stays aligned with the spans.
[[nodiscard]] std::vector<PhaseVolume> predict_lu_phases(
    const std::string& algo, int n, int p);

}  // namespace conflux::models
