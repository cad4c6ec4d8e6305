#include "models/phase_model.hpp"

#include <algorithm>

#include "factor/core25d.hpp"
#include "support/assert.hpp"

namespace conflux::models {

namespace {

/// Candidate-pack size in bytes: 2 header doubles plus, per candidate row,
/// one row index and v values (linalg::pack_candidates layout, which the
/// engine's dry run replays byte-for-byte).
double pack_bytes(double count, int v) { return (2.0 + count * (1 + v)) * 8.0; }

/// Step-2 volume of one butterfly tournament over px owners whose panels
/// each hold `s0` candidate rows (saturated at v). Mirrors the engine's
/// fold-in + mask-doubling size recursion.
double butterfly_bytes(int px_count, double s0, int v) {
  std::vector<double> size_of(static_cast<std::size_t>(px_count), s0);
  const double cap = v;
  double bytes = 0;
  int fold = 1;
  while (fold * 2 <= px_count) fold *= 2;
  for (int q = fold; q < px_count; ++q)
    bytes += pack_bytes(size_of[static_cast<std::size_t>(q)], v);
  for (int q = 0; q + fold < px_count; ++q)
    size_of[static_cast<std::size_t>(q)] =
        std::min(cap, size_of[static_cast<std::size_t>(q)] +
                          size_of[static_cast<std::size_t>(q + fold)]);
  for (int mask = 1; mask < fold; mask <<= 1) {
    for (int q = 0; q < fold; ++q)
      bytes += pack_bytes(size_of[static_cast<std::size_t>(q)], v);
    std::vector<double> next = size_of;
    for (int q = 0; q < fold; ++q)
      next[static_cast<std::size_t>(q)] =
          std::min(cap, size_of[static_cast<std::size_t>(q)] +
                            size_of[static_cast<std::size_t>(q ^ mask)]);
    size_of = std::move(next);
  }
  return bytes;
}

/// Step-2 volume of one reduction-tree tournament (CALU): gap-doubling
/// rounds, every non-root owner sends exactly once, merged counts saturate
/// at v — the same schedule linalg::reduction_tree_schedule emits.
double tree_bytes(int px_count, double s0, int v) {
  std::vector<double> size_of(static_cast<std::size_t>(px_count), s0);
  const double cap = v;
  double bytes = 0;
  for (int gap = 1; gap < px_count; gap *= 2)
    for (int dst = 0; dst + gap < px_count; dst += 2 * gap) {
      const int src = dst + gap;
      bytes += pack_bytes(size_of[static_cast<std::size_t>(src)], v);
      size_of[static_cast<std::size_t>(dst)] =
          std::min(cap, size_of[static_cast<std::size_t>(dst)] +
                            size_of[static_cast<std::size_t>(src)]);
    }
  return bytes;
}

}  // namespace

bool has_phase_model(const std::string& algo) {
  return algo == "COnfLUX" || algo == "CALU";
}

std::vector<PhaseVolume> predict_lu_phases(const std::string& algo, int n,
                                           int p) {
  CONFLUX_EXPECTS(has_phase_model(algo));
  CONFLUX_EXPECTS(n >= 1 && p >= 1);

  // The grid and block size Block25D::run picks with a default config.
  factor::FactorConfig cfg;
  cfg.n = n;
  cfg.p = p;
  const factor::Plan25D plan =
      factor::resolve_plan25d(cfg, grid::conflux_cost_per_rank);
  const int v = plan.v;
  const int px = plan.g.px_extent();
  const int py = plan.g.py_extent();
  const int c = plan.g.layers();
  const double active = plan.active;
  const int steps = plan.steps;

  double reduce = 0, tournament = 0, pivot = 0, schur = 0;
  for (int t = 0; t < steps; ++t) {
    const double rem = n - static_cast<double>(t) * v;     // unpivoted rows
    const double rem2 = rem - v;                           // after this step
    const double tiles_left = steps - t - 1;               // trailing tile cols

    // Step 1: each non-reducing layer of the panel column ships its rows.
    reduce += 8.0 * rem * v * (c - 1);
    // Step 5: pivot-row partials from every (px, py, l) to the aggregators;
    // the aggregator's own contribution (1/px of the reducing layer's) is a
    // self-send the fabric does not meter.
    reduce += 8.0 * v * v * tiles_left * (c - 1.0 / px);

    // Step 2: one tournament over the px panel owners, candidate counts
    // saturated at v (even row split across owners).
    const double s0 = std::min(static_cast<double>(v), rem / px);
    tournament += algo == "CALU" ? tree_bytes(px, s0, v)
                                 : butterfly_bytes(px, s0, v);

    // Step 3: pivots (v ints) + A00 (v^2 doubles) to every other rank.
    pivot += (active - 1) * (8.0 * v * v + 4.0 * v);

    // Steps 8 + 10: layer-sliced A10/A01 multicasts; each side reaches
    // px (resp. py) recipients per layer and skips the 1/c self-slice.
    schur += 8.0 * rem2 * v * (py - 1.0 / c);
    schur += 8.0 * rem2 * v * (px - 1.0 / c);
  }

  return {{"layer_reduction", reduce},
          {"panel_tournament", tournament},
          {"pivot_apply", pivot},
          {"trsm", 0.0},
          {"schur_update", schur}};
}

}  // namespace conflux::models
