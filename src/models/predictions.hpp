/// \file predictions.hpp
/// Model-based comparisons: "reduction vs. second best" (Fig. 7) and
/// model-line crossovers (the paper's observation that CANDMC overtakes the
/// 2D libraries only beyond ~450k ranks).
#pragma once

#include <string>
#include <vector>

#include "models/cost_model.hpp"

namespace conflux::models {

/// One implementation's predicted or measured volume.
struct NamedVolume {
  std::string name;
  double total_bytes = 0;
};

/// The cheapest entry.
[[nodiscard]] NamedVolume best_of(const std::vector<NamedVolume>& entries);

/// The cheapest entry excluding `excluded` (Fig. 7's "second-best" is the
/// best non-COnfLUX implementation).
[[nodiscard]] NamedVolume best_excluding(
    const std::vector<NamedVolume>& entries, const std::string& excluded);

/// Fig. 7 cell: (second-best volume) / (COnfLUX volume), with the
/// second-best implementation's name ("L" = LibSci, "S" = SLATE,
/// "C" = CANDMC in the paper's annotation).
struct Reduction {
  double factor = 0;
  std::string second_best;
};
[[nodiscard]] Reduction reduction_vs_second_best(
    const std::vector<NamedVolume>& entries,
    const std::string& ours = "COnfLUX");

/// Evaluate all standard models at an instance. With `leading_only`, use
/// only the models' leading-order terms — the paper's convention for its
/// large-P extrapolations ("only the leading factors of the models are
/// shown", Fig. 6a).
[[nodiscard]] std::vector<NamedVolume> predict_all(const Instance& inst,
                                                   bool leading_only = false);

/// Smallest power-of-two P (scanned geometrically up to `p_max`) at which
/// `a` predicts less volume than `b` for matrix size n under the
/// max-replication memory rule; returns -1 if no crossover below p_max.
[[nodiscard]] double crossover_ranks(const CostModel& a, const CostModel& b,
                                     double n, double p_max);

}  // namespace conflux::models
