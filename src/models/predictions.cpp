#include "models/predictions.hpp"

#include <limits>

#include "support/assert.hpp"

namespace conflux::models {

NamedVolume best_of(const std::vector<NamedVolume>& entries) {
  CONFLUX_EXPECTS(!entries.empty());
  const NamedVolume* best = &entries.front();
  for (const auto& e : entries)
    if (e.total_bytes < best->total_bytes) best = &e;
  return *best;
}

NamedVolume best_excluding(const std::vector<NamedVolume>& entries,
                           const std::string& excluded) {
  NamedVolume best{"", std::numeric_limits<double>::infinity()};
  for (const auto& e : entries)
    if (e.name != excluded && e.total_bytes < best.total_bytes) best = e;
  CONFLUX_ENSURES(!best.name.empty());
  return best;
}

Reduction reduction_vs_second_best(const std::vector<NamedVolume>& entries,
                                   const std::string& ours) {
  double our_bytes = -1;
  for (const auto& e : entries)
    if (e.name == ours) our_bytes = e.total_bytes;
  CONFLUX_EXPECTS_MSG(our_bytes > 0, "entry '" << ours << "' missing");
  const NamedVolume second = best_excluding(entries, ours);
  return {second.total_bytes / our_bytes, second.name};
}

std::vector<NamedVolume> predict_all(const Instance& inst,
                                     bool leading_only) {
  std::vector<NamedVolume> out;
  for (const auto& model : standard_models()) {
    const double bytes =
        leading_only
            ? model->leading_elements_per_rank(inst) * inst.p * 8.0
            : model->total_bytes(inst);
    out.push_back({model->name(), bytes});
  }
  return out;
}

double crossover_ranks(const CostModel& a, const CostModel& b, double n,
                       double p_max) {
  for (double p = 4; p <= p_max; p *= 2) {
    const Instance inst = max_replication_instance(n, p);
    if (a.total_bytes(inst) < b.total_bytes(inst)) return p;
  }
  return -1;
}

}  // namespace conflux::models
