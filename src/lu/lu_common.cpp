#include "lu/lu_common.hpp"

#include <algorithm>

#include "linalg/getrf.hpp"
#include "lu/block25d.hpp"
#include "lu/candmc25d.hpp"
#include "lu/scalapack2d.hpp"
#include "support/random.hpp"

namespace conflux::lu {

void finish_lu(LuResult& result, const linalg::Matrix& a, const LuConfig& cfg,
               linalg::Matrix packed, std::vector<int> permutation) {
  if (cfg.verify) {
    result.residual = linalg::lu_residual(a, packed.view(), permutation);
    result.growth = linalg::growth_factor(a, packed.view());
    result.residual_eps = factor::residual_in_eps(result.residual);
    std::vector<double> u_diag(permutation.size());
    for (std::size_t i = 0; i < u_diag.size(); ++i)
      u_diag[i] = packed(static_cast<int>(i), static_cast<int>(i));
    result.pivot_stats = factor::pivot_stats(permutation, u_diag);
  }
  if (cfg.keep_factors) {
    result.factors = std::make_shared<linalg::Matrix>(std::move(packed));
    result.permutation = std::move(permutation);
  }
}

std::unique_ptr<LuAlgorithm> make_algorithm(const std::string& name) {
  if (name == "COnfLUX")
    return std::make_unique<Block25D>(PanelTournament::Butterfly);
  if (name == "LibSci") return std::make_unique<ScaLapack2D>(false);
  if (name == "SLATE") return std::make_unique<ScaLapack2D>(true);
  if (name == "CANDMC") return std::make_unique<Candmc25D>();
  if (name == "CALU") return std::make_unique<Block25D>(PanelTournament::Tree);
  CONFLUX_EXPECTS_MSG(false, "unknown LU algorithm '" << name << "'");
  return nullptr;  // unreachable
}

std::vector<int> synthetic_pivots(const std::vector<std::uint8_t>& pivoted,
                                  int n, int v, int step, std::uint64_t seed) {
  std::vector<std::pair<std::uint64_t, int>> ranked;
  ranked.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    if (pivoted[static_cast<std::size_t>(r)]) continue;
    ranked.emplace_back(
        splitmix64(seed ^ (static_cast<std::uint64_t>(step) << 32) ^
                   static_cast<std::uint64_t>(r) * 0x9E3779B97F4A7C15ULL),
        r);
  }
  CONFLUX_EXPECTS(static_cast<int>(ranked.size()) >= v);
  // Only the first v in (hash, row) order are kept, and the keys are
  // unique (distinct rows), so a partial sort picks the same rows.
  std::partial_sort(ranked.begin(), ranked.begin() + v, ranked.end());
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(v));
  for (int q = 0; q < v; ++q)
    out.push_back(ranked[static_cast<std::size_t>(q)].second);
  return out;
}

}  // namespace conflux::lu
