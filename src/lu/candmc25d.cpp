#include "lu/candmc25d.hpp"

#include <cmath>

#include "factor/core25d.hpp"
#include "grid/grid_opt.hpp"
#include "lu/scalapack2d.hpp"

namespace conflux::lu {

LuResult Candmc25D::run(const linalg::Matrix* a, const LuConfig& cfg) {
  CONFLUX_EXPECTS(cfg.n >= 1 && cfg.p >= 1);

  const double mem = factor::memory_budget(cfg);
  // Replication depth: memory-limited, capped at the 2.5D optimum P^(1/3)
  // and at 4 — CANDMC's own tuning keeps replication modest at the node
  // counts the paper measures (its measured/modeled ratio in Table 2 is
  // consistent with c = 4 at P = 1024).
  int c = cfg.force_layers > 0
              ? cfg.force_layers
              : static_cast<int>(std::lround(
                    cfg.p * mem / (static_cast<double>(cfg.n) * cfg.n)));
  c = std::clamp(c, 1,
                 std::max(1, static_cast<int>(std::floor(
                                 std::cbrt(static_cast<double>(cfg.p))))));
  if (cfg.force_layers <= 0) c = std::min(c, 4);

  const int front = std::max(1, cfg.p / c);
  const grid::Grid2D face = grid::choose_grid_2d_near_square(front);
  return run_2d_faces(
      a, cfg, face,
      grid::choose_block_size(cfg.n, 1, cfg.block > 0 ? cfg.block : 64), c,
      face.to_string() + " x " + std::to_string(c));
}

}  // namespace conflux::lu
