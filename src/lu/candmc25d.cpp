#include "lu/candmc25d.hpp"

#include <cmath>

#include "factor/core25d.hpp"
#include "grid/grid_opt.hpp"
#include "linalg/getrf.hpp"
#include "lu/scalapack2d.hpp"
#include "simnet/spmd.hpp"
#include "support/timer.hpp"

namespace conflux::lu {

LuResult Candmc25D::run(const linalg::Matrix* a, const LuConfig& cfg) {
  CONFLUX_EXPECTS(cfg.n >= 1 && cfg.p >= 1);
  CONFLUX_EXPECTS(cfg.mode == Mode::DryRun || a != nullptr);

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
  const int nb =
      grid::choose_block_size(cfg.n, 1, cfg.block > 0 ? cfg.block : 64);
  const int active = face.active() * c;

  linalg::Matrix gathered;
  std::vector<int> ipiv;
  const bool numeric = (cfg.mode == Mode::Numeric);
  const bool verify = numeric && cfg.verify;
  const bool gather = numeric && (cfg.verify || cfg.keep_factors);
  if (gather) gathered = linalg::Matrix(cfg.n, cfg.n);

  simnet::Network net(active, cfg.fabric);
  factor::attach_instruments(net, cfg);
  Stopwatch timer;
  simnet::run_spmd(net, [&](simnet::Comm& comm) {
    const int layer = comm.rank() / face.active();
    Scalapack2DParams params;
    params.n = cfg.n;
    params.nb = nb;
    params.g = face;
    params.base_rank = layer * face.active();
    params.numeric = numeric;
    params.seed = cfg.seed;  // identical pivots keep replicas coherent
    params.a = a;
    params.tel = cfg.telemetry;
    if (gather && layer == 0) {
      params.gathered = &gathered;
      params.ipiv_out = &ipiv;
    }
    scalapack2d_body(comm, params);
  });

  LuResult result;
  result.seconds = timer.seconds();
  factor::fill_comm_stats(result, net, active, cfg.p);
  result.grid = face.to_string() + " x " + std::to_string(c);
  result.block = nb;
  if (verify) {
    result.residual = linalg::lu_residual(*a, gathered.view(), ipiv);
    result.growth = linalg::growth_factor(*a, gathered.view());
    result.residual_eps = factor::residual_in_eps(result.residual);
    std::vector<double> u_diag(static_cast<std::size_t>(cfg.n));
    for (int i = 0; i < cfg.n; ++i)
      u_diag[static_cast<std::size_t>(i)] = gathered(i, i);
    result.pivot_stats = factor::pivot_stats(
        linalg::pivots_to_permutation(ipiv, cfg.n), u_diag);
  }
  if (numeric && cfg.keep_factors) {
    result.permutation = linalg::pivots_to_permutation(ipiv, cfg.n);
    result.factors = std::make_shared<linalg::Matrix>(std::move(gathered));
  }
  return result;
}

}  // namespace conflux::lu
