#include "cholesky/scalapack2d_chol.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "factor/layout2d.hpp"
#include "grid/grid_opt.hpp"
#include "linalg/blas.hpp"
#include "linalg/potrf.hpp"
#include "simnet/collectives.hpp"
#include "simnet/spmd.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"

namespace conflux::cholesky {

namespace {

using grid::Grid2D;
using linalg::Matrix;
using simnet::Comm;
using simnet::Group;
using simnet::make_tag;

struct BodyParams {
  int n = 0;
  int nb = 0;
  Grid2D g{1, 1};
  const Matrix* input = nullptr;  ///< factor::run_input: null in a dry run
  Matrix* gathered = nullptr;  ///< out-of-band factor collection (verify)
  std::atomic<bool>* not_spd = nullptr;
  telemetry::TelemetryBoard* tel = nullptr;  ///< ConfScope spans (optional)
};

void cholesky2d_body(Comm& comm, const BodyParams& params) {
  const int n = params.n;
  const int nb = params.nb;
  const Grid2D& g = params.g;
  CONFLUX_EXPECTS(n % nb == 0);
  const int me_rank = comm.rank();

  // Only the lower triangle is factored: the entries above the diagonal
  // are loaded and updated but never read back.
  factor::Local2D me(n, nb, g, comm.rank(), params.input);

  // Every collective below runs over my own process row or column (the
  // diagonal broadcast runs only where me.pc == pck), so both groups are
  // built once, not per step.
  const Group my_row = factor::row_group(g, me.pr, 0);
  const Group my_col = factor::col_group(g, me.pc, 0);

  const int steps = n / nb;
  for (int s = 0; s < steps; ++s) {
    const int k0 = s * nb;
    const int pck = me.colmap.owner_of(k0);
    const int prk = me.rowmap.owner_of(k0);
    const std::uint32_t ts = static_cast<std::uint32_t>(s);

    // ---- Diagonal block: factor and broadcast L00 down the column -------
    Matrix l00;  // empty off the panel column and for a ghost
    if (me.pc == pck) {
      const telemetry::ScopedSpan span(params.tel, me_rank,
                                       telemetry::kPanelFactor, s);
      const std::size_t count = static_cast<std::size_t>(nb) * nb;
      std::vector<double> buf;
      if (me.holds_input() && me.pr == prk) {
        buf.assign(count, 0.0);
        linalg::MatrixView a00 =
            me.loc.block(me.lrow(k0), me.lcol(k0), nb, nb);
        if (linalg::potrf_unblocked(a00) != linalg::FactorStatus::Ok)
          params.not_spd->store(true, std::memory_order_relaxed);
        for (int i = 0; i < nb; ++i)
          for (int j = 0; j <= i; ++j)
            buf[static_cast<std::size_t>(i) * nb + j] = a00(i, j);
      }
      l00 = simnet::matrix_or_empty(
          simnet::bcast(comm, my_col, prk,
                        simnet::payload_or_ghost(std::move(buf)),
                        count * sizeof(double), make_tag(20, ts, 0)),
          nb, nb);
    }

    // ---- Panel solve: L10 := A10 * L00^{-T} on the panel column ---------
    const int mrow0 = me.lrow_lower_bound(k0 + nb);
    const int mtrail = static_cast<int>(me.my_rows.size()) - mrow0;
    if (!l00.empty() && mtrail > 0) {
      const telemetry::ScopedSpan span(params.tel, me_rank,
                                       telemetry::kTrsm, s);
      linalg::trsm_right_lower_transposed(
          l00.view(), me.loc.block(mrow0, me.lcol(k0), mtrail, nb));
    }

    // ---- Broadcast the L panel along process rows -----------------------
    Matrix lpanel;  // mtrail x nb, rows ascending global (>= k0 + nb)
    {
      const telemetry::ScopedSpan span(params.tel, me_rank,
                                       telemetry::kSchurUpdate, s);
      const std::size_t count = static_cast<std::size_t>(mtrail) * nb;
      std::vector<double> buf;
      if (me.holds_input() && me.pc == pck) {
        buf.resize(count);
        for (int il = 0; il < mtrail; ++il)
          for (int q = 0; q < nb; ++q)
            buf[static_cast<std::size_t>(il) * nb + q] =
                me.loc(mrow0 + il, me.lcol(k0) + q);
      }
      lpanel = simnet::matrix_or_empty(
          simnet::bcast(comm, my_row, pck,
                        simnet::payload_or_ghost(std::move(buf)),
                        count * sizeof(double), make_tag(24, ts, 0)),
          mtrail, nb);
    }

    // ---- Transpose: re-broadcast rows into their process columns --------
    // Rank (pr, pc) now holds the L10 rows owned by pr. Each trailing
    // column c2 of process column pc needs row c2 of L10; its holder
    // within the column group is process row rowmap.owner_of(c2). One
    // broadcast per contributing process row (pdpotrf's transpose step).
    const int ncol0 = me.lcol_lower_bound(k0 + nb);
    const int ntrail = static_cast<int>(me.my_cols.size()) - ncol0;
    Matrix colpanel;  // nb x ntrail: colpanel(k, jc) = L10(col_jc, k)
    if (me.holds_input() && ntrail > 0) colpanel = Matrix(nb, ntrail);
    {
      const telemetry::ScopedSpan span(params.tel, me_rank,
                                       telemetry::kSchurUpdate, s);
      for (int pr = 0; pr < g.rows(); ++pr) {
        // Trailing columns of this process column whose L10 row lives on
        // process row pr — identical index arithmetic on every rank.
        std::vector<int> rows_pr;
        for (std::size_t jc = static_cast<std::size_t>(ncol0);
             jc < me.my_cols.size(); ++jc) {
          const int c2 = me.my_cols[jc];
          if (me.rowmap.owner_of(c2) == pr) rows_pr.push_back(c2);
        }
        if (rows_pr.empty()) continue;
        const std::size_t count =
            rows_pr.size() * static_cast<std::size_t>(nb);
        std::vector<double> buf;
        if (!lpanel.empty() && me.pr == pr) {
          buf.reserve(count);
          for (int c2 : rows_pr) {
            auto row = lpanel.row(me.lrow(c2) - mrow0);
            buf.insert(buf.end(), row.begin(), row.end());
          }
        }
        const simnet::BufferView got = simnet::bcast(
            comm, my_col, pr, simnet::payload_or_ghost(std::move(buf)),
            count * sizeof(double),
            make_tag(25, ts, static_cast<std::uint32_t>(pr)));
        if (got.empty()) continue;  // a ghost: nothing to place
        const double* in = got.data();
        for (int c2 : rows_pr) {
          const int jc = me.lcol(c2) - ncol0;
          for (int q = 0; q < nb; ++q) colpanel(q, jc) = *in++;
        }
      }
    }

    // ---- Local trailing update A11 -= L10 * L10^T -----------------------
    if (!lpanel.empty() && !colpanel.empty()) {
      const telemetry::ScopedSpan span(params.tel, me_rank,
                                       telemetry::kSchurUpdate, s);
      linalg::schur_update(me.loc.block(mrow0, ncol0, mtrail, ntrail),
                           lpanel.view(), colpanel.view());
    }
  }

  // ---- Out-of-band result collection (not part of measured volume) -----
  if (params.gathered != nullptr)
    me.gather_into(*params.gathered, /*lower_only=*/true);
}

}  // namespace

CholResult Scalapack2DCholesky::run(const linalg::Matrix* a,
                                    const CholConfig& cfg) {
  CONFLUX_EXPECTS(cfg.n >= 1 && cfg.p >= 1);
  const Grid2D g = grid::choose_grid_2d_all_ranks(cfg.p);
  const int nb =
      grid::choose_block_size(cfg.n, 1, cfg.block > 0 ? cfg.block : 64);

  BodyParams params;
  params.n = cfg.n;
  params.nb = nb;
  params.g = g;
  params.input = factor::run_input(cfg, a);
  params.tel = cfg.telemetry;
  std::atomic<bool> not_spd{false};
  params.not_spd = &not_spd;

  Matrix gathered;
  const bool gather =
      params.input != nullptr && (cfg.verify || cfg.keep_factors);
  if (gather) {
    gathered = Matrix(cfg.n, cfg.n);
    params.gathered = &gathered;
  }

  simnet::Network net(g.active(), cfg.fabric);
  factor::attach_instruments(net, cfg);
  Stopwatch timer;
  simnet::run_spmd(net,
                   [&](simnet::Comm& comm) { cholesky2d_body(comm, params); });

  CholResult result;
  result.seconds = timer.seconds();
  factor::fill_comm_stats(result, net, g.active(), cfg.p);
  result.grid = g.to_string();
  result.block = nb;
  result.spd = !not_spd.load(std::memory_order_relaxed);
  if (gather) finish_cholesky(result, *params.input, cfg, std::move(gathered));
  return result;
}

}  // namespace conflux::cholesky
