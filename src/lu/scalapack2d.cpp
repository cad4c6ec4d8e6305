#include "lu/scalapack2d.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "factor/layout2d.hpp"
#include "grid/grid_opt.hpp"
#include "linalg/blas.hpp"
#include "linalg/getrf.hpp"
#include "simnet/collectives.hpp"
#include "simnet/spmd.hpp"
#include "support/random.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"

namespace conflux::lu {

std::span<const RowMove> pdlaswp_moves(std::span<const int> piv, int k0,
                                       const grid::BlockCyclic1D& rowmap,
                                       int pr, PdlaswpScratch& scratch) {
  const int kb = static_cast<int>(piv.size());
  const int hi = k0 + kb;
  const int np = rowmap.owners();
  CONFLUX_EXPECTS(k0 >= 0 && hi <= rowmap.extent());
  CONFLUX_EXPECTS(np < (1 << 16));  // (osrc, odst) packs into 32 bits

  // Panel slots, with owners walked tile by tile (no division per row).
  auto& panel = scratch.panel;
  panel.resize(static_cast<std::size_t>(kb));
  int owner = kb > 0 ? rowmap.owner_of(k0) : 0;
  int next_tile = (k0 / rowmap.block() + 1) * rowmap.block();
  for (int i = 0; i < kb; ++i) {
    const int pos = k0 + i;
    if (pos == next_tile) {
      next_tile += rowmap.block();
      if (++owner == np) owner = 0;
    }
    panel[static_cast<std::size_t>(i)] = {owner, owner, pos, pos};
  }

  // At most kb rows below the panel are touched: linear probing over a
  // power-of-two table at least twice that size, Fibonacci-hashed.
  auto& below = scratch.below;
  auto& table = scratch.table;
  below.clear();
  below.reserve(static_cast<std::size_t>(kb));
  const unsigned cap =
      std::bit_ceil(std::max(2u * static_cast<unsigned>(kb), 2u));
  const int shift = 32 - std::countr_zero(cap);
  table.assign(cap, -1);
  auto below_slot = [&](int row) -> RowMove& {
    unsigned h = (static_cast<std::uint32_t>(row) * 0x9E3779B1u) >> shift;
    for (;; h = (h + 1) & (cap - 1)) {
      int& e = table[h];
      if (e < 0) {
        e = static_cast<int>(below.size());
        const int o = rowmap.owner_of(row);
        below.push_back({o, o, row, row});
        return below.back();
      }
      if (below[static_cast<std::size_t>(e)].pos == row)
        return below[static_cast<std::size_t>(e)];
    }
  };

  // Apply the swaps to the slots' contents (the row and its owner).
  for (int i = 0; i < kb; ++i) {
    const int j = k0 + i;
    const int p = piv[static_cast<std::size_t>(i)];
    CONFLUX_EXPECTS(p >= j && p < rowmap.extent());
    if (p == j) continue;
    RowMove& a = panel[static_cast<std::size_t>(i)];
    RowMove& b = p < hi ? panel[static_cast<std::size_t>(p - k0)]
                        : below_slot(p);
    std::swap(a.src, b.src);
    std::swap(a.osrc, b.osrc);
  }

  // Keep my process row's moves, grouped by one sort over packed keys.
  auto& moves = scratch.moves;
  moves.clear();
  moves.reserve(2 * static_cast<std::size_t>(kb));
  auto keep = [&](const RowMove& m) {
    if (m.src != m.pos && (m.osrc == pr || m.odst == pr)) moves.push_back(m);
  };
  for (const RowMove& m : panel) keep(m);
  for (const RowMove& m : below) keep(m);
  auto key = [np](const RowMove& m) {
    const std::uint64_t pair = static_cast<std::uint64_t>(m.osrc) *
                                   static_cast<std::uint64_t>(np) +
                               static_cast<std::uint64_t>(m.odst);
    return (pair << 32) | static_cast<std::uint32_t>(m.pos);
  };
  std::sort(moves.begin(), moves.end(),
            [&](const RowMove& a, const RowMove& b) { return key(a) < key(b); });
  return moves;
}

namespace {

using grid::Grid2D;
using linalg::Matrix;
using simnet::Comm;
using simnet::Group;
using simnet::make_tag;
using simnet::Tag;

std::uint64_t swap_hash(std::uint64_t seed, int col) {
  return splitmix64(seed ^ 0xC0FFEEULL ^
                    static_cast<std::uint64_t>(col) * 0x9E3779B97F4A7C15ULL);
}

/// One face's share of a run_2d_faces job. `base_rank` maps the (pr, pc)
/// grid onto global ranks base_rank + pr + Pr * pc. On an input,
/// `gathered`/`ipiv_out` (when non-null) receive the factored matrix and
/// the pivot sequence via disjoint out-of-band writes (result collection
/// is not part of the measured volume).
struct Scalapack2DParams {
  int n = 0;
  int nb = 0;
  grid::Grid2D g{1, 1};
  int base_rank = 0;
  std::uint64_t seed = 42;
  const linalg::Matrix* input = nullptr;  ///< factor::run_input (dry: null)
  linalg::Matrix* gathered = nullptr;
  std::vector<int>* ipiv_out = nullptr;
  telemetry::TelemetryBoard* tel = nullptr;  ///< ConfScope spans (optional)
};

void scalapack2d_body(Comm& comm, const Scalapack2DParams& params) {
  const int n = params.n;
  const int nb = params.nb;
  const Grid2D& g = params.g;
  CONFLUX_EXPECTS(n % nb == 0);
  const int me_rank = comm.rank();

  const int local_id = comm.rank() - params.base_rank;
  CONFLUX_EXPECTS(local_id >= 0 && local_id < g.active());
  factor::Local2D me(n, nb, g, local_id, params.input);

  auto rank_of = [&](int pr, int pc) {
    return params.base_rank + g.rank_of(pr, pc);
  };
  // Every collective below runs over my own process row or column (the
  // panel's column group is used only when me.pc == pck), so both groups
  // are built once, not per step.
  const Group my_row = factor::row_group(g, me.pr, params.base_rank);
  const Group my_col = factor::col_group(g, me.pc, params.base_rank);

  std::vector<int> ipiv(static_cast<std::size_t>(n), -1);
  const int steps = n / nb;
  PdlaswpScratch plan;         // pdlaswp buffers, reused every step
  std::vector<double> staged;  // my local moves' rows

  for (int s = 0; s < steps; ++s) {
    const int k0 = s * nb;
    const int kb = nb;
    const int pck = me.colmap.owner_of(k0);
    const int prk = me.rowmap.owner_of(k0);
    const std::uint32_t ts = static_cast<std::uint32_t>(s);

    // ---- Panel factorization (process column pck) ----------------------
    if (me.holds_input()) {
      if (me.pc == pck) {
        const telemetry::ScopedSpan span(params.tel, me_rank,
                                         telemetry::kPanelTournament, s);
        // The kb panel columns are one block, so their local columns are
        // jl0 .. jl0 + kb - 1: each panel row is kb contiguous entries.
        const int jl0 = me.lcol(k0);
        CONFLUX_ASSERT(me.lcol(k0 + kb - 1) == jl0 + kb - 1);
        auto panel_row = [&](int il) { return &me.loc(il, jl0); };
        std::vector<double> prod(static_cast<std::size_t>(kb));
        for (int j = k0; j < k0 + kb; ++j) {
          const int jj = j - k0;
          const std::uint32_t js = static_cast<std::uint32_t>(jj);
          // Local pivot search in column j, rows >= j.
          simnet::MaxLoc mine;
          for (int il = me.lrow_lower_bound(j);
               il < static_cast<int>(me.my_rows.size()); ++il) {
            const double val = std::abs(panel_row(il)[jj]);
            if (val > mine.value) {
              mine.value = val;
              mine.location = me.my_rows[static_cast<std::size_t>(il)];
            }
          }
          const simnet::MaxLoc win = simnet::allreduce_maxloc(
              comm, my_col, mine, make_tag(20, ts, js));
          const int piv = win.location >= 0 ? win.location : j;
          ipiv[static_cast<std::size_t>(j)] = piv;

          // Swap rows j <-> piv within the panel columns.
          if (piv != j) {
            const int o1 = me.rowmap.owner_of(j);
            const int o2 = me.rowmap.owner_of(piv);
            if (o1 == o2) {
              if (me.pr == o1) {
                double* r1 = panel_row(me.lrow(j));
                std::swap_ranges(r1, r1 + kb, panel_row(me.lrow(piv)));
              }
            } else if (me.pr == o1 || me.pr == o2) {
              const int other = rank_of(me.pr == o1 ? o2 : o1, pck);
              double* row = panel_row(me.lrow(me.pr == o1 ? j : piv));
              const std::vector<double> theirs =
                  comm.exchange(other, make_tag(21, ts, js),
                                {row, static_cast<std::size_t>(kb)});
              std::copy(theirs.begin(), theirs.end(), row);
            }
          }

          // Broadcast the (swapped-in) pivot row segment [j .. k0+kb).
          std::vector<double> seg(static_cast<std::size_t>(kb - jj));
          const int powner = me.rowmap.owner_of(j);
          if (me.pr == powner) {
            const double* r = panel_row(me.lrow(j)) + jj;
            std::copy(r, r + (kb - jj), seg.begin());
          }
          simnet::bcast(comm, my_col, powner, seg, make_tag(22, ts, js));

          // Scale column j below the diagonal and rank-1 update the panel.
          // Each product is rounded before it is subtracted: the products
          // go into `prod` first and a second loop subtracts them. A single
          // `row[q] -= lij * seg[q]` loop is contracted into fused
          // multiply-adds and rounds differently.
          const double diag = seg[0];
          const double inv = diag != 0.0 ? 1.0 / diag : 0.0;
          const int rest = kb - jj - 1;
          for (int il = me.lrow_lower_bound(j + 1);
               il < static_cast<int>(me.my_rows.size()); ++il) {
            double* row = panel_row(il) + jj;
            row[0] *= inv;
            const double lij = row[0];
            for (int q = 0; q < rest; ++q)
              prod[static_cast<std::size_t>(q)] =
                  lij * seg[static_cast<std::size_t>(q + 1)];
            for (int q = 0; q < rest; ++q)
              row[q + 1] -= prod[static_cast<std::size_t>(q)];
          }
        }
      }
    } else {
      // Dry run: synthetic pivots spread over the remaining rows. This is
      // the one place a dry schedule is not the numeric one: numeric
      // pivots depend on values. The kb
      // per-column max-loc allreduces, swap exchanges and pivot-row
      // broadcasts fold into three ghost collectives per panel (plus the
      // swaps): the same bytes, about kb times fewer messages. Measured at
      // N = 8192, P = 512 on the Piz Daint link, the faithful per-column
      // schedule raises LibSci from 323,032 messages / 20.1 ms predicted to
      // 685,912 / 96.6 ms, SLATE from 1,046,772 / 22.4 ms to
      // 1,530,612 / 94.4 ms and CANDMC from 350,992 / 30.4 ms to
      // 1,318,672 / 87.2 ms. So the 2D baselines' predicted makespans are
      // under-priced here, and COnfLUX's makespan advantage over them with
      // it (docs/ARCHITECTURE.md, "The execution model").
      const telemetry::ScopedSpan span(params.tel, me_rank,
                                       telemetry::kPanelTournament, s);
      for (int j = k0; j < k0 + kb; ++j)
        ipiv[static_cast<std::size_t>(j)] =
            j + static_cast<int>(swap_hash(params.seed, j) %
                                 static_cast<std::uint64_t>(n - j));
      if (me.pc == pck) {
        const std::size_t pair_bytes =
            static_cast<std::size_t>(kb) * (sizeof(double) + sizeof(int));
        simnet::reduce_ghost(comm, my_col, 0, pair_bytes, make_tag(20, ts, 0));
        (void)simnet::bcast(comm, my_col, 0, nullptr, pair_bytes,
                            make_tag(20, ts, 1));
        // Pivot-row segments: sum over columns of (kb - jj) doubles.
        const std::size_t seg_doubles =
            static_cast<std::size_t>(kb) * (kb + 1) / 2;
        (void)simnet::bcast(comm, my_col, 0, nullptr,
                            seg_doubles * sizeof(double), make_tag(22, ts, 0));
        // Panel-width swap exchanges.
        for (int j = k0; j < k0 + kb; ++j) {
          const int piv = ipiv[static_cast<std::size_t>(j)];
          if (piv == j) continue;
          const int o1 = me.rowmap.owner_of(j);
          const int o2 = me.rowmap.owner_of(piv);
          if (o1 == o2) continue;
          const std::uint32_t js = static_cast<std::uint32_t>(j - k0);
          if (me.pr == o1 || me.pr == o2) {
            const int other = rank_of(me.pr == o1 ? o2 : o1, pck);
            comm.send_ghost(other, make_tag(21, ts, js),
                            static_cast<std::size_t>(kb) * sizeof(double));
            (void)comm.recv_ghost(other, make_tag(21, ts, js));
          }
        }
      }
    }

    // ---- Share the panel's pivot indices along process rows -------------
    // (part of pdgetrf's panel broadcast; pdlaswp needs ipiv everywhere).
    {
      const telemetry::ScopedSpan span(params.tel, me_rank,
                                       telemetry::kPivotApply, s);
      std::vector<double> packed;
      if (me.holds_input() && me.pc == pck)
        packed = simnet::pack_ints(
            std::span<const int>(ipiv).subspan(static_cast<std::size_t>(k0),
                                               static_cast<std::size_t>(kb)));
      const simnet::BufferView got = simnet::bcast(
          comm, my_row, pck, simnet::payload_or_ghost(std::move(packed)),
          static_cast<std::size_t>(kb) * sizeof(int), make_tag(26, ts, 0));
      if (!got.empty()) {
        const std::vector<int> piv_step =
            simnet::unpack_ints(got, static_cast<std::size_t>(kb));
        std::copy(piv_step.begin(), piv_step.end(), ipiv.begin() + k0);
      }
    }

    // ---- Batched row interchanges outside the panel (pdlaswp) ----------
    {
      const telemetry::ScopedSpan span(params.tel, me_rank,
                                       telemetry::kPivotApply, s);
      // The kb swaps as pdlapiv's permutation, restricted to the moves my
      // process row sends or receives (pdlaswp_moves, O(kb) per step).
      // Moves are applied from original positions, so the order within the
      // step does not matter and messages batch safely even when swap
      // chains share rows. Each (source, destination, step) channel carries
      // at most one group, so the tag's sub id is 0.
      const std::span<const RowMove> moves = pdlaswp_moves(
          std::span<const int>(ipiv).subspan(static_cast<std::size_t>(k0),
                                             static_cast<std::size_t>(kb)),
          k0, me.rowmap, me.pr, plan);
      const Tag tag = make_tag(23, ts, 0);
      // Columns outside the panel that I own (sender and receiver live in
      // the same process column, so both sides see the same width): local
      // indices [0, panel_lo) and [panel_hi, ncols), ascending.
      const int panel_lo = me.lcol_lower_bound(k0);
      const int panel_hi = me.lcol_lower_bound(k0 + kb);
      const int ncols = static_cast<int>(me.my_cols.size());
      const std::size_t out_count =
          static_cast<std::size_t>(ncols - (panel_hi - panel_lo));
      auto for_each_out_col = [&](auto&& fn) {
        for (int jl = 0; jl < panel_lo; ++jl) fn(jl);
        for (int jl = panel_hi; jl < ncols; ++jl) fn(jl);
      };
      // fn(first, last) over each (source owner -> destination owner) group.
      auto for_each_group = [&](auto&& fn) {
        for (auto first = moves.begin(); first != moves.end();) {
          auto last = first;
          while (last != moves.end() && last->osrc == first->osrc &&
                 last->odst == first->odst)
            ++last;
          fn(first, last);
          first = last;
        }
      };
      // Nothing is written before every outgoing and local row is read:
      // send each outgoing group (ascending destination), stage my local
      // moves, write them, then receive (ascending source).
      std::span<const RowMove> local_moves;
      for_each_group([&](auto first, auto last) {
        if (first->osrc != me.pr) return;
        if (first->odst == me.pr) {
          local_moves = std::span<const RowMove>(first, last);
          return;
        }
        const std::size_t count =
            static_cast<std::size_t>(last - first) * out_count;
        std::vector<double> buf;
        if (me.holds_input()) {
          buf.reserve(count);
          for (auto mv = first; mv != last; ++mv) {
            const int r = me.lrow(mv->src);
            for_each_out_col([&](int jl) { buf.push_back(me.loc(r, jl)); });
          }
        }
        comm.send(rank_of(first->odst, me.pc), tag, std::move(buf),
                  count * sizeof(double));
      });
      if (me.holds_input() && !local_moves.empty()) {
        staged.clear();
        for (const RowMove& mv : local_moves) {
          const int r = me.lrow(mv.src);
          for_each_out_col([&](int jl) { staged.push_back(me.loc(r, jl)); });
        }
        const double* in = staged.data();
        for (const RowMove& mv : local_moves) {
          const int r = me.lrow(mv.pos);
          for_each_out_col([&](int jl) { me.loc(r, jl) = *in++; });
        }
      }
      for_each_group([&](auto first, auto last) {
        if (first->osrc == me.pr || first->odst != me.pr) return;
        const simnet::BufferView buf =
            comm.recv_view(rank_of(first->osrc, me.pc), tag);
        if (buf.empty()) return;  // a ghost: nothing to place
        const double* in = buf.data();
        for (auto mv = first; mv != last; ++mv) {
          const int r = me.lrow(mv->pos);
          for_each_out_col([&](int jl) { me.loc(r, jl) = *in++; });
        }
      });
    }

    // ---- Broadcast the L panel along process rows -----------------------
    // Panel piece on (pr, pck): my rows >= k0 x kb columns.
    const int mrow0 = me.lrow_lower_bound(k0);
    const int m_loc = static_cast<int>(me.my_rows.size()) - mrow0;
    Matrix lpanel;  // m_loc x kb, rows ascending global
    {
      const telemetry::ScopedSpan span(params.tel, me_rank,
                                       telemetry::kSchurUpdate, s);
      const std::size_t count = static_cast<std::size_t>(m_loc) * kb;
      std::vector<double> buf;
      if (me.holds_input() && me.pc == pck) {
        buf.reserve(count);
        const int jl0 = me.lcol(k0);  // the panel block's local columns
        for (int il = mrow0; il < static_cast<int>(me.my_rows.size()); ++il)
          buf.insert(buf.end(), &me.loc(il, jl0), &me.loc(il, jl0) + kb);
      }
      lpanel = simnet::matrix_or_empty(
          simnet::bcast(comm, my_row, pck,
                        simnet::payload_or_ghost(std::move(buf)),
                        count * sizeof(double), make_tag(24, ts, 0)),
          m_loc, kb);
    }

    // ---- U block row: solve and broadcast down process columns ----------
    const int ncol0 = me.lcol_lower_bound(k0 + kb);
    const int ntrail = static_cast<int>(me.my_cols.size()) - ncol0;
    Matrix u01;  // kb x ntrail
    {
      const telemetry::ScopedSpan span(params.tel, me_rank,
                                       telemetry::kTrsm, s);
      const std::size_t count = static_cast<std::size_t>(kb) * ntrail;
      std::vector<double> buf;
      if (!lpanel.empty() && me.pr == prk) {
        // My copy of L00 sits in the first kb rows of lpanel.
        auto l00 = lpanel.block(0, 0, kb, kb);
        u01 = Matrix(kb, ntrail);
        for (int q = 0; q < kb; ++q) {
          const int r = me.lrow(k0 + q);
          for (int jl = ncol0; jl < static_cast<int>(me.my_cols.size()); ++jl)
            u01(q, jl - ncol0) = me.loc(r, jl);
        }
        linalg::trsm_left(linalg::Triangle::Lower, linalg::Diag::Unit, l00,
                          u01.view());
        // Write the solved U block row back into the local matrix.
        for (int q = 0; q < kb; ++q) {
          const int r = me.lrow(k0 + q);
          for (int jl = ncol0; jl < static_cast<int>(me.my_cols.size()); ++jl)
            me.loc(r, jl) = u01(q, jl - ncol0);
        }
        buf.assign(u01.data(), u01.data() + u01.size());
      }
      const simnet::BufferView got = simnet::bcast(
          comm, my_col, prk, simnet::payload_or_ghost(std::move(buf)),
          count * sizeof(double), make_tag(25, ts, 0));
      if (me.pr != prk) u01 = simnet::matrix_or_empty(got, kb, ntrail);
    }

    // ---- Local trailing update -----------------------------------------
    if (!u01.empty()) {
      const telemetry::ScopedSpan span(params.tel, me_rank,
                                       telemetry::kSchurUpdate, s);
      const int urow0 = me.lrow_lower_bound(k0 + kb);
      const int mtrail = static_cast<int>(me.my_rows.size()) - urow0;
      if (mtrail > 0) {
        auto l10 = lpanel.block(urow0 - mrow0, 0, mtrail, kb);
        auto a11 = me.loc.block(urow0, ncol0, mtrail, ntrail);
        linalg::schur_update(a11, l10, u01.view());
      }
    }
  }

  // ---- Out-of-band result collection (not part of measured volume) -----
  if (params.gathered != nullptr)
    me.gather_into(*params.gathered, /*lower_only=*/false);
  if (params.ipiv_out != nullptr && comm.rank() == params.base_rank)
    *params.ipiv_out = std::move(ipiv);
}

}  // namespace

LuResult run_2d_faces(const linalg::Matrix* a, const LuConfig& cfg,
                      const Grid2D& face, int nb, int layers,
                      std::string grid_label) {
  const linalg::Matrix* const input = factor::run_input(cfg, a);
  const bool gather = input != nullptr && (cfg.verify || cfg.keep_factors);
  linalg::Matrix gathered;
  std::vector<int> ipiv;
  if (gather) gathered = linalg::Matrix(cfg.n, cfg.n);

  const int active = face.active() * layers;
  simnet::Network net(active, cfg.fabric);
  factor::attach_instruments(net, cfg);
  Stopwatch timer;
  simnet::run_spmd(net, [&](Comm& comm) {
    const int layer = comm.rank() / face.active();
    Scalapack2DParams params;
    params.n = cfg.n;
    params.nb = nb;
    params.g = face;
    params.base_rank = layer * face.active();
    params.seed = cfg.seed;  // identical pivots keep replicas coherent
    params.input = input;
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
  result.grid = std::move(grid_label);
  result.block = nb;
  if (gather)
    finish_lu(result, *input, cfg, std::move(gathered),
              linalg::pivots_to_permutation(ipiv, cfg.n));
  return result;
}

LuResult ScaLapack2D::run(const linalg::Matrix* a, const LuConfig& cfg) {
  CONFLUX_EXPECTS(cfg.n >= 1 && cfg.p >= 1);
  const Grid2D g = slate_ ? grid::choose_grid_2d_near_square(cfg.p)
                          : grid::choose_grid_2d_all_ranks(cfg.p);
  const int requested_nb = cfg.block > 0 ? cfg.block : (slate_ ? 16 : 64);
  const int nb = grid::choose_block_size(cfg.n, 1, requested_nb);
  return run_2d_faces(a, cfg, g, nb, 1, g.to_string());
}

}  // namespace conflux::lu
