#include "lu/block25d.hpp"

#include <algorithm>
#include <optional>

#include "factor/core25d.hpp"
#include "grid/block_cyclic.hpp"
#include "grid/grid_opt.hpp"
#include "linalg/blas.hpp"
#include "linalg/panel.hpp"
#include "simnet/collectives.hpp"
#include "simnet/spmd.hpp"
#include "support/random.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"

namespace conflux::lu {

namespace {

using grid::chunk_of;
using grid::chunk_range;
using grid::Coord3;
using linalg::Matrix;
using simnet::Comm;
using simnet::make_tag;
using simnet::Tag;

/// The shared 2.5D plan plus LU's pivoting parameters.
struct Plan : factor::Plan25D {
  std::uint64_t seed = 42;
  PanelTournament tournament = PanelTournament::Butterfly;
};

/// Per-rank mutable state.
struct RankState {
  Coord3 me;
  factor::TileStore store;
  // Globally consistent pivot bookkeeping (runs with an input).
  std::vector<std::uint8_t> pivoted;
};

/// Everything the ranks derive per outer step from the shared pivot state.
struct StepView {
  int t = 0;
  int l_star = 0;  ///< reducing layer for this step
  int py_c = 0;    ///< process column owning panel column t
  int px_c = 0;    ///< process row anchoring the A01 aggregators
  std::vector<int> rem;                    ///< unpivoted rows, ascending
  std::vector<std::vector<int>> rows_by_px;  ///< rem split by tile-row owner
  std::vector<std::vector<int>> cols_by_py;       ///< trailing cols per py
  std::vector<std::vector<int>> tile_cols_by_py;  ///< trailing tile cols / py
};

StepView make_step_view(const Plan& plan,
                        const std::vector<std::uint8_t>& pivoted, int t) {
  StepView sv;
  sv.t = t;
  sv.l_star = t % plan.g.layers();
  sv.py_c = t % plan.g.py_extent();
  sv.px_c = t % plan.g.px_extent();
  sv.rem.reserve(static_cast<std::size_t>(plan.n - t * plan.v));
  sv.rows_by_px.resize(static_cast<std::size_t>(plan.g.px_extent()));
  for (int r = 0; r < plan.n; ++r) {
    if (pivoted[static_cast<std::size_t>(r)]) continue;
    sv.rem.push_back(r);
    sv.rows_by_px[static_cast<std::size_t>((r / plan.v) %
                                           plan.g.px_extent())]
        .push_back(r);
  }
  const int py_count = plan.g.py_extent();
  sv.cols_by_py.resize(static_cast<std::size_t>(py_count));
  sv.tile_cols_by_py.resize(static_cast<std::size_t>(py_count));
  for (int jt = t + 1; jt < plan.steps; ++jt) {
    auto& cols = sv.cols_by_py[static_cast<std::size_t>(jt % py_count)];
    for (int col = jt * plan.v; col < (jt + 1) * plan.v; ++col)
      cols.push_back(col);
    sv.tile_cols_by_py[static_cast<std::size_t>(jt % py_count)].push_back(jt);
  }
  return sv;
}

/// ---- Step 2: tournament pivoting over the Px panel owners ---------------
/// Butterfly: returns (pivots, a00) on every rank with px < fold-size.
/// Tree: returns them on the tree root (px == 0) only. Everyone else
/// learns them from the step-3 broadcast. A store without input returns
/// nothing: a dry run's synthetic winners come from the host-precomputed
/// schedule (Step).
struct TournamentOutcome {
  std::vector<int> pivots;
  Matrix a00;
};

TournamentOutcome run_tournament(const Plan& plan, RankState& st,
                                 const Comm& comm, const StepView& sv) {
  TournamentOutcome out;
  if (st.me.py != sv.py_c || st.me.l != sv.l_star) return out;
  const int px_count = plan.g.px_extent();
  const int px = st.me.px;
  const int v = plan.v;
  const auto& mine = sv.rows_by_px[static_cast<std::size_t>(px)];

  // Every participant tracks how many candidates it holds — min(v, rows)
  // after the local selection, min(v, a + b) after each merge, with the
  // partner's count read off the message's wire size — and a store with
  // input also holds the candidates themselves, even an empty set (whose
  // packed header still travels).
  std::size_t count = std::min(static_cast<std::size_t>(v), mine.size());
  std::optional<linalg::PivotCandidates> cand;
  if (st.store.holds_input())
    cand = linalg::select_best({mine, st.store.read(mine, sv.t * v)}, v);
  const auto wire_doubles = [v](std::size_t rows) {  // pack_candidates size
    return 2 + rows * (1 + static_cast<std::size_t>(v));
  };
  const auto tag_of = [&sv](unsigned round) {
    return make_tag(2, static_cast<std::uint32_t>(sv.t), round);
  };
  const auto send_to = [&](int dst_px, Tag tag) {
    comm.send(plan.g.rank_of({dst_px, sv.py_c, sv.l_star}), tag,
              cand ? linalg::pack_candidates(*cand) : std::vector<double>(),
              wire_doubles(count) * sizeof(double));
  };
  const auto merge_from = [&](int src_px, Tag tag) {
    const simnet::BufferView other =
        comm.recv_view(plan.g.rank_of({src_px, sv.py_c, sv.l_star}), tag);
    const std::size_t theirs =
        (other.logical_bytes() / sizeof(double) - 2) / (1 + v);
    count = std::min(static_cast<std::size_t>(v), count + theirs);
    if (cand)
      cand = linalg::tournament_round(
          *cand, linalg::unpack_candidates(other.span()), v);
  };

  if (plan.tournament == PanelTournament::Tree) {
    // TSLU reduction tree: odd multiples of the round's gap send their
    // candidates down and are done (the step-3 broadcast tells them the
    // winners); receivers merge in global row order and continue. Only the
    // root finalizes.
    for (const linalg::TreeStep& step :
         linalg::reduction_tree_schedule(px_count)) {
      const Tag tag = tag_of(static_cast<unsigned>(step.round));
      if (step.src == px) {
        send_to(step.dst, tag);
        return out;  // learns the pivots from the step-3 broadcast
      }
      if (step.dst == px) merge_from(step.src, tag);
    }
  } else {
    // Butterfly: the participants beyond the largest power of two fold
    // into their partner first, then log2(fold) all-to-all rounds.
    int fold = 1;
    while (fold * 2 <= px_count) fold *= 2;
    if (px >= fold) {
      send_to(px - fold, tag_of(0));
      return out;  // learns the pivots from the step-3 broadcast
    }
    if (px + fold < px_count) merge_from(px + fold, tag_of(0));
    unsigned round = 1;
    for (int mask = 1; mask < fold; mask <<= 1, ++round) {
      send_to(px ^ mask, tag_of(round));
      merge_from(px ^ mask, tag_of(round));
    }
  }

  if (cand) {
    linalg::TournamentResult result = linalg::finalize_tournament(*cand);
    out.pivots = std::move(result.pivot_rows);
    out.a00 = std::move(result.a00);
  }
  return out;
}

/// ---- Step 3: broadcast pivots + A00 to all active ranks ------------------
/// One packed payload from the root participant: the v pivot rows
/// bit-packed as ints (4 B each), then the v x v factored block. A ghost
/// leaves `outcome` empty: a dry run's pivot bookkeeping is host-side
/// (Step).
void broadcast_pivot_block(const Plan& plan, RankState& st, const Comm& comm,
                           const StepView& sv, TournamentOutcome& outcome,
                           const simnet::Group& world) {
  const int v = plan.v;
  const std::size_t vv = static_cast<std::size_t>(v) * v;
  const int root = plan.g.rank_of({0, sv.py_c, sv.l_star});
  std::vector<double> packed;
  if (!outcome.pivots.empty() && comm.rank() == root) {
    CONFLUX_ASSERT(outcome.pivots.size() == static_cast<std::size_t>(v));
    packed = simnet::pack_ints(outcome.pivots);
    packed.insert(packed.end(), outcome.a00.data(),
                  outcome.a00.data() + vv);
  }
  const simnet::BufferView got = simnet::bcast(
      comm, world, root, simnet::payload_or_ghost(std::move(packed)),
      static_cast<std::size_t>(v) * sizeof(int) + vv * sizeof(double),
      make_tag(3, static_cast<std::uint32_t>(sv.t), 0));
  if (got.empty()) return;
  outcome.pivots = simnet::unpack_ints(got, static_cast<std::size_t>(v));
  outcome.a00 = simnet::matrix_or_empty(got, v, v);
  for (int r : outcome.pivots) st.pivoted[static_cast<std::size_t>(r)] = 1;
}

/// The rows remaining after this step's pivots are masked out, and the
/// pivots, each split by tile-row owner.
struct Rem2 {
  std::vector<std::vector<int>> by_px;     ///< remaining rows, ascending
  std::vector<std::vector<int>> qs_of_px;  ///< pivot q's per row owner
};

Rem2 make_rem2(const Plan& plan, const StepView& sv,
               const std::vector<int>& pivots) {
  const int px_count = plan.g.px_extent();
  std::vector<std::uint8_t> is_piv(static_cast<std::size_t>(plan.n), 0);
  for (int r : pivots) is_piv[static_cast<std::size_t>(r)] = 1;
  Rem2 rem2;
  rem2.by_px.resize(static_cast<std::size_t>(px_count));
  for (int r : sv.rem) {
    if (is_piv[static_cast<std::size_t>(r)]) continue;
    rem2.by_px[static_cast<std::size_t>((r / plan.v) % px_count)].push_back(r);
  }
  rem2.qs_of_px.resize(static_cast<std::size_t>(px_count));
  for (int q = 0; q < plan.v; ++q)
    rem2.qs_of_px[static_cast<std::size_t>(
                      (pivots[static_cast<std::size_t>(q)] / plan.v) %
                      px_count)]
        .push_back(q);
  return rem2;
}

/// One step's index sets: the rows before and after its pivots. A rank
/// with an input derives its own from the pivots it receives. A dry run has
/// no pivots to receive; with synthetic ones every step's sets are known up
/// front, so the host precomputes them once and the ranks share one
/// read-only schedule instead of repeating O(N) scans per rank per step.
/// The P fibers of a dry run spend their time in the fabric, not in index
/// bookkeeping — which is what the simulator is supposed to measure.
struct Step {
  StepView sv;
  Rem2 rem2;  ///< post-pivot row split
};

/// ---- Steps 4 + 7: A10 triangular solve at the row leaders ----------------
/// The reduced panel column already lives, grouped by tile-row owner px, on
/// the column owners (px, py_c, l_star). We use that grouping as the 1D
/// block-row layout of Algorithm 1 (a px-aligned assignment costs no
/// redistribution), so step 7's triangular solve runs in place on the Px
/// row leaders. Returns the solved rem2.by_px[me.px] x v panel on the
/// leaders (me.py == py_c, me.l == l_star) whose store holds input, an
/// empty matrix elsewhere, and writes it into `gathered` (when non-null) at
/// its rows, columns t*v on.
Matrix solve_a10_at_leaders(const Plan& plan, RankState& st,
                            const StepView& sv, const Rem2& rem2,
                            const Matrix& a00, Matrix* gathered) {
  const int col0 = sv.t * plan.v;
  if (st.me.py != sv.py_c || st.me.l != sv.l_star) return {};
  const auto& mine = rem2.by_px[static_cast<std::size_t>(st.me.px)];
  Matrix panel = st.store.read(mine, col0);
  if (panel.empty()) return panel;
  // Step 7: A10 := A10 * U00^{-1} (right, upper, non-unit).
  linalg::trsm_right(linalg::Triangle::Upper, linalg::Diag::NonUnit,
                     a00.view(), panel.view());
  if (gathered != nullptr)
    for (std::size_t i = 0; i < mine.size(); ++i) {
      auto srow = panel.row(static_cast<int>(i));
      std::copy(srow.begin(), srow.end(), &(*gathered)(mine[i], col0));
    }
  return panel;
}

/// ---- Steps 5 + 9: A01 reduce to aggregators, triangular solve ------------
/// Each process column's pivot-row partials are summed (across tile-row
/// owners and layers) onto the aggregator (px_c, py, l_star), which then
/// owns the true v x (its trailing columns) strip and solves it in place —
/// the py-aligned 1D block-column layout of Algorithm 1. The solved strip
/// goes into `gathered` (when non-null) at the pivot rows.
struct A01Panel {
  Matrix agg;                 ///< v x my trailing cols (aggregators' data)
  std::vector<int> my_cols;   ///< this rank's trailing columns (all ranks)
  bool aggregator = false;
};

A01Panel solve_a01_at_aggregators(const Plan& plan, RankState& st,
                                  const Comm& comm, const StepView& sv,
                                  const Rem2& rem2,
                                  const std::vector<int>& pivots,
                                  const Matrix& a00, Matrix* gathered) {
  A01Panel panel;
  if (sv.t + 1 == plan.steps) return panel;
  const int v = plan.v;
  const int px_count = plan.g.px_extent();
  // My trailing columns (the ones my tiles cover) — needed by every rank
  // for the later multicast and Schur update — and tile columns.
  panel.my_cols = sv.cols_by_py[static_cast<std::size_t>(st.me.py)];
  const std::vector<int>& my_tile_cols =
      sv.tile_cols_by_py[static_cast<std::size_t>(st.me.py)];

  // Phase 1 (step 5): everyone holding pivot-row partials ships them to the
  // aggregator of its process column.
  const auto& my_qs = rem2.qs_of_px[static_cast<std::size_t>(st.me.px)];
  const std::size_t seg_count = my_qs.size() * my_tile_cols.size();
  if (seg_count > 0) {
    // Step 5 is the lazy cross-layer reduction of the pivot rows; its
    // traffic belongs to the layer_reduction phase even though the engine
    // reaches it from inside the TRSM step block (nested span wins).
    const telemetry::ScopedSpan span(plan.tel, comm.rank(),
                                     telemetry::kLayerReduction, sv.t);
    std::vector<double> buf;
    if (st.store.holds_input()) {
      buf.reserve(seg_count * static_cast<std::size_t>(v));
      for (int jt : my_tile_cols)
        for (int q : my_qs) {
          const double* base = &st.store.elem_at(
              pivots[static_cast<std::size_t>(q)], jt * v);
          buf.insert(buf.end(), base, base + v);
        }
    }
    comm.send(plan.g.rank_of({sv.px_c, st.me.py, sv.l_star}),
              make_tag(5, static_cast<std::uint32_t>(sv.t), 0),
              std::move(buf),
              seg_count * static_cast<std::size_t>(v) * sizeof(double));
  }

  panel.aggregator = (st.me.px == sv.px_c && st.me.l == sv.l_star);
  if (!panel.aggregator || my_tile_cols.empty()) return panel;

  const int my_width = static_cast<int>(panel.my_cols.size());
  if (st.store.holds_input()) panel.agg = Matrix(v, my_width);
  {
    // The aggregation receives are the other half of the step-5 lazy
    // reduction (see the send above).
    const telemetry::ScopedSpan span(plan.tel, comm.rank(),
                                     telemetry::kLayerReduction, sv.t);
    for (int px = 0; px < px_count; ++px) {
      const auto& qs = rem2.qs_of_px[static_cast<std::size_t>(px)];
      if (qs.empty()) continue;
      for (int l = 0; l < plan.g.layers(); ++l) {
        const simnet::BufferView buf =
            comm.recv_view(plan.g.rank_of({px, st.me.py, l}),
                           make_tag(5, static_cast<std::uint32_t>(sv.t), 0));
        if (buf.empty()) continue;  // a ghost: nothing to sum
        const double* in = buf.data();
        for (std::size_t jc = 0; jc < my_tile_cols.size(); ++jc)
          for (int q : qs) {
            auto row = panel.agg.row(q);
            for (int k = 0; k < v; ++k)
              row[jc * static_cast<std::size_t>(v) + k] += *in++;
          }
      }
    }
  }
  if (!panel.agg.empty()) {
    // Step 9: A01 := L00^{-1} * A01 (left, lower, unit).
    linalg::trsm_left(linalg::Triangle::Lower, linalg::Diag::Unit, a00.view(),
                      panel.agg.view());
    if (gathered != nullptr)
      for (int q = 0; q < v; ++q)
        for (int j = 0; j < my_width; ++j)
          (*gathered)(pivots[static_cast<std::size_t>(q)],
                      panel.my_cols[static_cast<std::size_t>(j)]) =
              panel.agg(q, j);
  }
  return panel;
}

/// ---- Step 10: layer-sliced A01 multicast ----------------------------------
/// (Step 8, the A10 row-panel multicast, is factor::multicast_row_panel.)
/// A01: aggregators (px_c, py, l_star) -> every (*, py, *) with the l-th
/// k-slice. Returns my slice.
struct A01Slice {
  Matrix values;  ///< slice_height x my trailing cols; empty for a ghost
  grid::Range slice;
};

A01Slice multicast_a01(const Plan& plan, RankState& st, const Comm& comm,
                       const StepView& sv, const A01Panel& panel) {
  A01Slice out;
  const int v = plan.v;
  const int c = plan.g.layers();
  out.slice = chunk_range(v, c, st.me.l);
  if (sv.t + 1 == plan.steps) return out;
  const Tag tag = make_tag(10, static_cast<std::uint32_t>(sv.t), 0);

  if (panel.aggregator && !panel.my_cols.empty()) {
    // One packed slice per layer, multicast down the process column.
    std::vector<int> dsts(static_cast<std::size_t>(plan.g.px_extent()));
    for (int l = 0; l < c; ++l) {
      const auto slice = chunk_range(v, c, l);
      if (slice.size() == 0) continue;
      for (int px = 0; px < plan.g.px_extent(); ++px)
        dsts[static_cast<std::size_t>(px)] =
            plan.g.rank_of({px, st.me.py, l});
      const std::size_t count =
          static_cast<std::size_t>(slice.size()) * panel.my_cols.size();
      std::vector<double> buf;
      if (!panel.agg.empty()) {
        buf.reserve(count);
        for (int q = slice.begin; q < slice.end; ++q) {
          auto row = panel.agg.row(q);
          buf.insert(buf.end(), row.begin(), row.end());
        }
      }
      comm.multicast(dsts, tag, simnet::payload_or_ghost(std::move(buf)),
                     count * sizeof(double));
    }
  }

  if (!panel.my_cols.empty() && out.slice.size() > 0)
    out.values = simnet::matrix_or_empty(
        comm.recv_view(plan.g.rank_of({sv.px_c, st.me.py, sv.l_star}), tag),
        out.slice.size(), static_cast<int>(panel.my_cols.size()));
  return out;
}

/// ---- Step 11: local Schur update with the layer's k-slice ---------------
/// `rows` are this rank's A10 rows (rem2.by_px[me.px]), the rows of `a10`;
/// `cols` its trailing columns, the columns of `a01`.
void schur_update_local(RankState& st, const std::vector<int>& rows,
                        const std::vector<int>& cols,
                        const factor::RowSlice& a10, const A01Slice& a01) {
  if (a10.values.empty() || a01.values.empty()) return;
  CONFLUX_ASSERT(a10.slice.begin == a01.slice.begin &&
                 a10.slice.end == a01.slice.end);

  std::vector<std::size_t> row_off(rows.size()), col_off(cols.size());
  std::transform(rows.begin(), rows.end(), row_off.begin(),
                 [&](int r) { return st.store.row_offset(r); });
  std::transform(cols.begin(), cols.end(), col_off.begin(),
                 [&](int col) { return st.store.col_offset(col); });
  linalg::schur_update_mapped(st.store.data(), row_off, col_off,
                              a10.values.view(), a01.values.view());
}

}  // namespace

LuResult Block25D::run(const linalg::Matrix* a, const LuConfig& cfg) {
  const linalg::Matrix* const input = factor::run_input(cfg, a);
  Plan plan{factor::resolve_plan25d(cfg, grid::conflux_cost_per_rank),
            cfg.seed, tournament_};

  // A run on an input that checks or keeps the factors collects them out
  // of band (not part of the measured volume): every rank writes the
  // entries it finishes into `gathered`, indexed by original row, and rank
  // 0 records the pivot order.
  const bool gather = input != nullptr && (cfg.verify || cfg.keep_factors);
  Matrix gathered;
  std::vector<int> pivot_order;
  if (gather) {
    gathered = Matrix(plan.n, plan.n);
    pivot_order.reserve(static_cast<std::size_t>(plan.n));
  }

  // Numeric pivots depend on values, so only a dry run knows them up front:
  // its synthetic pivots give every step's index sets, computed once here.
  std::vector<Step> dry_schedule;
  if (input == nullptr) {
    std::vector<std::uint8_t> pivoted(static_cast<std::size_t>(plan.n), 0);
    dry_schedule.reserve(static_cast<std::size_t>(plan.steps));
    for (int t = 0; t < plan.steps; ++t) {
      Step step{make_step_view(plan, pivoted, t), {}};
      const std::vector<int> pivots =
          synthetic_pivots(pivoted, plan.n, plan.v, t, plan.seed);
      for (int r : pivots) pivoted[static_cast<std::size_t>(r)] = 1;
      step.rem2 = make_rem2(plan, step.sv, pivots);
      dry_schedule.push_back(std::move(step));
    }
  }

  simnet::Network net(plan.active, cfg.fabric);
  factor::attach_instruments(net, cfg);
  const simnet::Group world = simnet::Group::iota(plan.active);

  Stopwatch timer;
  simnet::run_spmd(net, [&](Comm& comm) {
    const Coord3 coord = plan.g.coord_of(comm.rank());
    RankState st{coord, factor::TileStore(plan, coord, input),
                 std::vector<std::uint8_t>(
                     input != nullptr ? static_cast<std::size_t>(plan.n) : 0,
                     0)};

    const int me = comm.rank();
    for (int t = 0; t < plan.steps; ++t) {
      // The step's index sets: a rank on an input derives its own from its
      // pivots (rem2 once step 3 has brought this step's), a dry rank reads
      // the shared schedule.
      Step own;
      if (input != nullptr) own.sv = make_step_view(plan, st.pivoted, t);
      const Step& step =
          input != nullptr ? own : dry_schedule[static_cast<std::size_t>(t)];
      const StepView& sv = step.sv;
      {
        const telemetry::ScopedSpan span(plan.tel, me,
                                         telemetry::kLayerReduction, t);
        factor::reduce_panel_column(plan, st.store, comm, t,        // step 1
                                    sv.l_star, sv.py_c,
                                    sv.rows_by_px[static_cast<std::size_t>(
                                        st.me.px)]);
      }
      TournamentOutcome outcome;
      {
        const telemetry::ScopedSpan span(plan.tel, me,
                                         telemetry::kPanelTournament, t);
        outcome = run_tournament(plan, st, comm, sv);               // step 2
      }
      {
        const telemetry::ScopedSpan span(plan.tel, me,
                                         telemetry::kPivotApply, t);
        broadcast_pivot_block(plan, st, comm, sv, outcome, world);  // step 3
      }
      if (!outcome.pivots.empty())
        own.rem2 = make_rem2(plan, sv, outcome.pivots);
      if (gather && me == 0) {
        for (int q = 0; q < plan.v; ++q) {
          const int r = outcome.pivots[static_cast<std::size_t>(q)];
          auto src = outcome.a00.row(q);
          std::copy(src.begin(), src.end(), &gathered(r, t * plan.v));
          pivot_order.push_back(r);
        }
      }
      const Rem2& rem2 = step.rem2;
      const std::vector<int>& my_rows =
          rem2.by_px[static_cast<std::size_t>(st.me.px)];
      Matrix a10_panel;
      A01Panel a01_panel;
      {
        const telemetry::ScopedSpan span(plan.tel, me, telemetry::kTrsm, t);
        Matrix* const out = gather ? &gathered : nullptr;
        a10_panel = solve_a10_at_leaders(plan, st, sv, rem2,         // 4 + 7
                                         outcome.a00, out);
        a01_panel = solve_a01_at_aggregators(                        // 5 + 9
            plan, st, comm, sv, rem2, outcome.pivots, outcome.a00, out);
      }
      {
        const telemetry::ScopedSpan span(plan.tel, me,
                                         telemetry::kSchurUpdate, t);
        const factor::RowSlice a10 = factor::multicast_row_panel(      // 8
            plan, st.me, comm, t, sv.l_star, sv.py_c, my_rows.size(),
            a10_panel);
        const A01Slice a01 = multicast_a01(plan, st, comm, sv,        // 10
                                           a01_panel);
        schur_update_local(st, my_rows, a01_panel.my_cols, a10, a01); // 11
      }
    }
  });

  LuResult result;
  result.seconds = timer.seconds();
  factor::fill_comm_stats(result, net, plan.active, cfg.p);
  result.grid = plan.g.to_string();
  result.block = plan.v;
  if (gather) {
    // Rows never moved: putting them in pivot order, in place, gives the
    // packed factor.
    linalg::permute_rows(gathered.view(), pivot_order);
    finish_lu(result, *input, cfg, std::move(gathered),
              std::move(pivot_order));
  }
  return result;
}

}  // namespace conflux::lu
