#include "cholesky/confchox25d.hpp"

#include <algorithm>
#include <atomic>
#include <span>

#include "factor/core25d.hpp"
#include "grid/block_cyclic.hpp"
#include "grid/grid_opt.hpp"
#include "linalg/blas.hpp"
#include "linalg/potrf.hpp"
#include "simnet/collectives.hpp"
#include "simnet/spmd.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"

namespace conflux::cholesky {

namespace {

using factor::Plan25D;
using factor::TileStore;
using grid::chunk_range;
using linalg::Matrix;
using simnet::Comm;
using simnet::make_tag;
using simnet::Tag;

/// Tiles It in [first, n/v) owned along one grid dimension (extent, pos),
/// ascending.
std::vector<int> owned_tiles(const Plan25D& plan, int first, int extent,
                             int pos) {
  std::vector<int> out;
  const int tiles_total = plan.n / plan.v;
  for (int it = first; it < tiles_total; ++it)
    if (it % extent == pos) out.push_back(it);
  return out;
}

/// The rows of `tiles`, ascending.
std::vector<int> tile_rows(const std::vector<int>& tiles, int v) {
  std::vector<int> rows;
  rows.reserve(tiles.size() * static_cast<std::size_t>(v));
  for (int it : tiles)
    for (int r = it * v; r < (it + 1) * v; ++r) rows.push_back(r);
  return rows;
}

/// ---- Step 2: factor the diagonal block, broadcast L00 --------------------
/// The owner of tile (t, t) on the reducing layer runs the sequential
/// potrf; L00 then travels to every active rank (v^2 per step — the same
/// lower-order term as COnfLUX's A00 broadcast, minus the pivot indices).
/// Returns L00, or an empty matrix for a ghost.
Matrix factor_and_bcast_a00(const Plan25D& plan, TileStore& store,
                            const Comm& comm, int t, int l_star, int py_c,
                            const simnet::Group& world,
                            std::atomic<bool>* not_spd) {
  const int v = plan.v;
  const std::size_t vv = static_cast<std::size_t>(v) * v;
  const int root = plan.g.rank_of({t % plan.g.px_extent(), py_c, l_star});
  std::vector<double> flat;
  if (store.holds_input() && comm.rank() == root) {
    flat.assign(vv, 0.0);
    linalg::MatrixView tile(store.tile_at(t, t), v, v, v);
    if (linalg::potrf_unblocked(tile) != linalg::FactorStatus::Ok)
      not_spd->store(true, std::memory_order_relaxed);
    for (int i = 0; i < v; ++i)
      for (int j = 0; j <= i; ++j)
        flat[static_cast<std::size_t>(i) * v + j] = tile(i, j);
  }
  return simnet::matrix_or_empty(
      simnet::bcast(comm, world, root,
                    simnet::payload_or_ghost(std::move(flat)),
                    vv * sizeof(double),
                    make_tag(3, static_cast<std::uint32_t>(t), 0)),
      v, v);
}

/// ---- Step 3: panel solve at the row leaders ------------------------------
/// The reduced strip below the diagonal already lives, grouped by tile-row
/// owner px, on the column owners (px, py_c, l_star) — the same px-aligned
/// 1D layout COnfLUX uses, so L10 := A10 * L00^{-T} runs in place with no
/// redistribution. Returns the solved `rows` x v panel on the leaders whose
/// store holds input, an empty matrix elsewhere, and writes it into
/// `gathered` (when non-null) at its rows, columns t*v on.
Matrix solve_panel(const Plan25D& plan, const TileStore& store, int t,
                   int l_star, int py_c, std::span<const int> rows,
                   const Matrix& a00, Matrix* gathered) {
  const grid::Coord3& me = store.me();
  if (me.py != py_c || me.l != l_star) return {};
  const int col0 = t * plan.v;
  Matrix panel = store.read(rows, col0);
  if (panel.empty()) return panel;
  // L10 := A10 * L00^{-T}.
  linalg::trsm_right_lower_transposed(a00.view(), panel.view());
  if (gathered != nullptr)
    for (std::size_t i = 0; i < rows.size(); ++i) {
      auto srow = panel.row(static_cast<int>(i));
      std::copy(srow.begin(), srow.end(), &(*gathered)(rows[i], col0));
    }
  return panel;
}

/// (Step 4, the layer-sliced row multicast, is factor::multicast_row_panel.)

/// ---- Step 5: layer-sliced transposed multicast ---------------------------
/// The symmetric update needs L10^T where COnfLUX needs the separately
/// reduced-and-solved A01 row panel. The row leaders already hold every L10
/// row, so they also serve the column direction: the rows of tile It go,
/// k-sliced per layer, to the ranks whose process column owns tile column
/// It — i.e. leader (It % Px, py_c, l_star) -> every (*, It % Py, l).
struct ColSlice {
  std::vector<int> tiles;  ///< my trailing column tiles
  Matrix values;  ///< slice x (tiles * v): values(k, j) = L10(col_j, k);
                  ///< empty when only ghosts arrived
  grid::Range slice;
};

ColSlice multicast_cols(const Plan25D& plan, const grid::Coord3& me,
                        const Comm& comm, int t, int l_star, int py_c,
                        const Matrix& panel) {
  ColSlice out;
  const int v = plan.v;
  const int c = plan.g.layers();
  const int px_count = plan.g.px_extent();
  const int py_count = plan.g.py_extent();
  out.slice = chunk_range(v, c, me.l);
  const Tag tag = make_tag(10, static_cast<std::uint32_t>(t), 0);

  if (me.py == py_c && me.l == l_star) {
    const auto tiles = owned_tiles(plan, t + 1, px_count, me.px);
    for (int py_d = 0; py_d < py_count; ++py_d) {
      std::vector<int> group;  // positions of my tiles bound for column py_d
      for (std::size_t i = 0; i < tiles.size(); ++i)
        if (tiles[i] % py_count == py_d) group.push_back(static_cast<int>(i));
      if (group.empty()) continue;
      // One packed (py_d, layer) strip, multicast across the process row
      // dimension: all px_count recipients share one immutable buffer.
      std::vector<int> dsts(static_cast<std::size_t>(px_count));
      for (int l = 0; l < c; ++l) {
        const auto slice = chunk_range(v, c, l);
        if (slice.size() == 0) continue;
        for (int px2 = 0; px2 < px_count; ++px2)
          dsts[static_cast<std::size_t>(px2)] =
              plan.g.rank_of({px2, py_d, l});
        const std::size_t count =
            group.size() * static_cast<std::size_t>(v) * slice.size();
        std::vector<double> buf;
        if (!panel.empty()) {
          buf.reserve(count);
          for (int i : group)
            for (int q = 0; q < v; ++q) {
              const double* base =
                  panel.data() +
                  (static_cast<std::size_t>(i) * v + q) * v + slice.begin;
              buf.insert(buf.end(), base, base + slice.size());
            }
        }
        comm.multicast(dsts, tag, simnet::payload_or_ghost(std::move(buf)),
                       count * sizeof(double));
      }
    }
  }

  const auto mine = owned_tiles(plan, t + 1, py_count, me.py);
  if (!mine.empty() && out.slice.size() > 0) {
    out.tiles = mine;
    for (int px1 = 0; px1 < px_count; ++px1) {
      std::vector<int> sub;  // positions of my column tiles owned by px1
      for (std::size_t j = 0; j < mine.size(); ++j)
        if (mine[j] % px_count == px1) sub.push_back(static_cast<int>(j));
      if (sub.empty()) continue;
      const simnet::BufferView buf =
          comm.recv_view(plan.g.rank_of({px1, py_c, l_star}), tag);
      if (buf.empty()) continue;  // a ghost: nothing to place
      if (out.values.empty())
        out.values =
            Matrix(out.slice.size(), static_cast<int>(mine.size()) * v);
      const double* in = buf.data();
      for (int j : sub)
        for (int q = 0; q < v; ++q)
          for (int k = out.slice.begin; k < out.slice.end; ++k)
            out.values(k - out.slice.begin, j * v + q) = *in++;
    }
  }
  return out;
}

/// ---- Step 6: local symmetric Schur update with the layer's k-slice -------
/// A11 -= L10 * L10^T, restricted to the lower-triangular tiles It >= Jt
/// this rank owns (the strict upper tiles are dead storage).
void schur_update_local(const Plan25D& plan, TileStore& store,
                        const factor::RowSlice& rows, const ColSlice& cols,
                        int t) {
  if (rows.values.empty() || cols.values.empty()) return;
  const auto row_tiles =
      owned_tiles(plan, t + 1, plan.g.px_extent(), store.me().px);
  CONFLUX_ASSERT(rows.slice.begin == cols.slice.begin &&
                 rows.slice.end == cols.slice.end);
  const int v = plan.v;

  // One update per column tile, restricted to the row tiles at or below it
  // (both tile lists are ascending), so the strict-upper half of the
  // symmetric update is never computed, as in a blocked right-looking
  // potrf.
  const int slice = rows.slice.size();
  // The rows of `rows.values` are the rows of the owned row tiles.
  const std::vector<int> global_rows = tile_rows(row_tiles, v);
  CONFLUX_ASSERT(static_cast<int>(global_rows.size()) == rows.values.rows());
  std::vector<std::size_t> row_off(global_rows.size());
  std::transform(global_rows.begin(), global_rows.end(), row_off.begin(),
                 [&](int r) { return store.row_offset(r); });
  std::vector<std::size_t> col_off(static_cast<std::size_t>(v));
  for (std::size_t tj = 0; tj < cols.tiles.size(); ++tj) {
    std::size_t ti0 = 0;
    while (ti0 < row_tiles.size() && row_tiles[ti0] < cols.tiles[tj]) ++ti0;
    if (ti0 == row_tiles.size()) continue;
    const int row0 = static_cast<int>(ti0) * v;
    const int nrows = rows.values.rows() - row0;
    for (int k = 0; k < v; ++k)
      col_off[static_cast<std::size_t>(k)] =
          store.col_offset(cols.tiles[tj] * v + k);
    linalg::schur_update_mapped(
        store.data(), std::span(row_off).subspan(ti0 * v), col_off,
        rows.values.view().block(row0, 0, nrows, slice),
        cols.values.view().block(0, static_cast<int>(tj) * v, slice, v));
  }
}

}  // namespace

CholResult Confchox25D::run(const linalg::Matrix* a, const CholConfig& cfg) {
  const linalg::Matrix* const input = factor::run_input(cfg, a);
  const Plan25D plan =
      factor::resolve_plan25d(cfg, grid::confchox_cost_per_rank);

  // A run on an input that checks or keeps L collects it out of band (not
  // part of the measured volume): every rank writes the entries it
  // finishes into `gathered`.
  const bool gather = input != nullptr && (cfg.verify || cfg.keep_factors);
  Matrix gathered;
  if (gather) gathered = Matrix(plan.n, plan.n);
  std::atomic<bool> not_spd{false};

  simnet::Network net(plan.active, cfg.fabric);
  factor::attach_instruments(net, cfg);
  const simnet::Group world = simnet::Group::iota(plan.active);

  Stopwatch timer;
  simnet::run_spmd(net, [&](Comm& comm) {
    TileStore store(plan, plan.g.coord_of(comm.rank()), input);
    const grid::Coord3& coord = store.me();
    const int px_count = plan.g.px_extent();

    const int me = comm.rank();
    for (int t = 0; t < plan.steps; ++t) {
      const int l_star = t % plan.g.layers();
      const int py_c = t % plan.g.py_extent();
      // My rows of panel column t (tiles >= t); the part below tile t is
      // the panel that gets solved and multicast.
      const std::vector<int> strip =
          tile_rows(owned_tiles(plan, t, px_count, coord.px), plan.v);
      const std::span<const int> below = std::span<const int>(strip).subspan(
          t % px_count == coord.px ? static_cast<std::size_t>(plan.v) : 0);
      {
        const telemetry::ScopedSpan span(plan.tel, me,
                                         telemetry::kLayerReduction, t);
        factor::reduce_panel_column(plan, store, comm, t, l_star,  // step 1
                                    py_c, strip);
      }
      Matrix a00;
      {
        const telemetry::ScopedSpan span(plan.tel, me,
                                         telemetry::kPanelFactor, t);
        a00 = factor_and_bcast_a00(plan, store, comm, t,           // step 2
                                   l_star, py_c, world, &not_spd);
      }
      if (gather && me == 0)
        for (int q = 0; q < plan.v; ++q) {
          auto src = a00.row(q);
          std::copy(src.begin(), src.end(),
                    &gathered(t * plan.v + q, t * plan.v));
        }
      Matrix panel;
      {
        const telemetry::ScopedSpan span(plan.tel, me, telemetry::kTrsm, t);
        panel = solve_panel(plan, store, t, l_star, py_c, below,   // step 3
                            a00, gather ? &gathered : nullptr);
      }
      {
        const telemetry::ScopedSpan span(plan.tel, me,
                                         telemetry::kSchurUpdate, t);
        const factor::RowSlice rows = factor::multicast_row_panel( // step 4
            plan, coord, comm, t, l_star, py_c, below.size(), panel);
        const ColSlice cols = multicast_cols(plan, coord, comm, t, // step 5
                                             l_star, py_c, panel);
        schur_update_local(plan, store, rows, cols, t);            // step 6
      }
    }
  });

  CholResult result;
  result.seconds = timer.seconds();
  factor::fill_comm_stats(result, net, plan.active, cfg.p);
  result.grid = plan.g.to_string();
  result.block = plan.v;
  result.spd = !not_spd.load(std::memory_order_relaxed);
  if (gather) finish_cholesky(result, *input, cfg, std::move(gathered));
  return result;
}

}  // namespace conflux::cholesky
