#include "factor/core25d.hpp"

#include <algorithm>
#include <cmath>

#include "simnet/comm.hpp"

namespace conflux::factor {

using grid::chunk_range;
using grid::Grid3D;
using simnet::make_tag;
using simnet::Tag;

double memory_budget(const FactorConfig& cfg) {
  return static_cast<double>(cfg.n) * cfg.n /
         std::pow(static_cast<double>(cfg.p), 2.0 / 3.0);
}

Plan25D resolve_plan25d(const FactorConfig& cfg, grid::GridCostFn cost) {
  CONFLUX_EXPECTS(cfg.n >= 1 && cfg.p >= 1);
  Plan25D plan;
  plan.n = cfg.n;
  plan.tel = cfg.telemetry;
  if (cfg.force_layers > 0) {
    const int c = std::min(cfg.force_layers, cfg.p);
    const int front = std::max(1, cfg.p / c);
    const int px = std::max(1, static_cast<int>(std::sqrt(
                                   static_cast<double>(front))));
    plan.g = Grid3D(px, std::max(1, front / px), c);
  } else {
    plan.g = grid::optimize_grid(cfg.p, cfg.n, memory_budget(cfg), 0, cost)
                 .grid;
  }
  plan.active = plan.g.active();
  plan.v = cfg.block > 0
               ? cfg.block
               : grid::choose_block_size(
                     cfg.n, plan.g.layers(),
                     grid::default_block_target(cfg.n, plan.g.layers()));
  CONFLUX_EXPECTS_MSG(cfg.n % plan.v == 0,
                      "block size " << plan.v << " must divide N=" << cfg.n);
  plan.steps = cfg.n / plan.v;
  return plan;
}

TileStore::TileStore(const Plan25D& plan, grid::Coord3 me,
                     const linalg::Matrix* input)
    : me_(me),
      v_(plan.v),
      px_(plan.g.px_extent()),
      py_(plan.g.py_extent()),
      holds_input_(input != nullptr) {
  if (input == nullptr) return;
  const int tiles_total = plan.n / plan.v;
  const int ltr = (tiles_total - me.px + px_ - 1) / px_;
  ltc_ = (tiles_total - me.py + py_ - 1) / py_;
  tiles_.assign(static_cast<std::size_t>(ltr) * ltc_ * v_ * v_, 0.0);
  if (me.l != 0) return;
  for (int it = me.px; it < tiles_total; it += px_)
    for (int jt = me.py; jt < tiles_total; jt += py_) {
      double* tile = tile_at(it, jt);
      for (int i = 0; i < v_; ++i)
        std::copy_n(&(*input)(it * v_ + i, jt * v_), v_,
                    tile + static_cast<std::size_t>(i) * v_);
    }
}

linalg::Matrix TileStore::read(std::span<const int> rows, int col0) const {
  if (!holds_input_) return {};
  linalg::Matrix out(static_cast<int>(rows.size()), v_);
  for (std::size_t i = 0; i < rows.size(); ++i)
    std::copy_n(tiles_.data() + row_offset(rows[i]) + col_offset(col0), v_,
                out.row(static_cast<int>(i)).begin());
  return out;
}

void reduce_panel_column(const Plan25D& plan, TileStore& store,
                         const simnet::Comm& comm, int t, int l_star, int py_c,
                         std::span<const int> rows) {
  if (plan.g.layers() == 1) return;
  const grid::Coord3& me = store.me();
  if (me.py != py_c) return;
  if (rows.empty()) return;
  const int v = plan.v;
  const int col0 = t * v;

  if (me.l != l_star) {
    const Tag tag = make_tag(1, static_cast<std::uint32_t>(t),
                             static_cast<std::uint32_t>(me.l));
    const std::size_t count = rows.size() * static_cast<std::size_t>(v);
    std::vector<double> buf;
    if (store.holds_input()) {
      buf.reserve(count);
      for (int r : rows) {
        double* base = &store.elem_at(r, col0);
        buf.insert(buf.end(), base, base + v);
        std::fill(base, base + v, 0.0);
      }
    }
    comm.send(plan.g.rank_of({me.px, py_c, l_star}), tag, std::move(buf),
              count * sizeof(double));
  } else {
    for (int l = 0; l < plan.g.layers(); ++l) {
      if (l == l_star) continue;
      const Tag tag = make_tag(1, static_cast<std::uint32_t>(t),
                               static_cast<std::uint32_t>(l));
      const simnet::BufferView buf =
          comm.recv_view(plan.g.rank_of({me.px, py_c, l}), tag);
      if (buf.empty()) continue;  // a ghost: nothing to fold in
      // Accumulate straight out of the payload; no copy-out.
      const double* in = buf.data();
      for (int r : rows) {
        double* base = &store.elem_at(r, col0);
        for (int k = 0; k < v; ++k) base[k] += *in++;
      }
    }
  }
}

RowSlice multicast_row_panel(const Plan25D& plan, const grid::Coord3& me,
                             const simnet::Comm& comm, int t, int l_star,
                             int py_c, std::size_t rows,
                             const linalg::Matrix& panel) {
  RowSlice out;
  const int v = plan.v;
  const int c = plan.g.layers();
  out.slice = chunk_range(v, c, me.l);
  if (rows == 0) return out;
  const Tag tag = make_tag(8, static_cast<std::uint32_t>(t), 0);

  if (me.py == py_c && me.l == l_star) {
    // One packed slice per layer, multicast to the whole process row: the
    // py_count recipients share a single immutable buffer.
    std::vector<int> dsts(static_cast<std::size_t>(plan.g.py_extent()));
    for (int l = 0; l < c; ++l) {
      const auto slice = chunk_range(v, c, l);
      if (slice.size() == 0) continue;
      for (int py = 0; py < plan.g.py_extent(); ++py)
        dsts[static_cast<std::size_t>(py)] = plan.g.rank_of({me.px, py, l});
      const std::size_t count = rows * static_cast<std::size_t>(slice.size());
      std::vector<double> buf;
      if (!panel.empty()) {
        buf.reserve(count);
        for (std::size_t i = 0; i < rows; ++i) {
          const double* base =
              panel.data() + i * static_cast<std::size_t>(v) + slice.begin;
          buf.insert(buf.end(), base, base + slice.size());
        }
      }
      comm.multicast(dsts, tag, simnet::payload_or_ghost(std::move(buf)),
                     count * sizeof(double));
    }
  }

  if (out.slice.size() > 0) {
    out.values = simnet::matrix_or_empty(
        comm.recv_view(plan.g.rank_of({me.px, py_c, l_star}), tag),
        static_cast<int>(rows), out.slice.size());
  }
  return out;
}

}  // namespace conflux::factor
