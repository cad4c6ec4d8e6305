/// \file core25d.hpp
/// The 2.5D tile core shared by both factorization families: COnfLUX/CALU
/// (lu/block25d.cpp) and COnfCHOX (cholesky/confchox25d.cpp).
///
/// It holds exactly the §7.2 machinery the two engines have in common:
///   - the run plan: memory budget, [Px, Py, c] grid, block size v;
///   - the per-rank tile store of the block-cyclic tile layout;
///   - the lazy cross-layer reduction of panel column t onto layer l*;
///   - the layer-sliced multicast of a solved row panel along process rows.
/// Each shared step takes the rows this rank holds in the panel as an
/// explicit list (or count), so neither branches on the family: LU passes
/// its unpivoted rows, Cholesky the rows of its owned tiles at or below the
/// diagonal. Pivoting, the diagonal-block factorization, the second panel
/// direction and the Schur update shape stay in the engines.
///
/// Numeric and dry runs share this code. A step packs, unpacks or computes
/// exactly when this rank holds the data involved: the tile store holds the
/// run's input or nothing, a received payload is data or a ghost, and a
/// kernel whose operand is empty is not called.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "factor/factorization.hpp"
#include "grid/block_cyclic.hpp"
#include "grid/grid3d.hpp"
#include "grid/grid_opt.hpp"
#include "linalg/matrix.hpp"

namespace conflux::simnet {
class Comm;
}  // namespace conflux::simnet

namespace conflux::factor {

/// Per-rank memory budget M in elements: the paper's max-replication rule
/// M = N^2 / P^(2/3), the budget its evaluation fixes (Fig. 6 caption).
[[nodiscard]] double memory_budget(const FactorConfig& cfg);

/// Resolved run parameters shared by every rank of a 2.5D run.
struct Plan25D {
  int n = 0;
  int v = 0;      ///< tile (block) size
  int steps = 0;  ///< n / v outer steps
  grid::Grid3D g{1, 1, 1};
  int active = 0;  ///< ranks the grid uses
  telemetry::TelemetryBoard* tel = nullptr;  ///< ConfScope board (nullable)
};

/// Resolve grid and block size for `cfg`. A forced layer count c gets a
/// near-square front face of P / c ranks; otherwise grid::optimize_grid
/// searches with the family's `cost` under the memory budget. v is
/// cfg.block or the §7.2 default, and must divide N.
[[nodiscard]] Plan25D resolve_plan25d(const FactorConfig& cfg,
                                      grid::GridCostFn cost);

/// One rank's tiles of the N x N matrix: tiles It % Px == me.px,
/// Jt % Py == me.py, packed [(It/Px) * ltc + (Jt/Py)] * v^2, row-major
/// within a tile. Built from the run's input (factor::run_input): layer 0
/// loads its tiles of it, the other layers start at zero and hold partial
/// sums. Without an input (a dry run) the store allocates nothing.
class TileStore {
 public:
  TileStore(const Plan25D& plan, grid::Coord3 me, const linalg::Matrix* input);

  /// Grid coordinate of the owning rank.
  [[nodiscard]] const grid::Coord3& me() const { return me_; }

  /// True when the store was built from an input, also on a rank that
  /// owns no tile.
  [[nodiscard]] bool holds_input() const { return holds_input_; }

  /// The owned `rows` at columns col0 .. col0 + v as a rows.size() x v
  /// Matrix (col0 a multiple of v); an empty Matrix from a store without
  /// input.
  [[nodiscard]] linalg::Matrix read(std::span<const int> rows, int col0) const;

  /// Pointer to the owned (It, Jt) tile.
  [[nodiscard]] double* tile_at(int tile_row, int tile_col) {
    return data() + row_offset(tile_row * v_) + col_offset(tile_col * v_);
  }

  /// The packed tiles: the owned element (row, col) lives at
  /// data()[row_offset(row) + col_offset(col)]. The address is separable,
  /// so a kernel can take a tile-row list and a tile-column list as
  /// offsets (linalg::schur_update_mapped).
  [[nodiscard]] double* data() { return tiles_.data(); }

  /// Row part of an owned element's offset: tile row It = row / v, then
  /// row % v rows into the tile.
  [[nodiscard]] std::size_t row_offset(int row) const {
    return (static_cast<std::size_t>(row / v_ / px_) * ltc_ * v_ + row % v_) *
           v_;
  }

  /// Column part of an owned element's offset: tile column Jt = col / v,
  /// then col % v columns into the tile.
  [[nodiscard]] std::size_t col_offset(int col) const {
    return static_cast<std::size_t>(col / v_ / py_) * v_ * v_ + col % v_;
  }

  /// Element reference inside the owned tile covering (row, col).
  [[nodiscard]] double& elem_at(int row, int col) {
    return data()[row_offset(row) + col_offset(col)];
  }

 private:
  grid::Coord3 me_;
  int v_ = 0, px_ = 1, py_ = 1, ltc_ = 0;
  bool holds_input_ = false;
  std::vector<double> tiles_;
};

/// Lazy panel reduction (tag 1): the ranks (me.px, py_c, l != l_star)
/// ship the v columns of panel column t in `rows` to (me.px, py_c, l_star)
/// and zero their copies; the reducing layer sums them in place. `rows`
/// lists the rows this rank holds in the panel, ascending.
void reduce_panel_column(const Plan25D& plan, TileStore& store,
                         const simnet::Comm& comm, int t, int l_star, int py_c,
                         std::span<const int> rows);

/// The layer's k-slice of a multicast row panel.
struct RowSlice {
  linalg::Matrix values;  ///< rows x slice.size(); empty for a ghost
  grid::Range slice;      ///< k-range within the v panel columns
};

/// Layer-sliced row-panel multicast (tag 8): the leader
/// (me.px, py_c, l_star) sends each layer l only its v/c k-slice of the
/// solved `rows` x v `panel`, one shared buffer per layer to the whole
/// process row; every rank of process row me.px receives its slice.
/// `rows` is the panel height of this process row; the leader packs
/// `panel` when it holds one and sends ghosts otherwise.
[[nodiscard]] RowSlice multicast_row_panel(const Plan25D& plan,
                                           const grid::Coord3& me,
                                           const simnet::Comm& comm, int t,
                                           int l_star, int py_c,
                                           std::size_t rows,
                                           const linalg::Matrix& panel);

}  // namespace conflux::factor
