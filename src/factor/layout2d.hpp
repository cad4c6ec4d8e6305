/// \file layout2d.hpp
/// The 2D block-cyclic layout shared by the ScaLAPACK-style baselines of
/// both factorization families (lu/scalapack2d.cpp, which the CANDMC proxy
/// replicates per layer, and cholesky/scalapack2d_chol.cpp): each rank's
/// owned rows and columns, its local block, and the process-row and
/// process-column groups the panel broadcasts run over.
#pragma once

#include <algorithm>
#include <vector>

#include "grid/block_cyclic.hpp"
#include "grid/grid3d.hpp"
#include "linalg/matrix.hpp"
#include "simnet/collectives.hpp"

namespace conflux::factor {

/// Per-rank view of an N x N matrix distributed block-cyclically (block nb)
/// over a Pr x Pc grid, built from the run's input (factor::run_input):
/// `loc` holds this rank's block of it, and stays empty without an input
/// (a dry run).
struct Local2D {
  /// The view of the rank at grid position `local_id` (0-based within g).
  Local2D(int n, int nb, const grid::Grid2D& g, int local_id,
          const linalg::Matrix* input)
      : pr(g.row_of(local_id)),
        pc(g.col_of(local_id)),
        rowmap(n, nb, g.rows()),
        colmap(n, nb, g.cols()),
        my_rows(rowmap.indices_of_owner(pr)),
        my_cols(colmap.indices_of_owner(pc)),
        holds_input_(input != nullptr) {
    if (input == nullptr) return;
    loc = linalg::Matrix(static_cast<int>(my_rows.size()),
                         static_cast<int>(my_cols.size()));
    for (std::size_t i = 0; i < my_rows.size(); ++i)
      for (std::size_t j = 0; j < my_cols.size(); ++j)
        loc(static_cast<int>(i), static_cast<int>(j)) =
            (*input)(my_rows[i], my_cols[j]);
  }

  int pr = 0, pc = 0;
  grid::BlockCyclic1D rowmap;
  grid::BlockCyclic1D colmap;
  std::vector<int> my_rows;  ///< owned global rows, ascending
  std::vector<int> my_cols;  ///< owned global cols, ascending
  linalg::Matrix loc;        ///< local block (my_rows x my_cols)

  /// True when the view was built from an input, also on a rank that owns
  /// no row or column.
  [[nodiscard]] bool holds_input() const { return holds_input_; }

  /// Write `loc` into `out` at its global positions, skipping the entries
  /// above the diagonal when `lower_only`.
  void gather_into(linalg::Matrix& out, bool lower_only) const {
    for (std::size_t i = 0; i < my_rows.size(); ++i)
      for (std::size_t j = 0; j < my_cols.size(); ++j)
        if (!lower_only || my_rows[i] >= my_cols[j])
          out(my_rows[i], my_cols[j]) =
              loc(static_cast<int>(i), static_cast<int>(j));
  }

  [[nodiscard]] int lrow(int g) const { return rowmap.local_of(g); }
  [[nodiscard]] int lcol(int g) const { return colmap.local_of(g); }

  /// First local row/col index whose global index is >= g.
  [[nodiscard]] int lrow_lower_bound(int g) const {
    return static_cast<int>(
        std::lower_bound(my_rows.begin(), my_rows.end(), g) -
        my_rows.begin());
  }
  [[nodiscard]] int lcol_lower_bound(int g) const {
    return static_cast<int>(
        std::lower_bound(my_cols.begin(), my_cols.end(), g) -
        my_cols.begin());
  }

 private:
  bool holds_input_ = false;
};

/// The process column pc (all process rows) as a group of global ranks
/// base_rank + g.rank_of(pr, pc).
[[nodiscard]] inline simnet::Group col_group(const grid::Grid2D& g, int pc,
                                             int base_rank) {
  std::vector<int> ranks;
  ranks.reserve(static_cast<std::size_t>(g.rows()));
  for (int pr = 0; pr < g.rows(); ++pr)
    ranks.push_back(base_rank + g.rank_of(pr, pc));
  return simnet::Group(std::move(ranks));
}

/// The process row pr (all process columns) as a group of global ranks
/// base_rank + g.rank_of(pr, pc).
[[nodiscard]] inline simnet::Group row_group(const grid::Grid2D& g, int pr,
                                             int base_rank) {
  std::vector<int> ranks;
  ranks.reserve(static_cast<std::size_t>(g.cols()));
  for (int pc = 0; pc < g.cols(); ++pc)
    ranks.push_back(base_rank + g.rank_of(pr, pc));
  return simnet::Group(std::move(ranks));
}

}  // namespace conflux::factor
