/// \file grid_opt.hpp
/// Processor Grid Optimization (§8, "Implementation"): given the ranks
/// available, pick the [Px, Py, c] grid with the lowest modeled
/// communication cost, even if that leaves a minority of ranks idle.
/// Greedy use of every rank (what LibSci does) produces the communication
/// outliers visible in the paper's Fig. 6a inset; this module reproduces
/// both behaviours.
#pragma once

#include "grid/grid3d.hpp"

namespace conflux::grid {

/// Result of a grid search.
struct GridChoice {
  Grid3D grid{1, 1, 1};
  double modeled_cost_per_rank = 0.0;  ///< elements communicated (leading terms)
  int idle_ranks = 0;                  ///< ranks deliberately left out
};

/// Leading-order per-rank communication cost (in elements) of COnfLUX on an
/// [Px, Py, c] grid for an N x N matrix:
///
///   N^2/(2c) * (1/Px + 1/Py)      panel multicasts (steps 8/10)
/// + N^2 * (c-1)/(Px*Py*c)         lazy panel reductions (steps 1/5)
///
/// Minimizing this under Px*Py*c <= P reproduces the classic 2.5D optimum
/// c ~ P^(1/3) (and c is additionally capped by the memory budget).
[[nodiscard]] double conflux_cost_per_rank(double n, int px, int py, int c);

/// Leading-order per-rank communication cost (in elements) of COnfCHOX
/// (the 2.5D Cholesky of the journal extension) on an [Px, Py, c] grid:
/// the two layer-sliced panel multicasts cost what COnfLUX's do,
///
///   N^2/(2c) * (1/Px + 1/Py)      row + transposed panel multicasts
/// + N^2 * (c-1)/(2*Px*Py*c)       lazy panel reduction (column strip only)
///
/// — only the column strip needs lazy reduction (the row panel is the
/// transposed column panel), so the reduction term is half of COnfLUX's.
[[nodiscard]] double confchox_cost_per_rank(double n, int px, int py, int c);

/// Per-rank cost function over an [Px, Py, c] grid, in elements — the
/// family-specific objective optimize_grid minimizes
/// (conflux_cost_per_rank for LU, confchox_cost_per_rank for Cholesky).
using GridCostFn = double (*)(double n, int px, int py, int c);

/// Search all [Px, Py, c] with Px*Py*c <= p_available for the grid with
/// the lowest `cost` (default: the COnfLUX objective).
/// `mem_elements_per_rank` caps replication: each rank stores
/// N^2 * c / (Px*Py*c) = N^2/(Px*Py) elements, which must fit in the budget
/// (pass <= 0 for an unlimited budget). `max_layers`, if positive, caps c
/// (used by ablations to force 2D operation).
[[nodiscard]] GridChoice optimize_grid(int p_available, int n,
                                       double mem_elements_per_rank = -1.0,
                                       int max_layers = 0,
                                       GridCostFn cost = conflux_cost_per_rank);

/// LibSci/ScaLAPACK-style greedy 2D grid: uses *all* P ranks with the most
/// square divisor pair Pr x Pc = P (degrades to 1 x P for primes — the
/// source of the Fig. 6a outliers).
[[nodiscard]] Grid2D choose_grid_2d_all_ranks(int p);

/// SLATE-style 2D grid: near-square Pr = floor(sqrt P), Pc = floor(P / Pr),
/// leaving P - Pr*Pc ranks idle. Slightly better than the greedy divisor
/// grid at awkward P.
[[nodiscard]] Grid2D choose_grid_2d_near_square(int p);

/// The 2.5D implementations' shared block-size target (§7.2): v = a * c
/// for a small constant a — big enough for per-message efficiency, small
/// enough that the per-step A00/L00 broadcast stays a lower-order term —
/// with the n/256 floor bounding the number of outer steps. The engines
/// (lu::Block25D, cholesky::Confchox25D) and their cost models all consume
/// this one rule, so the modeled lower-order terms track the implemented v.
[[nodiscard]] int default_block_target(int n, int c);

/// Pick the COnfLUX block size v: a small multiple of the replication depth
/// c (the minimum the algorithm needs, §7.2), raised toward `target` for
/// per-message efficiency, and constrained to divide N (this implementation
/// keeps tiles uniform). Returns the divisor of N closest to
/// clamp(target, c, N).
[[nodiscard]] int choose_block_size(int n, int c, int target = 128);

}  // namespace conflux::grid
