/// \file block_cyclic.hpp
/// Block-cyclic index arithmetic shared by all distributed LU variants:
/// tiles of size b are dealt round-robin to a 1D ring of p owners.
#pragma once

#include <vector>

#include "support/assert.hpp"

namespace conflux::grid {

/// 1D block-cyclic map of `n` global indices in tiles of `b` over `p`
/// owners: global index g lives in tile g / b, owned by (g / b) % p.
class BlockCyclic1D {
 public:
  BlockCyclic1D(int n, int b, int p) : n_(n), b_(b), p_(p) {
    CONFLUX_EXPECTS(n >= 0 && b >= 1 && p >= 1);
  }

  [[nodiscard]] int extent() const { return n_; }
  [[nodiscard]] int block() const { return b_; }
  [[nodiscard]] int owners() const { return p_; }

  /// Number of tiles overall (last may be partial).
  [[nodiscard]] int tiles() const { return (n_ + b_ - 1) / b_; }

  /// Tile index of a global index.
  [[nodiscard]] int tile_of(int g) const {
    CONFLUX_EXPECTS(g >= 0 && g < n_);
    return g / b_;
  }

  /// Owner of a global index.
  [[nodiscard]] int owner_of(int g) const { return tile_of(g) % p_; }

  /// Owner of a tile.
  [[nodiscard]] int tile_owner(int t) const {
    CONFLUX_EXPECTS(t >= 0 && t < tiles());
    return t % p_;
  }

  /// Size of tile t (b except possibly the last).
  [[nodiscard]] int tile_size(int t) const {
    CONFLUX_EXPECTS(t >= 0 && t < tiles());
    const int start = t * b_;
    return std::min(b_, n_ - start);
  }

  /// Local tile slot of tile t on its owner (t / p).
  [[nodiscard]] int local_tile(int t) const { return t / p_; }

  /// Number of global indices owned by rank r.
  [[nodiscard]] int extent_of_owner(int r) const {
    int count = 0;
    for (int t = r; t < tiles(); t += p_) count += tile_size(t);
    return count;
  }

  /// Local contiguous position of global index g on its owner (tiles packed
  /// in increasing tile order).
  [[nodiscard]] int local_of(int g) const {
    const int t = tile_of(g);
    return local_tile(t) * b_ + (g - t * b_);
  }

  /// All global indices owned by rank r, ascending.
  [[nodiscard]] std::vector<int> indices_of_owner(int r) const {
    std::vector<int> out;
    out.reserve(static_cast<std::size_t>(extent_of_owner(r)));
    for (int t = r; t < tiles(); t += p_) {
      const int start = t * b_;
      const int stop = start + tile_size(t);
      for (int g = start; g < stop; ++g) out.push_back(g);
    }
    return out;
  }

 private:
  int n_, b_, p_;
};

/// Split `n` items into `parts` near-equal contiguous chunks; returns the
/// half-open range of chunk `part`. Used for the 1D panel layouts (steps
/// 4/6 of Algorithm 1).
struct Range {
  int begin = 0;
  int end = 0;
  [[nodiscard]] int size() const { return end - begin; }
};

[[nodiscard]] inline Range chunk_range(int n, int parts, int part) {
  CONFLUX_EXPECTS(parts >= 1 && part >= 0 && part < parts);
  const long long lo = static_cast<long long>(n) * part / parts;
  const long long hi = static_cast<long long>(n) * (part + 1) / parts;
  return {static_cast<int>(lo), static_cast<int>(hi)};
}

/// Inverse of chunk_range: which chunk does item `i` of `n` fall into?
[[nodiscard]] inline int chunk_of(int n, int parts, int i) {
  CONFLUX_EXPECTS(n > 0 && i >= 0 && i < n);
  // chunk k satisfies floor(n*k/parts) <= i < floor(n*(k+1)/parts).
  long long k = (static_cast<long long>(i) * parts + parts - 1) / n;
  while (k > 0 && chunk_range(n, parts, static_cast<int>(k)).begin > i) --k;
  while (k + 1 < parts && chunk_range(n, parts, static_cast<int>(k)).end <= i)
    ++k;
  return static_cast<int>(k);
}

}  // namespace conflux::grid
