/// \file collectives.hpp
/// Group collectives built from point-to-point messages with the tree shapes
/// production MPI implementations use (binomial broadcast and reduce).
/// Volumes therefore match what Score-P would count for the equivalent MPI
/// calls. Broadcast trees forward one immutable shared payload hop-to-hop
/// (zero-copy fan-out; see message.hpp).
///
/// Every rank in the group must call the collective with the same tag.
/// Internal rounds derive sub-tags, so a user tag must not be reused for a
/// different concurrent operation within the same group.
#pragma once

#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "simnet/comm.hpp"

namespace conflux::simnet {

/// An ordered set of distinct global ranks participating in a collective.
/// Membership lookup is precomputed at construction: `index_of` is O(1) for
/// contiguous rank ranges (the common "world" case) and O(log n) otherwise —
/// it sits on the entry path of every collective round, so it must not be a
/// linear scan.
class Group {
 public:
  Group() = default;
  Group(std::initializer_list<int> ranks)
      : Group(std::vector<int>(ranks)) {}
  explicit Group(std::vector<int> ranks);

  /// The trivial group [0, n).
  [[nodiscard]] static Group iota(int n);

  [[nodiscard]] int size() const { return static_cast<int>(ranks_.size()); }
  [[nodiscard]] const std::vector<int>& ranks() const { return ranks_; }

  /// Global rank of the member at `index`.
  [[nodiscard]] int at(int index) const {
    return ranks_[static_cast<std::size_t>(index)];
  }

  /// Index of `rank` within the group; -1 when absent.
  [[nodiscard]] int index_of(int rank) const;

 private:
  std::vector<int> ranks_;
  int contiguous_base_ = -1;  ///< ranks_[i] == base + i when >= 0
  std::vector<std::pair<int, int>> sorted_;  ///< (rank, index), by rank
};

/// Binomial-tree broadcast of one immutable payload from the group member
/// at `root_index`. The root passes `buf` — null for a ghost, whose wire
/// size alone travels — and its wire size `logical_bytes` (4 B per int for
/// `pack_ints` payloads); the other members' arguments are ignored. Every
/// member gets back a view of the root's payload (empty for a ghost)
/// carrying that wire size. Each hop forwards the same shared buffer: zero
/// copies.
BufferView bcast(const Comm& comm, const Group& group, int root_index,
                 SharedBuffer buf, std::size_t logical_bytes, Tag tag);

/// Broadcast of `data` (8 B per element); non-root buffers are overwritten.
void bcast(const Comm& comm, const Group& group, int root_index,
           std::vector<double>& data, Tag tag);

/// Binomial-tree sum-reduction into the member at `root_index` (in place:
/// on the root, `inout` holds the element-wise total on return; on other
/// ranks it is consumed).
void reduce_sum(const Comm& comm, const Group& group, int root_index,
                std::span<double> inout, Tag tag);

/// Ghost reduction with the same tree shape and byte counts (the folded
/// dry panel of lu/scalapack2d.cpp).
void reduce_ghost(const Comm& comm, const Group& group, int root_index,
                  std::size_t logical_bytes, Tag tag);

/// Max-magnitude-and-location allreduce, the pivot-search primitive of
/// partial pivoting: combines (|value|, global_row) pairs, 12 B on the wire
/// per message (double + int).
struct MaxLoc {
  double value = 0.0;
  int location = -1;
};
MaxLoc allreduce_maxloc(const Comm& comm, const Group& group, MaxLoc mine,
                        Tag tag);

}  // namespace conflux::simnet
