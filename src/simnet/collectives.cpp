#include "simnet/collectives.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/assert.hpp"

namespace conflux::simnet {

namespace {

/// Sub-tag composition for internal rounds: shift the user tag and add the
/// round/sub-operation id.
[[nodiscard]] constexpr Tag sub_tag(Tag tag, unsigned op, unsigned round) {
  return (tag << 8) | (static_cast<Tag>(op) << 5) | round;
}

/// Virtual rank relative to the root so binomial trees can be rooted
/// anywhere.
[[nodiscard]] int vrank_of(int index, int root_index, int n) {
  return (index - root_index + n) % n;
}
[[nodiscard]] int real_of(int vrank, int root_index, const Group& g) {
  return g.at((vrank + root_index) % g.size());
}

/// The one binomial-tree broadcast walk (bcast and the second half of
/// allreduce_maxloc). Member v (relative to the root) receives the root's
/// payload in round r from v - 2^r, 2^r being v's highest set bit, then
/// forwards it to v + 2^k in each later round k — one refcount bump per
/// child, zero copies, and a ghost forwarded as a ghost.
BufferView bcast_walk(const Comm& comm, const Group& group, int root_index,
                      SharedBuffer buf, std::size_t logical_bytes, Tag tag,
                      unsigned op) {
  const int n = group.size();
  const int me = group.index_of(comm.rank());
  CONFLUX_EXPECTS(me >= 0 && root_index >= 0 && root_index < n);
  const int v = vrank_of(me, root_index, n);
  unsigned round = 0;
  int mask = 1;
  if (v != 0) {
    while (mask * 2 <= v) {
      mask <<= 1;
      ++round;
    }
    BufferView got = comm.recv_view(real_of(v - mask, root_index, group),
                                    sub_tag(tag, op, round));
    logical_bytes = got.logical_bytes();
    buf = got.shared();
    mask <<= 1;
    ++round;
  }
  for (; mask < n; mask <<= 1, ++round)
    if (v + mask < n)
      comm.send_shared(real_of(v + mask, root_index, group),
                       sub_tag(tag, op, round), buf, logical_bytes);
  return BufferView(std::move(buf), logical_bytes);
}

}  // namespace

Group::Group(std::vector<int> ranks) : ranks_(std::move(ranks)) {
  bool contiguous = true;
  for (std::size_t i = 1; i < ranks_.size(); ++i)
    if (ranks_[i] != ranks_[0] + static_cast<int>(i)) {
      contiguous = false;
      break;
    }
  if (contiguous && !ranks_.empty()) {
    contiguous_base_ = ranks_[0];
    return;
  }
  sorted_.reserve(ranks_.size());
  for (std::size_t i = 0; i < ranks_.size(); ++i)
    sorted_.emplace_back(ranks_[i], static_cast<int>(i));
  std::sort(sorted_.begin(), sorted_.end());
}

Group Group::iota(int n) {
  std::vector<int> ranks(static_cast<std::size_t>(n));
  std::iota(ranks.begin(), ranks.end(), 0);
  return Group(std::move(ranks));
}

int Group::index_of(int rank) const {
  if (contiguous_base_ >= 0) {
    const int i = rank - contiguous_base_;
    return (i >= 0 && i < size()) ? i : -1;
  }
  const auto it = std::lower_bound(
      sorted_.begin(), sorted_.end(), std::make_pair(rank, 0),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  return (it != sorted_.end() && it->first == rank) ? it->second : -1;
}

BufferView bcast(const Comm& comm, const Group& group, int root_index,
                 SharedBuffer buf, std::size_t logical_bytes, Tag tag) {
  return bcast_walk(comm, group, root_index, std::move(buf), logical_bytes,
                    tag, 0);
}

void bcast(const Comm& comm, const Group& group, int root_index,
           std::vector<double>& data, Tag tag) {
  const bool root = group.index_of(comm.rank()) == root_index;
  BufferView got = bcast(
      comm, group, root_index,
      root ? make_shared_buffer(std::span<const double>(data)) : nullptr,
      data.size() * sizeof(double), tag);
  if (!root) data = std::move(got).take();
}

void reduce_sum(const Comm& comm, const Group& group, int root_index,
                std::span<double> inout, Tag tag) {
  const int n = group.size();
  const int me = group.index_of(comm.rank());
  CONFLUX_EXPECTS(me >= 0 && root_index >= 0 && root_index < n);
  const int v = vrank_of(me, root_index, n);

  unsigned round = 0;
  for (int mask = 1; mask < n; mask <<= 1, ++round) {
    if ((v & mask) != 0) {
      comm.send(real_of(v - mask, root_index, group), sub_tag(tag, 2, round),
                std::span<const double>(inout.data(), inout.size()));
      return;  // leaf for the remaining rounds
    }
    if (v + mask < n) {
      const BufferView other = comm.recv_view(
          real_of(v + mask, root_index, group), sub_tag(tag, 2, round));
      CONFLUX_ASSERT(other.size() == inout.size());
      const double* src = other.data();
      for (std::size_t i = 0; i < inout.size(); ++i) inout[i] += src[i];
    }
  }
}

void reduce_ghost(const Comm& comm, const Group& group, int root_index,
                  std::size_t logical_bytes, Tag tag) {
  const int n = group.size();
  const int me = group.index_of(comm.rank());
  CONFLUX_EXPECTS(me >= 0 && root_index >= 0 && root_index < n);
  const int v = vrank_of(me, root_index, n);

  unsigned round = 0;
  for (int mask = 1; mask < n; mask <<= 1, ++round) {
    if ((v & mask) != 0) {
      comm.send_ghost(real_of(v - mask, root_index, group),
                      sub_tag(tag, 2, round), logical_bytes);
      return;
    }
    if (v + mask < n)
      (void)comm.recv_ghost(real_of(v + mask, root_index, group),
                            sub_tag(tag, 2, round));
  }
}

void allreduce_sum(const Comm& comm, const Group& group,
                   std::span<double> inout, Tag tag) {
  reduce_sum(comm, group, 0, inout, tag);
  std::vector<double> buf(inout.begin(), inout.end());
  bcast(comm, group, 0, buf, sub_tag(tag, 3, 0));
  std::copy(buf.begin(), buf.end(), inout.begin());
}

MaxLoc allreduce_maxloc(const Comm& comm, const Group& group, MaxLoc mine,
                        Tag tag) {
  const int n = group.size();
  const int me = group.index_of(comm.rank());
  CONFLUX_EXPECTS(me >= 0);
  // Tree reduce to index 0 with 12-byte pair messages, then broadcast back.
  constexpr std::size_t kPairBytes = sizeof(double) + sizeof(int);
  auto encode = [](MaxLoc m) {
    return make_shared_buffer(
        std::vector<double>{m.value, static_cast<double>(m.location)});
  };
  auto combine = [](MaxLoc a, MaxLoc b) {
    if (b.value > a.value ||
        (b.value == a.value && b.location >= 0 &&
         (a.location < 0 || b.location < a.location)))
      return b;
    return a;
  };

  unsigned round = 0;
  bool leaf = false;
  for (int mask = 1; mask < n && !leaf; mask <<= 1, ++round) {
    if ((me & mask) != 0) {
      comm.send_shared(group.at(me - mask), sub_tag(tag, 4, round),
                       encode(mine), kPairBytes);
      leaf = true;
    } else if (me + mask < n) {
      const BufferView other =
          comm.recv_view(group.at(me + mask), sub_tag(tag, 4, round));
      mine = combine(mine, {other[0], static_cast<int>(other[1])});
    }
  }
  // Broadcast the winner down the same tree, zero-copy.
  const BufferView got = bcast_walk(
      comm, group, 0, me == 0 ? encode(mine) : nullptr, kPairBytes, tag, 5);
  return {got[0], static_cast<int>(got[1])};
}

void barrier(const Comm& comm, const Group& group, Tag tag) {
  const int n = group.size();
  const int me = group.index_of(comm.rank());
  CONFLUX_EXPECTS(me >= 0);
  // Dissemination barrier: ceil(log2 n) rounds of zero-byte messages.
  unsigned round = 0;
  for (int dist = 1; dist < n; dist <<= 1, ++round) {
    const int to = (me + dist) % n;
    const int from = (me - dist % n + n) % n;
    comm.send_ghost(group.at(to), sub_tag(tag, 7, round), 0);
    (void)comm.recv_ghost(group.at(from), sub_tag(tag, 7, round));
  }
}

}  // namespace conflux::simnet
