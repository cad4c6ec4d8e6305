/// \file comm_graph.hpp
/// The CommCheck intermediate representation: a communication graph built
/// from a TraceRecorder's per-rank event streams. Nodes are (rank, seq, op)
/// events in each rank's program order; edges are implied — program order
/// within a rank, and send -> matching-recv across ranks. Matching mirrors
/// the fabric's semantics exactly: FIFO pairing of the k-th send with the
/// k-th receive on every directed (src, dst, tag) channel, which is the
/// ordering guarantee Network gives (and MPI gives for matching
/// send/receive pairs).
///
/// Everything the analysis passes (passes.hpp) prove — deadlock freedom,
/// complete pairing, tag hygiene, volume conservation — is proven over this
/// IR, statically, without re-running the schedule.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "simnet/trace.hpp"

namespace conflux::verify {

/// One node of the communication graph.
struct CommNode {
  int rank = -1;  ///< rank whose stream this event is on
  int seq = -1;   ///< position within that rank's program order
  simnet::EventKind kind = simnet::EventKind::Send;
  int peer = -1;  ///< destination (Send) or source (Recv)
  simnet::Tag tag = 0;
  std::uint64_t bytes = 0;
  int match = -1;  ///< global index of the matched counterpart; -1 unmatched
  std::uint64_t t_ns = 0;  ///< completion time (ns since recorder epoch)
};

/// The IR. Nodes are stored grouped by rank, ascending seq, so a rank's
/// stream is one contiguous span and (rank, seq) -> global index is O(1).
class CommGraph {
 public:
  /// Build the graph (including send/recv matching) from recorded streams.
  [[nodiscard]] static CommGraph build(const simnet::TraceRecorder& trace);

  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] const std::vector<CommNode>& nodes() const { return nodes_; }

  /// Rank `r`'s events, in program order.
  [[nodiscard]] std::span<const CommNode> rank_nodes(int r) const {
    return std::span<const CommNode>(nodes_)
        .subspan(static_cast<std::size_t>(rank_begin_[r]),
                 static_cast<std::size_t>(rank_begin_[r + 1] -
                                          rank_begin_[r]));
  }

  /// Global node index of rank `r`'s `seq`-th event.
  [[nodiscard]] int index_of(int r, int seq) const {
    return rank_begin_[r] + seq;
  }

  /// True when node `b` is causally after node `a` (program order and
  /// send->recv edges, transitively). Used by the tag-collision pass to
  /// decide whether two same-tag messages can ever be simultaneously in
  /// flight. Indices are global node indices; lazily computes vector clocks
  /// on first use (O(nodes * nranks) space).
  [[nodiscard]] bool happens_before(int a, int b) const;

 private:
  void compute_clocks() const;

  int nranks_ = 0;
  std::vector<CommNode> nodes_;
  std::vector<int> rank_begin_;  ///< nranks_+1 offsets into nodes_

  /// clocks_[node * nranks_ + r] = number of rank r's leading events that
  /// happen before-or-at `node`. Empty until happens_before is first asked.
  mutable std::vector<int> clocks_;
};

}  // namespace conflux::verify
