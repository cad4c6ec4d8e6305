#include "verify/comm_graph.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "support/assert.hpp"

namespace conflux::verify {

CommGraph CommGraph::build(const simnet::TraceRecorder& trace) {
  CommGraph g;
  g.nranks_ = trace.nranks();
  g.rank_begin_.assign(static_cast<std::size_t>(g.nranks_) + 1, 0);
  for (int r = 0; r < g.nranks_; ++r)
    g.rank_begin_[static_cast<std::size_t>(r) + 1] =
        g.rank_begin_[static_cast<std::size_t>(r)] +
        static_cast<int>(trace.rank_events(r).size());
  g.nodes_.reserve(static_cast<std::size_t>(g.rank_begin_.back()));
  for (int r = 0; r < g.nranks_; ++r) {
    const auto& events = trace.rank_events(r);
    for (std::size_t i = 0; i < events.size(); ++i) {
      const simnet::TraceEvent& e = events[i];
      g.nodes_.push_back({r, static_cast<int>(i), e.kind, e.peer, e.tag,
                          e.bytes, -1, e.t_ns});
    }
  }

  // FIFO matching per directed (src, dst, tag) channel: k-th send pairs
  // with k-th recv, exactly the fabric's dequeue order.
  std::map<std::tuple<int, int, simnet::Tag>, std::pair<std::vector<int>,
                                                        std::vector<int>>>
      channels;
  for (std::size_t i = 0; i < g.nodes_.size(); ++i) {
    const CommNode& node = g.nodes_[i];
    if (node.kind == simnet::EventKind::Send)
      channels[{node.rank, node.peer, node.tag}].first.push_back(
          static_cast<int>(i));
    else
      channels[{node.peer, node.rank, node.tag}].second.push_back(
          static_cast<int>(i));
  }
  for (auto& [key, lists] : channels) {
    auto& [sends, recvs] = lists;
    const std::size_t paired = std::min(sends.size(), recvs.size());
    for (std::size_t k = 0; k < paired; ++k) {
      g.nodes_[static_cast<std::size_t>(sends[k])].match = recvs[k];
      g.nodes_[static_cast<std::size_t>(recvs[k])].match = sends[k];
    }
  }
  return g;
}

void CommGraph::compute_clocks() const {
  const std::size_t n = nodes_.size();
  const std::size_t width = static_cast<std::size_t>(nranks_);
  clocks_.assign(n * width, 0);
  std::vector<char> issued(n, 0);
  std::vector<int> ptr(width, 0);

  // Causal replay: sends issue as soon as their program predecessors have;
  // a recv additionally needs its matched send issued. Each completed node
  // gets the component-wise max of its predecessor clocks, stamped with its
  // own position — standard vector clocks over the executable prefix.
  // (Nodes a deadlock keeps from executing retain zero clocks, so
  // happens_before stays conservatively false for them.)
  bool progress = true;
  while (progress) {
    progress = false;
    for (int r = 0; r < nranks_; ++r) {
      const int end = rank_begin_[static_cast<std::size_t>(r) + 1] -
                      rank_begin_[static_cast<std::size_t>(r)];
      while (ptr[static_cast<std::size_t>(r)] < end) {
        const int seq = ptr[static_cast<std::size_t>(r)];
        const std::size_t idx = static_cast<std::size_t>(index_of(r, seq));
        const CommNode& node = nodes_[idx];
        if (node.kind == simnet::EventKind::Recv &&
            (node.match < 0 || !issued[static_cast<std::size_t>(node.match)]))
          break;
        int* clock = &clocks_[idx * width];
        if (seq > 0) {
          const int* prev =
              &clocks_[static_cast<std::size_t>(index_of(r, seq - 1)) * width];
          std::copy(prev, prev + width, clock);
        }
        clock[static_cast<std::size_t>(r)] = seq + 1;
        if (node.kind == simnet::EventKind::Recv) {
          const int* sent =
              &clocks_[static_cast<std::size_t>(node.match) * width];
          for (std::size_t k = 0; k < width; ++k)
            clock[k] = std::max(clock[k], sent[k]);
        }
        issued[idx] = 1;
        ptr[static_cast<std::size_t>(r)] = seq + 1;
        progress = true;
      }
    }
  }
}

bool CommGraph::happens_before(int a, int b) const {
  CONFLUX_EXPECTS(a >= 0 && a < static_cast<int>(nodes_.size()) && b >= 0 &&
                  b < static_cast<int>(nodes_.size()));
  if (a == b) return false;
  if (clocks_.empty()) compute_clocks();
  const CommNode& na = nodes_[static_cast<std::size_t>(a)];
  return clocks_[static_cast<std::size_t>(b) *
                     static_cast<std::size_t>(nranks_) +
                 static_cast<std::size_t>(na.rank)] >= na.seq + 1;
}

}  // namespace conflux::verify
