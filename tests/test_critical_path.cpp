// Tests for ConfScope's critical-path extraction: the path is a
// happens-before chain whose makespan tracks the run's wall clock, bounds
// every rank's busy time, and shifts through an injected delay.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "factor/factorization.hpp"
#include "lu/lu_common.hpp"
#include "models/machines.hpp"
#include "simnet/comm.hpp"
#include "simnet/network.hpp"
#include "simnet/spmd.hpp"
#include "simnet/trace.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"
#include "verify/comm_graph.hpp"
#include "verify/critical_path.hpp"

namespace conflux::verify {
namespace {

bool path_visits_rank(const CommGraph& g, const CriticalPath& path, int rank) {
  for (const int idx : path.nodes)
    if (g.nodes()[static_cast<std::size_t>(idx)].rank == rank) return true;
  return false;
}

TEST(CriticalPath, EmptyGraphYieldsEmptyPath) {
  simnet::TraceRecorder rec(2);
  const CriticalPath path = extract_critical_path(CommGraph::build(rec));
  EXPECT_TRUE(path.nodes.empty());
  EXPECT_EQ(path.seconds, 0.0);
  EXPECT_EQ(path.end_rank, -1);
}

TEST(CriticalPath, TracksDryRunWallClockAndBoundsBusyTime) {
  simnet::TraceRecorder rec;
  telemetry::TelemetryBoard board;
  lu::LuConfig cfg;
  cfg.n = 256;
  cfg.p = 8;
  cfg.mode = lu::Mode::DryRun;
  cfg.trace = &rec;
  cfg.telemetry = &board;
  Stopwatch sw;
  (void)lu::make_algorithm("COnfLUX")->run(nullptr, cfg);
  const double run_wall = sw.seconds();

  const CommGraph graph = CommGraph::build(rec);
  const CriticalPath path = extract_critical_path(graph, board);

  ASSERT_FALSE(path.nodes.empty());
  EXPECT_GT(path.seconds, 0.0);
  // The makespan cannot exceed the measured wall time of the whole run
  // (trace epoch starts at attach, inside the Stopwatch interval), and the
  // ISSUE's acceptance band: within 5% of the telemetry wall clock.
  EXPECT_LE(path.seconds, run_wall);
  // The two epochs (trace attach, telemetry attach) are a hair apart, so
  // the comparison carries a small absolute cushion on top of the 5% band.
  EXPECT_GE(path.seconds, board.wall_seconds() * 0.95 - 2e-3);
  EXPECT_LE(path.seconds, board.wall_seconds() * 1.05 + 2e-3);
  // No rank can compute longer than the makespan.
  for (int r = 0; r < board.nranks(); ++r)
    EXPECT_GE(path.seconds + 1e-9, board.busy_seconds(r)) << "rank " << r;

  // Consecutive path nodes form a happens-before chain, and completion
  // times never decrease along it.
  for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
    EXPECT_TRUE(graph.happens_before(path.nodes[i], path.nodes[i + 1]))
        << "edge " << i;
    EXPECT_LE(graph.nodes()[static_cast<std::size_t>(path.nodes[i])].t_ns,
              graph.nodes()[static_cast<std::size_t>(path.nodes[i + 1])].t_ns);
  }

  // Slack: zero (to rounding) for some rank, never negative, never above
  // the makespan.
  double min_slack = path.seconds;
  for (const double s : path.slack_seconds) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, path.seconds + 1e-9);
    min_slack = std::min(min_slack, s);
  }
  EXPECT_LT(min_slack, path.seconds);
}

TEST(CriticalPath, VirtualTimePathEndsAtPredictedMakespan) {
  // In virtual time the trace and the telemetry board read the ranks'
  // virtual clocks, so the critical path and the board's wall clock are
  // both the predicted makespan, to the ns the timestamps keep.
  const models::Machine m = models::machine_by_name("Piz Daint");
  for (const char* algo : {"COnfLUX", "LibSci"}) {
    simnet::TraceRecorder rec;
    telemetry::TelemetryBoard board;
    lu::LuConfig cfg;
    cfg.n = 512;
    cfg.p = 64;
    cfg.mode = lu::Mode::DryRun;
    cfg.trace = &rec;
    cfg.telemetry = &board;
    cfg.fabric.mode = simnet::ExecMode::VirtualTime;
    cfg.fabric.link = {m.alpha_s, m.beta_s_per_byte, m.gamma_s_per_flop};
    const auto result = lu::make_algorithm(algo)->run(nullptr, cfg);
    const CriticalPath path =
        extract_critical_path(CommGraph::build(rec), board);

    ASSERT_GT(result.predicted_seconds, 0.0) << algo;
    EXPECT_NEAR(path.seconds, result.predicted_seconds, 1e-9) << algo;
    EXPECT_NEAR(board.wall_seconds(), result.predicted_seconds, 1e-9)
        << algo;
  }
}

TEST(CriticalPath, ShiftsThroughAnInjectedDelay) {
  // Same diamond, two runs: whichever middle rank sleeps 30 ms becomes the
  // binding constraint, so the extracted path must route through it and
  // the makespan must absorb the delay. A sleeping rank holds its fiber
  // worker, so the schedule keeps the fast branch ahead of the sleep even
  // on one worker: ranks start in rank order, so the sink (rank 0) and
  // both middle ranks park before the source (rank 3) sends; the source
  // wakes the fast branch first; and the sink takes the slow branch first,
  // so the fast branch's message is already queued when the sink gets to
  // it.
  simnet::Network net(4);
  for (const int slow : {1, 2}) {
    const int fast = slow == 1 ? 2 : 1;
    simnet::TraceRecorder rec;
    net.set_trace(&rec);
    simnet::run_spmd(net, [slow, fast](simnet::Comm& comm) {
      const int me = comm.rank();
      if (me == 3) {
        comm.send(fast, fast, std::vector<double>{1.0});
        comm.send(slow, slow, std::vector<double>{2.0});
      } else if (me == 1 || me == 2) {
        (void)comm.recv_view(3, me);
        if (me == slow)
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
        comm.send(0, 10 + me, std::vector<double>{3.0});
      } else {
        (void)comm.recv_view(slow, 10 + slow);
        (void)comm.recv_view(fast, 10 + fast);
      }
    });
    const CommGraph graph = CommGraph::build(rec);
    const CriticalPath path = extract_critical_path(graph);

    EXPECT_EQ(path.end_rank, 0);
    EXPECT_GE(path.seconds, 0.030);
    EXPECT_TRUE(path_visits_rank(graph, path, slow)) << "slow=" << slow;
    // The path enters rank 0 through the slow branch's send, not the fast
    // branch's: the sink's receive of the fast message follows its own
    // earlier receive, which finished ~30 ms after the fast send.
    EXPECT_FALSE(path_visits_rank(graph, path, fast)) << "slow=" << slow;
    // The slow rank had (close to) no slack; the fast one had ~30 ms.
    EXPECT_LT(path.slack_seconds[static_cast<std::size_t>(slow)], 0.015);
    EXPECT_GT(path.slack_seconds[static_cast<std::size_t>(fast)], 0.015);
  }
}

TEST(CriticalPath, TelemetrySlackUsesBusyTime) {
  // The receiver is rank 0, so it parks before the sender's sleep begins
  // even on one fiber worker (ranks start in rank order).
  simnet::Network net(2);
  simnet::TraceRecorder rec;
  telemetry::TelemetryBoard board;
  net.set_trace(&rec);
  net.set_telemetry(&board);
  simnet::run_spmd(net, [&board](simnet::Comm& comm) {
    const telemetry::ScopedSpan span(&board, comm.rank(),
                                     telemetry::kSchurUpdate);
    if (comm.rank() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      comm.send(0, 1, std::vector<double>{1.0});
    } else {
      (void)comm.recv_view(1, 1);
    }
  });
  const CriticalPath path =
      extract_critical_path(CommGraph::build(rec), board);
  ASSERT_EQ(path.slack_seconds.size(), 2u);
  // Rank 1 was busy (sleeping inside its span) for ~the whole makespan;
  // rank 0 spent the window blocked in recv, so nearly all of its wall
  // time is slack under the busy-time definition.
  EXPECT_LT(path.slack_seconds[1], 0.010);
  EXPECT_GT(path.slack_seconds[0], 0.010);
}

}  // namespace
}  // namespace conflux::verify
