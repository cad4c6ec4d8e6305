// The virtual-time clock: cooperative-fiber scheduling at rank counts far
// beyond the host's cores, LogGP clock semantics, bit-identical
// determinism across repeated runs and worker counts, CommVolume parity
// with the host clock, the make_tag wide-layout regression,
// shared-channel-slot stress at P = 256, numeric factorizations at the
// default fiber-worker count, and per-fiber floating-point state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "linalg/generate.hpp"
#include "lu/lu_common.hpp"
#include "models/machines.hpp"
#include "simnet/collectives.hpp"
#include "simnet/spmd.hpp"
#include "simnet/trace.hpp"
#include "simnet/vtime.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace conflux::simnet {
namespace {

FabricSpec virtual_fabric(double alpha = 1e-6, double beta = 1e-10,
                          double gamma = 0.0) {
  FabricSpec spec;
  spec.mode = ExecMode::VirtualTime;
  spec.link = LinkModel{alpha, beta, gamma};
  return spec;
}

/// Scoped environment override (CONFLUX_VT_WORKERS etc).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old, had_ = true;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_)
      ::setenv(name_, saved_.c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

// --- make_tag regression (satellite bugfix) --------------------------------

TEST(MakeTag, FormerlyCollidingPairRoundTripsDistinctly) {
  // Under the historical layout (phase<<40 | step<<12 | sub & 0xFFF) a
  // rank-indexed sub at paper scale wrapped: sub = 4096 aliased sub = 0 in
  // release builds. The wide layout keeps them distinct.
  EXPECT_NE(make_tag(1, 0, 4096), make_tag(1, 0, 0));
  EXPECT_NE(make_tag(1, 0, 4095 + 1), make_tag(1, 1, 0));
  // Round-trip through the documented field layout.
  const Tag t = make_tag(7, 1234, 4095 + 42);
  EXPECT_EQ(t >> (kTagStepBits + kTagSubBits), 7u);
  EXPECT_EQ((t >> kTagSubBits) & ((1u << kTagStepBits) - 1), 1234u);
  EXPECT_EQ(t & ((1u << kTagSubBits) - 1), 4095u + 42u);
}

TEST(MakeTag, RangeCheckIsUnconditional) {
  EXPECT_THROW((void)make_tag(1u << 12, 0, 0), ContractViolation);
  EXPECT_THROW((void)make_tag(0, 1u << 24, 0), ContractViolation);
  EXPECT_THROW((void)make_tag(0, 0, 1u << 20), ContractViolation);
  // P = 4096 rank-indexed subs are in range — the point of the rebalance.
  EXPECT_NO_THROW((void)make_tag(4095, (1u << 24) - 1, 4096));
}

TEST(MakeTag, StaysInsideCollectiveRoundTagBudget) {
  // Collectives shift user tags left 8 bits for round tags; the widest
  // composed tag must still fit in 56 bits.
  const Tag widest =
      make_tag((1u << 12) - 1, (1u << 24) - 1, (1u << 20) - 1);
  EXPECT_LT(widest, Tag{1} << 56);
}

// --- basic virtual-time execution ------------------------------------------

TEST(VirtualTime, RingExchangeCompletesBeyondCoreCount) {
  const int p = 512;  // far beyond any laptop's core count
  Network net(p, virtual_fabric());
  run_spmd(net, [&](Comm& comm) {
    const int r = comm.rank();
    const std::vector<double> payload{static_cast<double>(r)};
    comm.send((r + 1) % comm.size(), make_tag(1, 0, r), payload);
    const std::vector<double> got =
        comm.recv((r + comm.size() - 1) % comm.size(),
                  make_tag(1, 0, (r + comm.size() - 1) % comm.size()));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], (r + comm.size() - 1) % comm.size());
  });
  EXPECT_EQ(net.stats().total().messages_sent, static_cast<std::uint64_t>(p));
  EXPECT_GT(net.virtual_makespan(), 0.0);
}

TEST(VirtualTime, LogGpClockArithmeticIsExact) {
  const double alpha = 2e-6;
  const double beta = 5e-10;
  Network net(2, virtual_fabric(alpha, beta));
  double clock0 = -1;
  double clock1 = -1;
  run_spmd(net, [&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, make_tag(1, 0, 0), std::vector<double>(8, 1.0));
      clock0 = comm.virtual_seconds();
    } else {
      (void)comm.recv(0, make_tag(1, 0, 0));
      clock1 = comm.virtual_seconds();
    }
  });
  // Sender: 64 bytes * beta of injection. Receiver: idle until the arrival
  // instant (sender clock + alpha).
  EXPECT_DOUBLE_EQ(clock0, 64 * beta);
  EXPECT_DOUBLE_EQ(clock1, 64 * beta + alpha);
  EXPECT_DOUBLE_EQ(net.virtual_makespan(), 64 * beta + alpha);
  EXPECT_DOUBLE_EQ(net.virtual_seconds(1), 64 * beta + alpha);
}

TEST(VirtualTime, SelfSendsAreFree) {
  Network net(1, virtual_fabric());
  run_spmd(net, [&](Comm& comm) {
    comm.send(0, make_tag(1, 0, 0), std::vector<double>(1024, 0.0));
    (void)comm.recv(0, make_tag(1, 0, 0));
  });
  EXPECT_DOUBLE_EQ(net.virtual_makespan(), 0.0);
}

TEST(VirtualTime, ChargeFlopsAdvancesTheClock) {
  const double gamma = 1e-11;
  Network net(2, virtual_fabric(1e-6, 1e-10, gamma));
  run_spmd(net, [&](Comm& comm) { comm.charge_flops(1e9); });
  EXPECT_DOUBLE_EQ(net.virtual_makespan(), 1e9 * gamma);
  // Host clock: charge_flops is a no-op.
  Network host(2);
  run_spmd(host, [&](Comm& comm) { comm.charge_flops(1e9); });
  EXPECT_DOUBLE_EQ(host.virtual_makespan(), 0.0);
}

TEST(VirtualTime, DeadlockIsDetectedAndReported) {
  Network net(2, virtual_fabric());
  // Typed diagnostic (ConfChaos): deadlock() marks it deterministic, and
  // the parked snapshot names the stuck rank and its (src, tag).
  try {
    run_spmd(net, [&](Comm& comm) {
      if (comm.rank() == 0) (void)comm.recv(1, make_tag(2, 0, 0));
    });
    FAIL() << "deadlock not detected";
  } catch (const ReceiveTimeout& e) {
    EXPECT_TRUE(e.deadlock());
    ASSERT_EQ(e.parked().size(), 1u);
    EXPECT_EQ(e.parked()[0].rank, 0);
    EXPECT_EQ(e.parked()[0].src, 1);
    EXPECT_EQ(e.parked()[0].tag, make_tag(2, 0, 0));
  }
  // The fabric recovers: a subsequent run over the same network works.
  run_spmd(net, [&](Comm& comm) {
    if (comm.rank() == 0)
      comm.send(1, make_tag(3, 0, 0), std::vector<double>{1.0});
    else
      (void)comm.recv(0, make_tag(3, 0, 0));
  });
}

TEST(VirtualTime, RankExceptionPropagatesAndAborts) {
  Network net(8, virtual_fabric());
  EXPECT_THROW(run_spmd(net,
                        [&](Comm& comm) {
                          if (comm.rank() == 3)
                            throw std::runtime_error("rank 3 failed");
                          // Everyone else blocks on a message that never
                          // comes; the abort must wake them.
                          (void)comm.recv((comm.rank() + 1) % comm.size(),
                                          make_tag(2, 1, 0));
                        }),
               std::runtime_error);
}

// --- collectives over fibers ------------------------------------------------

TEST(VirtualTime, CollectivesRunAtScale) {
  const int p = 256;
  Network net(p, virtual_fabric());
  std::vector<double> sums(static_cast<std::size_t>(p), 0.0);
  run_spmd(net, [&](Comm& comm) {
    const Group all = Group::iota(p);
    // Tree reduce onto rank 0, then broadcast the total back down.
    std::vector<double> v{static_cast<double>(comm.rank() + 1)};
    reduce_sum(comm, all, 0, v, make_tag(4, 0, 0));
    bcast(comm, all, 0, v, make_tag(4, 1, 0));
    sums[static_cast<std::size_t>(comm.rank())] = v.at(0);
  });
  const double expect = p * (p + 1) / 2.0;
  for (int r = 0; r < p; ++r)
    EXPECT_DOUBLE_EQ(sums[static_cast<std::size_t>(r)], expect) << "rank " << r;
}

// --- shared channel slots at P = 256 (satellite bugfix) ---------------------

TEST(VirtualTime, SharedSlotFanInMatchesEverySourceAndTag) {
  // 256 sources hash onto 64 channel slots: four sources share each slot of
  // rank 0. Rank 0 drains them in *reverse* rank order so nearly every
  // receive targets a slot holding several queued sources, exercising the
  // targeted wakeup filter and (src, tag)-keyed matching under sharing.
  const int p = 256;
  Network net(p, virtual_fabric());
  telemetry::TelemetryBoard board;
  net.set_telemetry(&board);
  ScopedEnv workers("CONFLUX_VT_WORKERS", "1");
  run_spmd(net, [&](Comm& comm) {
    const int r = comm.rank();
    if (r != 0)
      comm.send(0, make_tag(5, 7, r), std::vector<double>{r * 1.0, r * 2.0});
    else
      for (int src = p - 1; src >= 1; --src) {
        const std::vector<double> got = comm.recv(src, make_tag(5, 7, src));
        ASSERT_EQ(got.size(), 2u);
        EXPECT_EQ(got[0], src * 1.0);
        EXPECT_EQ(got[1], src * 2.0);
      }
  });
  // Per-destination queue-depth high-water mark: with one worker, rank 0
  // parks on rank 255 first, so all 255 messages are enqueued before the
  // drain starts. The per-slot accounting this replaced could only ever
  // report ~4 here (255 messages spread over 64 shared slots).
  EXPECT_GE(board.queue_hwm(0), 255);
  EXPECT_EQ(board.queue_hwm(1), 0);
}

// --- determinism (satellite test task) --------------------------------------

struct RunResult {
  double makespan = 0;
  CommVolume total;
  std::vector<std::uint64_t> rank_bytes;
};

/// A traffic pattern with fan-in, fan-out, multicast and collectives —
/// enough structure that a scheduling-order dependence would show up in
/// the clocks.
RunResult traffic_mix_run(int p) {
  Network net(p, virtual_fabric(1.7e-6, 2.3e-10));
  run_spmd(net, [&](Comm& comm) {
    const int r = comm.rank();
    const int peer = (r * 7 + 3) % p;
    comm.send(peer, make_tag(1, 0, r), std::vector<double>(16, r * 1.0));
    for (int src = 0; src < p; ++src)
      if ((src * 7 + 3) % p == r) (void)comm.recv(src, make_tag(1, 0, src));
    if (r == 0) {
      std::vector<int> dsts;
      for (int d = 1; d < p; ++d) dsts.push_back(d);
      comm.multicast(dsts, make_tag(1, 1, 0),
                     make_shared_buffer(std::vector<double>(32, 1.0)));
    } else {
      (void)comm.recv_view(0, make_tag(1, 1, 0));
    }
    comm.charge_flops(0);  // exercise the call on the hot path
  });
  RunResult res;
  res.makespan = net.virtual_makespan();
  res.total = net.stats().total();
  for (int r = 0; r < p; ++r)
    res.rank_bytes.push_back(net.stats().rank_volume(r).bytes_sent);
  return res;
}

void expect_bit_identical(const RunResult& a, const RunResult& b,
                          const char* what) {
  // Bit-level comparison: the determinism contract is exact, not approximate.
  EXPECT_EQ(std::memcmp(&a.makespan, &b.makespan, sizeof(double)), 0)
      << what << ": makespan " << a.makespan << " vs " << b.makespan;
  EXPECT_EQ(a.total.bytes_sent, b.total.bytes_sent) << what;
  EXPECT_EQ(a.total.messages_sent, b.total.messages_sent) << what;
  EXPECT_EQ(a.rank_bytes, b.rank_bytes) << what;
}

TEST(VirtualTimeDeterminism, RepeatedRunsAreBitIdentical) {
  const RunResult first = traffic_mix_run(96);
  for (int i = 0; i < 3; ++i)
    expect_bit_identical(first, traffic_mix_run(96), "repeat");
}

TEST(VirtualTimeDeterminism, WorkerCountDoesNotChangeResults) {
  RunResult base;
  {
    ScopedEnv workers("CONFLUX_VT_WORKERS", "1");
    base = traffic_mix_run(96);
  }
  {
    ScopedEnv workers("CONFLUX_VT_WORKERS", "4");
    expect_bit_identical(base, traffic_mix_run(96), "4 workers");
  }
  // Hardware default (no override).
  expect_bit_identical(base, traffic_mix_run(96), "default workers");
}

// --- clock parity -----------------------------------------------------------

TEST(VirtualTime, CommVolumeMatchesHostClockBitForBit) {
  const int p = 32;
  const auto body = [p](Comm& comm) {
    const int r = comm.rank();
    comm.send((r + 5) % p, make_tag(2, 0, r), std::vector<double>(r + 1, 1.0));
    (void)comm.recv((r + p - 5) % p, make_tag(2, 0, (r + p - 5) % p));
    const Group all = Group::iota(p);
    (void)allreduce_maxloc(comm, all, {1.0, r}, make_tag(2, 1, 0));
  };

  Network host(p);
  run_spmd(host, body);
  Network vt(p, virtual_fabric());
  run_spmd(vt, body);

  EXPECT_EQ(host.stats().total().bytes_sent, vt.stats().total().bytes_sent);
  EXPECT_EQ(host.stats().total().messages_sent,
            vt.stats().total().messages_sent);
  EXPECT_EQ(host.virtual_makespan(), 0.0);
  EXPECT_GT(vt.virtual_makespan(), 0.0);
  for (int r = 0; r < p; ++r) {
    const CommVolume a = host.stats().rank_volume(r);
    const CommVolume b = vt.stats().rank_volume(r);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << "rank " << r;
    EXPECT_EQ(a.bytes_received, b.bytes_received) << "rank " << r;
    EXPECT_EQ(a.messages_sent, b.messages_sent) << "rank " << r;
    EXPECT_EQ(a.messages_received, b.messages_received) << "rank " << r;
  }
}

// --- numeric factorizations on the fiber workers ----------------------------

TEST(VirtualTime, NumericFactorizationsFinishAtDefaultWorkerCount) {
  // With P at least the pool size, the pool's own threads run the worker
  // loops, and a fiber that one of them (or the submitting thread) resumes
  // calls the optimized GEMM, whose parallel_for must then run inline: the
  // pool's workers are all busy running the other worker loops. With P
  // below the pool size, the GEMM's chunks go to the idle pool threads.
  // N = 256 makes the GEMMs large enough to split. On a 1-core host the
  // pool runs everything inline and this passes trivially.
  const models::Machine m = models::machine_by_name("Piz Daint");
  const linalg::Matrix a =
      linalg::generate(256, linalg::MatrixKind::Uniform, 7);
  for (const char* algo : {"COnfLUX", "LibSci"}) {
    lu::LuConfig cfg;
    cfg.n = 256;
    cfg.p = 4;
    cfg.mode = lu::Mode::Numeric;
    cfg.verify = true;
    cfg.fabric.mode = ExecMode::VirtualTime;
    cfg.fabric.link = {m.alpha_s, m.beta_s_per_byte, m.gamma_s_per_flop};
    const lu::LuResult r = lu::make_algorithm(algo)->run(&a, cfg);
    EXPECT_GT(r.predicted_seconds, 0.0) << algo;
    EXPECT_LT(r.residual_eps, 100.0 * std::max(1.0, r.growth)) << algo;
  }
}

TEST(RankScheduler, FewerRanksThanPoolThreadsLeaveThePoolToTheirKernels) {
  // With P below the pool size the worker loops run outside the pool, so a
  // rank's parallel_for spreads over the idle pool threads; with P at the
  // pool size the pool's own threads run them and kernels run inline.
  const int pool = support::global_pool().size();
  if (pool < 3) GTEST_SKIP() << "needs a pool of at least 3 threads";
  if (std::getenv("CONFLUX_VT_WORKERS") != nullptr)
    GTEST_SKIP() << "CONFLUX_VT_WORKERS overrides the worker count";
  for (const int p : {pool - 1, pool}) {
    std::vector<char> on_pool(static_cast<std::size_t>(p), 0);
    Network net(p);
    run_spmd(net, [&](Comm& comm) {
      on_pool[static_cast<std::size_t>(comm.rank())] =
          support::global_pool().on_worker_thread() ? 1 : 0;
    });
    for (int r = 0; r < p; ++r)
      EXPECT_EQ(on_pool[static_cast<std::size_t>(r)], p == pool ? 1 : 0)
          << "P = " << p << ", rank " << r;
  }
}

TEST(RankScheduler, FiberKeepsItsFloatingPointEnvironmentAcrossParks) {
  // The floating-point control state (x87 control word and MXCSR on
  // x86-64) belongs to the fiber: a rank that changes its rounding mode
  // keeps it across every park and resume, whichever worker resumes it,
  // and the other rank never sees it. fegetround() reads the mode; the
  // addition reads the SSE rounding the arithmetic actually uses.
  const auto rounds_up = [] {
    volatile double one = 1.0;
    volatile double tiny = 1e-300;
    return one + tiny > 1.0;
  };
  const int kRounds = 300;
  for (const char* workers : {"1", "2"}) {
    ScopedEnv env("CONFLUX_VT_WORKERS", workers);
    std::vector<int> bad(2, 0);
    Network net(2, virtual_fabric());
    run_spmd(net, [&](Comm& comm) {
      const int r = comm.rank();
      const std::vector<double> ball{1.0};
      if (r == 0) std::fesetround(FE_UPWARD);
      for (int i = 0; i < kRounds; ++i) {
        if (r == 0) comm.send(1, make_tag(1, 0, 0), ball);
        (void)comm.recv(1 - r, make_tag(1, 0, r == 0 ? 1 : 0));
        const bool ok = r == 0
                            ? std::fegetround() == FE_UPWARD && rounds_up()
                            : std::fegetround() == FE_TONEAREST && !rounds_up();
        if (!ok) ++bad[static_cast<std::size_t>(r)];
        if (r == 1) comm.send(0, make_tag(1, 0, 1), ball);
      }
      if (r == 0) std::fesetround(FE_TONEAREST);
    });
    EXPECT_EQ(bad[0], 0) << workers << " worker(s): rank 0 lost FE_UPWARD";
    EXPECT_EQ(bad[1], 0) << workers << " worker(s): rank 1 saw FE_UPWARD";
  }
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

// --- virtual timestamps in telemetry ----------------------------------------

TEST(VirtualTime, TelemetrySpansCarryVirtualTimestamps) {
  const double alpha = 1e-6;
  const double beta = 1e-9;
  Network net(2, virtual_fabric(alpha, beta));
  telemetry::TelemetryBoard board;
  TraceRecorder rec;
  net.set_telemetry(&board);
  net.set_trace(&rec);
  EXPECT_TRUE(board.virtual_clock());
  run_spmd(net, [&](Comm& comm) {
    telemetry::ScopedSpan span(&board, comm.rank(), "exchange");
    if (comm.rank() == 0)
      comm.send(1, make_tag(1, 0, 0), std::vector<double>(128, 0.0));
    else
      (void)comm.recv(0, make_tag(1, 0, 0));
  });
  // Rank 1's span closes at its post-receive virtual clock, not at a few
  // microseconds of host time.
  const auto& spans = board.rank_spans(1);
  ASSERT_EQ(spans.size(), 1u);
  const auto expect_ns =
      static_cast<std::uint64_t>((1024 * beta + alpha) * 1e9);
  EXPECT_EQ(spans[0].end_ns, expect_ns);
  // The receive recorded a virtual-time wait sample of the blocked interval.
  const auto& waits = board.rank_waits(1);
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_EQ(waits[0].begin_ns, 0u);
  EXPECT_EQ(waits[0].ns, expect_ns);
  // The trace reads the same one clock: the Send at the post-injection
  // sender clock, the Recv at the receiver's post-match clock.
  ASSERT_EQ(rec.rank_events(0).size(), 1u);
  EXPECT_EQ(rec.rank_events(0)[0].kind, EventKind::Send);
  EXPECT_EQ(rec.rank_events(0)[0].t_ns,
            static_cast<std::uint64_t>(1024 * beta * 1e9));
  ASSERT_EQ(rec.rank_events(1).size(), 1u);
  EXPECT_EQ(rec.rank_events(1)[0].kind, EventKind::Recv);
  EXPECT_EQ(rec.rank_events(1)[0].t_ns, expect_ns);
}

}  // namespace
}  // namespace conflux::simnet
