// ConfChaos: deterministic fault injection, virtual-clock deadlines,
// deadlock diagnostics, end-to-end payload integrity and run-level retry.
// Pins the chaos contract — seeded FaultPlan decisions are
// bit-reproducible across repeats, delays and stalls need the virtual
// clock, a would-be hang becomes a typed located ReceiveTimeout, injected
// corruption becomes a typed PayloadCorrupted (never a silent misfactor),
// and run_with_retry recovers transient failures with a result that is
// bit-identical to a fault-free run's communication volume.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "factor/retry.hpp"
#include "linalg/generate.hpp"
#include "lu/lu_common.hpp"
#include "simnet/collectives.hpp"
#include "simnet/comm.hpp"
#include "simnet/spmd.hpp"
#include "simnet/trace.hpp"

namespace conflux::simnet {
namespace {

FabricSpec virtual_fabric() {
  FabricSpec spec;
  spec.mode = ExecMode::VirtualTime;
  spec.link = LinkModel{1e-6, 1e-10, 0.0};
  return spec;
}

/// A chaos-heavy spec: delays with jitter, stalls, a slow rank.
FaultSpec noisy_spec(std::uint64_t seed) {
  FaultSpec spec;
  spec.seed = seed;
  spec.delay_prob = 0.3;
  spec.delay_s = 1e-4;
  spec.jitter_s = 5e-5;
  spec.stall_prob = 0.2;
  spec.stall_s = 2e-4;
  spec.slow_ranks = 2;
  spec.slow_factor = 3.0;
  return spec;
}

/// Record the full injection sequence for a fixed synthetic message
/// pattern.
std::vector<FaultPlan::Injection> injection_trace(FaultPlan& plan, int p,
                                                  int msgs) {
  std::vector<FaultPlan::Injection> out;
  for (int i = 0; i < msgs; ++i)
    for (int src = 0; src < p; ++src)
      out.push_back(plan.at_delivery(src, (src + 1 + i) % p,
                                     make_tag(1, static_cast<unsigned>(i)),
                                     64));
  return out;
}

bool same_injection(const FaultPlan::Injection& a,
                    const FaultPlan::Injection& b) {
  return a.delay_s == b.delay_s && a.stall_s == b.stall_s &&
         a.corrupt == b.corrupt && a.corrupt_bit == b.corrupt_bit;
}

TEST(FaultPlan, DecisionsAreReproducibleAcrossRuns) {
  FaultSpec spec = noisy_spec(7);
  spec.corrupt_prob = 0.1;
  FaultPlan plan(spec);
  plan.reset(8);
  const auto first = injection_trace(plan, 8, 50);
  plan.begin_run();  // what Network::run does at the top of every run
  const auto second = injection_trace(plan, 8, 50);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_TRUE(same_injection(first[i], second[i])) << "decision " << i;
  // And the plan actually decided some faults, or the test proves nothing.
  const auto counts = plan.counters();
  EXPECT_GT(counts.delayed, 0u);
  EXPECT_GT(counts.stalled, 0u);
  EXPECT_GT(counts.corrupted, 0u);
}

TEST(FaultPlan, NextAttemptRerandomizesDecisions) {
  FaultPlan plan(noisy_spec(7));
  plan.reset(8);
  const auto first = injection_trace(plan, 8, 50);
  plan.next_attempt();
  plan.begin_run();
  const auto retried = injection_trace(plan, 8, 50);
  int differing = 0;
  for (std::size_t i = 0; i < first.size(); ++i)
    if (!same_injection(first[i], retried[i])) ++differing;
  EXPECT_GT(differing, 0) << "retry saw the identical fault schedule";
}

TEST(FaultPlan, SlowRankSetIsExactAndSeedStable) {
  FaultSpec spec;
  spec.slow_ranks = 3;
  spec.slow_factor = 2.0;
  FaultPlan a(spec), b(spec);
  a.reset(16);
  b.reset(16);
  int slow = 0;
  for (int r = 0; r < 16; ++r) {
    EXPECT_EQ(a.slow_rank(r), b.slow_rank(r));
    if (a.slow_rank(r)) ++slow;
  }
  EXPECT_EQ(slow, 3);
}

TEST(Chaos, VirtualTimeChaosRunIsBitReproducible) {
  // The headline determinism contract: with a fault plan attached, a
  // virtual-time run's makespan and injection counters are bit-identical
  // across repeats — chaos is reproducible, not heisenbuggy.
  const int p = 16;
  auto ring = [&](Comm& comm) {
    const Group world = Group::iota(p);
    for (int s = 0; s < 5; ++s) {
      comm.send((comm.rank() + 1) % p, make_tag(1, unsigned(s)),
                std::vector<double>(32, 1.0));
      (void)comm.recv_view((comm.rank() + p - 1) % p,
                           make_tag(1, unsigned(s)));
      (void)allreduce_maxloc(comm, world, {}, make_tag(2, unsigned(s)));
    }
  };
  double makespans[2];
  FaultPlan::Counters counts[2];
  for (int rep = 0; rep < 2; ++rep) {
    FaultPlan plan(noisy_spec(11));
    Network net(p, virtual_fabric());
    net.set_faults(&plan);
    run_spmd(net, ring);
    makespans[rep] = net.virtual_makespan();
    counts[rep] = plan.counters();
  }
  EXPECT_EQ(makespans[0], makespans[1]);  // bitwise, not approximate
  EXPECT_EQ(counts[0].delayed, counts[1].delayed);
  EXPECT_EQ(counts[0].stalled, counts[1].stalled);
  EXPECT_GT(counts[0].delayed + counts[0].stalled, 0u);
}

TEST(Chaos, InjectedDelaysAreMakespanVisibleInVirtualTime) {
  const int p = 4;
  auto job = [&](Comm& comm) {
    if (comm.rank() == 0)
      for (int dst = 1; dst < p; ++dst)
        comm.send(dst, 3, std::vector<double>(16, 1.0));
    else
      (void)comm.recv_view(0, 3);
  };
  Network quiet(p, virtual_fabric());
  run_spmd(quiet, job);
  const double baseline = quiet.virtual_makespan();

  FaultSpec spec;
  spec.seed = 3;
  spec.delay_prob = 1.0;  // every remote message delayed
  spec.delay_s = 0.25;
  FaultPlan plan(spec);
  Network net(p, virtual_fabric());
  net.set_faults(&plan);
  run_spmd(net, job);
  EXPECT_GE(net.virtual_makespan(), baseline + 0.25);
  // Delays never change the dataflow, so the volume is untouched.
  EXPECT_EQ(net.stats().total().bytes_sent, quiet.stats().total().bytes_sent);
}

TEST(Chaos, TimedFaultsNeedTheVirtualClock) {
  // Delays and stalls are virtual-clock charges: attaching a plan that can
  // make them to a host-clock network is a contract violation. Corruption
  // needs no clock, so a corruption-only plan is detected there too.
  FaultSpec timed;
  timed.delay_prob = 1.0;
  timed.delay_s = 0.08;
  FaultPlan delay_plan(timed);
  Network host(2);
  EXPECT_THROW(host.set_faults(&delay_plan), ContractViolation);
  timed.delay_prob = 0;
  timed.stall_prob = 1.0;
  FaultPlan stall_plan(timed);
  EXPECT_THROW(host.set_faults(&stall_plan), ContractViolation);

  FaultSpec corrupt;
  corrupt.seed = 25;
  corrupt.corrupt_prob = 1.0;
  FaultPlan plan(corrupt);
  host.set_faults(&plan);
  host.set_integrity(true);
  EXPECT_THROW(run_spmd(host,
                        [&](Comm& comm) {
                          if (comm.rank() == 0)
                            comm.send(1, 6, std::vector<double>(8, 2.0));
                          else
                            (void)comm.recv_view(0, 6);
                        }),
               PayloadCorrupted);
  EXPECT_EQ(plan.counters().corrupted, 1u);
}

TEST(Containment, ReceiveTimeoutCarriesLocatedDiagnostics) {
  // A receive that can never match (nobody sends) must become a typed,
  // located diagnostic on the default fabric, with no policy set — not a
  // CI hang: once every live rank is parked, the scheduler reports the
  // deadlock.
  Network net(3);
  const Tag tag = make_tag(4, 2, 1);
  try {
    run_spmd(net, [&](Comm& comm) {
      if (comm.rank() == 0) (void)comm.recv_view(2, tag);
    });
    FAIL() << "deadlock not detected";
  } catch (const ReceiveTimeout& e) {
    EXPECT_TRUE(e.deadlock());
    EXPECT_EQ(e.context().rank, 0);
    EXPECT_EQ(e.context().src, 2);
    EXPECT_EQ(e.context().dst, 0);
    EXPECT_TRUE(e.context().has_tag);
    EXPECT_EQ(e.context().tag, tag);
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos);
    EXPECT_NE(what.find("rank=0"), std::string::npos);
  }
  // The parked rank lands in the aggregated report.
  const auto report = net.failure_report();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].rank, 0);
  EXPECT_NE(report[0].message.find("deadlock"), std::string::npos);
  EXPECT_NE(report[0].message.find("src=2"), std::string::npos);
}

TEST(Containment, VirtualClockDeadlineFiresDeterministically) {
  // Virtual-time analogue: a fault-stalled simulated run whose clock blows
  // past the cap fails with the same typed diagnostic, deterministically
  // and without any real waiting.
  FaultSpec spec;
  spec.seed = 9;
  spec.stall_prob = 1.0;
  spec.stall_s = 10.0;  // simulated seconds
  FaultPlan plan(spec);
  Network net(2, virtual_fabric());
  net.set_faults(&plan);
  RunPolicy policy;
  policy.virtual_deadline_s = 1.0;
  net.set_policy(policy);
  try {
    run_spmd(net, [&](Comm& comm) {
      if (comm.rank() == 0)
        comm.send(1, 1, std::vector<double>{1.0});
      else
        (void)comm.recv_view(0, 1);
    });
    FAIL() << "virtual deadline did not fire";
  } catch (const ReceiveTimeout& e) {
    EXPECT_FALSE(e.deadlock());
    EXPECT_EQ(e.context().rank, 1);
    EXPECT_EQ(e.context().src, 0);
  }
}

/// Rank 0 multicasts `payload` to ranks 1 and 2; with the caller's fault
/// plan corrupting every copy, the run must fail with PayloadCorrupted.
void expect_corrupted_multicast(Network& net, const SharedBuffer& payload) {
  EXPECT_THROW(run_spmd(net,
                        [&](Comm& comm) {
                          if (comm.rank() == 0) {
                            const std::vector<int> dsts = {1, 2};
                            comm.multicast(dsts, 7, payload);
                          } else {
                            (void)comm.recv_view(0, 7);
                          }
                        }),
               PayloadCorrupted);
}

/// Both clocks share the receive epilogue, but Network::receive reaches it
/// through a separate return under each; every integrity case runs under
/// both.
class Integrity : public ::testing::TestWithParam<ExecMode> {
 protected:
  static FabricSpec fabric() {
    return GetParam() == ExecMode::VirtualTime ? virtual_fabric()
                                               : FabricSpec{};
  }
};

TEST_P(Integrity, CorruptedPointToPointPayloadIsDetected) {
  FaultSpec spec;
  spec.seed = 21;
  spec.corrupt_prob = 1.0;
  FaultPlan plan(spec);
  Network net(2, fabric());
  net.set_faults(&plan);
  net.set_integrity(true);
  try {
    run_spmd(net, [&](Comm& comm) {
      if (comm.rank() == 0)
        comm.send(1, 6, std::vector<double>(128, 2.0));
      else
        (void)comm.recv_view(0, 6);
    });
    FAIL() << "corruption not detected";
  } catch (const PayloadCorrupted& e) {
    EXPECT_EQ(e.context().rank, 1);
    EXPECT_EQ(e.context().src, 0);
    EXPECT_NE(std::string(e.what()).find("integrity"), std::string::npos);
  }
  EXPECT_EQ(plan.counters().corrupted, 1u);
}

TEST_P(Integrity, MulticastCorruptionIsIsolatedPerRecipient) {
  // A shared multicast payload is aliased by every recipient; injected
  // corruption clones before flipping, so the sender's buffer (and any
  // uncorrupted recipient's view) stays pristine.
  FaultSpec spec;
  spec.seed = 22;
  spec.corrupt_prob = 1.0;
  FaultPlan plan(spec);
  Network net(3, fabric());
  net.set_faults(&plan);
  net.set_integrity(true);
  const SharedBuffer payload =
      make_shared_buffer(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  expect_corrupted_multicast(net, payload);
  // The original storage was never touched.
  EXPECT_EQ((*payload)[0], 1.0);
  EXPECT_EQ((*payload)[3], 4.0);
  EXPECT_EQ(plan.counters().corrupted, 2u);
}

TEST_P(Integrity, CorruptionUnderTraceFailsBeforeRecvAndLint) {
  // Trace and integrity both check a payload's fingerprint. The
  // merged check must keep their order: integrity throws PayloadCorrupted
  // before the Recv event is logged, so the mutation lint never fires.
  std::vector<std::string> reports;
  auto previous = set_buffer_misuse_handler(
      [&](const std::string& what) { reports.push_back(what); });
  FaultSpec spec;
  spec.seed = 24;
  spec.corrupt_prob = 1.0;
  FaultPlan plan(spec);
  TraceRecorder rec;
  Network net(3, fabric());
  net.set_faults(&plan);
  net.set_trace(&rec);
  net.set_integrity(true);
  const SharedBuffer payload =
      make_shared_buffer(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  expect_corrupted_multicast(net, payload);
  (void)set_buffer_misuse_handler(std::move(previous));
  EXPECT_EQ(reports.size(), 0u);
  EXPECT_EQ(rec.rank_events(0).size(), 2u);  // both multicast Sends
  for (const int r : {1, 2})
    for (const TraceEvent& e : rec.rank_events(r))
      EXPECT_NE(e.kind, EventKind::Recv) << "rank " << r;
}

TEST_P(Integrity, GhostMessagesCannotBeCorrupted) {
  FaultSpec spec;
  spec.seed = 23;
  spec.corrupt_prob = 1.0;
  FaultPlan plan(spec);
  Network net(2, fabric());
  net.set_faults(&plan);
  net.set_integrity(true);
  run_spmd(net, [&](Comm& comm) {
    if (comm.rank() == 0)
      comm.send_ghost(1, 8, 1024);
    else
      EXPECT_EQ(comm.recv_ghost(0, 8), 1024u);
  });
  EXPECT_EQ(plan.counters().corrupted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BothClocks, Integrity,
    ::testing::Values(ExecMode::HostClock, ExecMode::VirtualTime),
    [](const ::testing::TestParamInfo<ExecMode>& info) {
      return info.param == ExecMode::VirtualTime ? "VirtualTime" : "HostClock";
    });

TEST(Aggregation, AllRankFailuresAreReported) {
  Network net(4);
  EXPECT_THROW(run_spmd(net,
                        [](Comm& comm) {
                          throw std::runtime_error(
                              "rank " + std::to_string(comm.rank()) +
                              " failed");
                        }),
               std::runtime_error);
  const auto report = net.failure_report();
  ASSERT_EQ(report.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(report[static_cast<std::size_t>(r)].rank, r);
    EXPECT_NE(report[static_cast<std::size_t>(r)].message.find(
                  "rank " + std::to_string(r)),
              std::string::npos);
  }
}

}  // namespace
}  // namespace conflux::simnet

namespace conflux::factor {
namespace {

using simnet::FaultPlan;
using simnet::FaultSpec;

TEST(Retry, TransientFailuresRetryUntilSuccess) {
  FaultPlan plan(FaultSpec{});
  int calls = 0;
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.backoff_s = 0.001;
  const FactorResult result = run_with_retry(
      [&]() -> FactorResult {
        ++calls;
        if (calls <= 2)
          throw simnet::ReceiveTimeout("transient timeout", {}, {},
                                       /*deadlock=*/false);
        return FactorResult{};
      },
      policy, &plan);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(result.attempts, 3);
  ASSERT_EQ(result.failure_causes.size(), 2u);
  EXPECT_NE(result.failure_causes[0].find("transient"), std::string::npos);
  EXPECT_GT(result.backoff_seconds, 0.0);
  EXPECT_EQ(plan.attempt(), 2u);  // advanced once per failed attempt
}

TEST(Retry, DeterministicFailuresAreNotRetried) {
  int calls = 0;
  EXPECT_THROW(run_with_retry([&]() -> FactorResult {
                 ++calls;
                 throw ContractViolation("program bug");
               }),
               ContractViolation);
  EXPECT_EQ(calls, 1);
  // A detected deadlock is deterministic too, timeout type notwithstanding.
  calls = 0;
  EXPECT_THROW(run_with_retry([&]() -> FactorResult {
                 ++calls;
                 throw simnet::ReceiveTimeout("deadlock", {}, {},
                                              /*deadlock=*/true);
               }),
               simnet::ReceiveTimeout);
  EXPECT_EQ(calls, 1);
}

TEST(Retry, ExhaustedAttemptsRethrow) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_s = 0;
  int calls = 0;
  EXPECT_THROW(run_with_retry(
                   [&]() -> FactorResult {
                     ++calls;
                     throw simnet::PayloadCorrupted("flipped", {});
                   },
                   policy),
               simnet::PayloadCorrupted);
  EXPECT_EQ(calls, 3);
}

TEST(Retry, LuRecoversFromInjectedCorruptionBitIdentically) {
  // End to end: a numeric COnfLUX run with injected payload corruption and
  // integrity checking fails its poisoned attempts with the typed
  // PayloadCorrupted, retries under a re-randomized plan, and the
  // recovered result matches a fault-free run bit-for-bit in volume and
  // passes the residual gate.
  const linalg::Matrix a = linalg::generate(64, linalg::MatrixKind::Uniform,
                                            77);
  lu::LuConfig cfg;
  cfg.n = 64;
  cfg.p = 4;
  cfg.mode = Mode::Numeric;

  const lu::LuResult clean = lu::make_algorithm("COnfLUX")->run(&a, cfg);
  ASSERT_LT(clean.residual, 1e-11);

  // Scan seeds until one poisons the first attempt (each seed's outcome is
  // deterministic, so the scan is too); the recovered run must then match
  // the clean one bit-for-bit in volume and pass the residual gate.
  bool recovered_from_fault = false;
  for (std::uint64_t seed = 1; seed <= 64 && !recovered_from_fault; ++seed) {
    FaultSpec spec;
    spec.seed = seed;
    spec.corrupt_prob = 0.004;
    FaultPlan plan(spec);
    lu::LuConfig chaos_cfg = cfg;
    chaos_cfg.faults = &plan;
    chaos_cfg.integrity = true;
    RetryPolicy policy;
    policy.max_attempts = 8;
    policy.backoff_s = 0.0005;
    const lu::LuResult recovered = run_with_retry(
        [&] { return lu::make_algorithm("COnfLUX")->run(&a, chaos_cfg); },
        policy, &plan);
    EXPECT_LT(recovered.residual, 1e-11) << "seed " << seed;
    EXPECT_EQ(recovered.total.bytes_sent, clean.total.bytes_sent)
        << "seed " << seed;
    EXPECT_EQ(recovered.total.messages_sent, clean.total.messages_sent)
        << "seed " << seed;
    if (recovered.attempts > 1) {
      recovered_from_fault = true;
      EXPECT_FALSE(recovered.failure_causes.empty());
      EXPECT_NE(recovered.failure_causes[0].find("integrity"),
                std::string::npos)
          << recovered.failure_causes[0];
    }
  }
  // The injected corruption must actually have fired for some seed, or
  // this test degenerates to a plain numeric run.
  EXPECT_TRUE(recovered_from_fault);
}

}  // namespace
}  // namespace conflux::factor
