// Tests for the CommCheck static schedule verifier (src/verify): the
// CommGraph IR (FIFO matching, happens-before), each analysis pass against
// a seeded defect of its class — wait-for cycle, orphan receive, tag
// collision, volume-accounting mismatch — the buffer-ownership lint hooks,
// and the end-to-end driver proving every registered backend's dry-run
// schedule clean.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cholesky/cholesky_common.hpp"
#include "linalg/generate.hpp"
#include "lu/lu_common.hpp"
#include "simnet/faults.hpp"
#include "simnet/network.hpp"
#include "simnet/trace.hpp"
#include "support/assert.hpp"
#include "verify/commcheck.hpp"

namespace conflux::verify {
namespace {

using simnet::EventKind;
using simnet::Tag;
using simnet::TraceRecorder;

bool any_diag(const std::vector<Diagnostic>& diags, const std::string& pass,
              const std::string& needle) {
  for (const Diagnostic& d : diags)
    if (d.pass == pass && d.message.find(needle) != std::string::npos)
      return true;
  return false;
}

int count_errors(const std::vector<Diagnostic>& diags,
                 const std::string& pass) {
  int n = 0;
  for (const Diagnostic& d : diags)
    if (d.severity == Severity::Error && d.pass == pass) ++n;
  return n;
}

/// Expectation consistent with a fully matched graph (so the volume pass
/// stays quiet and tests isolate the pass under study).
VolumeExpectation consistent_expectation(const CommGraph& g) {
  VolumeExpectation expect;
  std::vector<std::uint64_t> sent(static_cast<std::size_t>(g.nranks()), 0);
  std::vector<std::uint64_t> recvd(static_cast<std::size_t>(g.nranks()), 0);
  for (const CommNode& node : g.nodes()) {
    if (node.rank == node.peer) continue;
    if (node.kind == EventKind::Send) {
      expect.total.bytes_sent += node.bytes;
      ++expect.total.messages_sent;
      sent[static_cast<std::size_t>(node.rank)] += node.bytes;
    } else {
      expect.total.bytes_received += node.bytes;
      recvd[static_cast<std::size_t>(node.rank)] += node.bytes;
    }
  }
  for (int r = 0; r < g.nranks(); ++r)
    expect.max_rank_bytes =
        std::max(expect.max_rank_bytes, sent[static_cast<std::size_t>(r)] +
                                            recvd[static_cast<std::size_t>(r)]);
  return expect;
}

// ---- CommGraph IR --------------------------------------------------------

TEST(CommGraph, FifoMatchingAndHappensBefore) {
  TraceRecorder rec(2);
  rec.record_send(0, 1, 7, 8);
  rec.record_send(0, 1, 7, 16);
  rec.record_recv(1, 0, 7, 8);
  rec.record_recv(1, 0, 7, 16);
  const CommGraph g = CommGraph::build(rec);

  ASSERT_EQ(g.nodes().size(), 4u);
  const int send0 = g.index_of(0, 0);
  const int send1 = g.index_of(0, 1);
  const int recv0 = g.index_of(1, 0);
  const int recv1 = g.index_of(1, 1);
  // k-th send on a (src, dst, tag) channel pairs with the k-th recv.
  EXPECT_EQ(g.nodes()[static_cast<std::size_t>(send0)].match, recv0);
  EXPECT_EQ(g.nodes()[static_cast<std::size_t>(send1)].match, recv1);

  // Message edges and program order induce happens-before; nothing flows
  // from the receiver back to the sender.
  EXPECT_TRUE(g.happens_before(send0, recv0));
  EXPECT_TRUE(g.happens_before(send0, recv1));
  EXPECT_TRUE(g.happens_before(send0, send1));
  EXPECT_FALSE(g.happens_before(recv0, send1));
  EXPECT_FALSE(g.happens_before(recv0, send0));
  EXPECT_FALSE(g.happens_before(send0, send0));
}

// ---- seeded defect 1: wait-for cycle (deadlock) --------------------------

TEST(SeededDefects, WaitForCycleIsDetected) {
  // Both ranks receive first, send second: the classic head-to-head
  // exchange deadlock under blocking receives. Every message is matched, so
  // only the deadlock pass may fire.
  TraceRecorder rec(2);
  rec.record_recv(0, 1, 11, 8);
  rec.record_send(0, 1, 10, 8);
  rec.record_recv(1, 0, 10, 8);
  rec.record_send(1, 0, 11, 8);

  const CommGraph g = CommGraph::build(rec);
  const auto diags = run_all_passes(g, consistent_expectation(g));
  EXPECT_TRUE(has_errors(diags));
  EXPECT_TRUE(any_diag(diags, "deadlock", "wait-for cycle"));
  EXPECT_EQ(count_errors(diags, "deadlock"), 1);  // one cycle, one report
  EXPECT_EQ(count_errors(diags, "matching"), 0);
  EXPECT_EQ(count_errors(diags, "tags"), 0);
  EXPECT_EQ(count_errors(diags, "volume"), 0);

  // The diagnostic locates both blocked operations.
  for (const Diagnostic& d : diags)
    if (d.pass == "deadlock") {
      EXPECT_NE(d.message.find("rank 0"), std::string::npos) << d.message;
      EXPECT_NE(d.message.find("rank 1"), std::string::npos) << d.message;
    }
}

// ---- seeded defect 2: orphan receive -------------------------------------

TEST(SeededDefects, OrphanRecvIsDetected) {
  // Rank 1 waits for a message nobody ever sends.
  TraceRecorder rec(2);
  rec.record_send(0, 1, 5, 8);
  rec.record_recv(1, 0, 5, 8);
  rec.record_recv(1, 0, 6, 8);  // no matching send anywhere

  const CommGraph g = CommGraph::build(rec);
  const auto matching = check_matching(g);
  EXPECT_TRUE(any_diag(matching, "matching", "orphan recv"));
  EXPECT_EQ(count_errors(matching, "matching"), 1);
  // The stall is also visible to the deadlock pass (not as a cycle).
  const auto deadlock = check_deadlock(g);
  EXPECT_TRUE(any_diag(deadlock, "deadlock", "stalls forever"));

  // The diagnostic carries the structured location of the bad receive.
  for (const Diagnostic& d : matching) {
    EXPECT_EQ(d.context.rank, 1);
    EXPECT_EQ(d.context.src, 0);
    EXPECT_EQ(d.context.dst, 1);
    EXPECT_TRUE(d.context.has_tag);
    EXPECT_EQ(d.context.tag, 6u);
  }
}

TEST(SeededDefects, DroppedSendIsDetected) {
  TraceRecorder rec(2);
  rec.record_send(0, 1, 5, 8);  // never received
  const CommGraph g = CommGraph::build(rec);
  const auto diags = check_matching(g);
  EXPECT_TRUE(any_diag(diags, "matching", "never received"));
}

// ---- seeded defect 3: tag collision --------------------------------------

TEST(SeededDefects, TagCollisionIsDetected) {
  // Two back-to-back sends reuse a tag on the same (src, dst) channel with
  // nothing forcing the first receive before the second send: matching
  // becomes arrival-order dependent.
  TraceRecorder rec(2);
  rec.record_send(0, 1, 9, 8);
  rec.record_send(0, 1, 9, 8);
  rec.record_recv(1, 0, 9, 8);
  rec.record_recv(1, 0, 9, 8);

  const CommGraph g = CommGraph::build(rec);
  const auto diags = check_tags(g);
  EXPECT_EQ(count_errors(diags, "tags"), 1);
  EXPECT_TRUE(any_diag(diags, "tags", "tag collision"));
  // The rest of the schedule is fine: matched, executable.
  EXPECT_EQ(count_errors(check_matching(g), "matching"), 0);
  EXPECT_EQ(count_errors(check_deadlock(g), "deadlock"), 0);
}

TEST(SeededDefects, AcknowledgedTagReuseIsClean) {
  // Same tag reused, but an ack round-trip orders the first receive before
  // the second send — a legal (and common) reuse pattern.
  TraceRecorder rec(2);
  rec.record_send(0, 1, 9, 8);   // seq 0
  rec.record_recv(0, 1, 99, 8);  // seq 1: wait for the ack
  rec.record_send(0, 1, 9, 8);   // seq 2: safe reuse
  rec.record_recv(1, 0, 9, 8);   // seq 0
  rec.record_send(1, 0, 99, 8);  // seq 1: ack
  rec.record_recv(1, 0, 9, 8);   // seq 2

  const CommGraph g = CommGraph::build(rec);
  EXPECT_EQ(count_errors(check_tags(g), "tags"), 0);
  EXPECT_EQ(count_errors(check_deadlock(g), "deadlock"), 0);
}

// ---- seeded defect 4: volume-accounting mismatch -------------------------

TEST(SeededDefects, VolumeAccountingMismatchIsDetected) {
  TraceRecorder rec(2);
  rec.record_send(0, 1, 3, 100);
  rec.record_recv(1, 0, 3, 100);
  const CommGraph g = CommGraph::build(rec);

  VolumeExpectation expect = consistent_expectation(g);
  EXPECT_EQ(count_errors(check_volume(g, expect), "volume"), 0);

  // A stats board that disagrees with the graph — the defect an accounting
  // bug (double count, missed self-send exclusion) would produce.
  expect.total.bytes_sent += 42;
  const auto diags = check_volume(g, expect);
  EXPECT_EQ(count_errors(diags, "volume"), 1);
  EXPECT_TRUE(any_diag(diags, "volume", "CommVolume stats"));
}

TEST(SeededDefects, VolumeBelowLowerBoundIsDetected) {
  TraceRecorder rec(2);
  rec.record_send(0, 1, 3, 100);
  rec.record_recv(1, 0, 3, 100);
  const CommGraph g = CommGraph::build(rec);

  VolumeExpectation expect = consistent_expectation(g);
  expect.lower_bound_bytes = 1e6;  // schedule moves far less than "proven"
  const auto diags = check_volume(g, expect);
  EXPECT_TRUE(any_diag(diags, "volume", "lower bound"));
}

TEST(SeededDefects, CaluRealScheduleDetectsSeededVolumeDefects) {
  // The synthetic-graph defects above prove each pass in isolation; this
  // runs them against the real CALU dry-run schedule so the new backend is
  // part of the seeded-defect matrix too: clean as recorded, and each
  // seeded accounting defect is caught on the genuine trace.
  lu::LuConfig cfg;
  cfg.n = 128;
  cfg.p = 8;
  cfg.mode = lu::Mode::DryRun;
  TraceRecorder rec(8);
  cfg.trace = &rec;
  (void)lu::make_algorithm("CALU")->run(nullptr, cfg);
  const CommGraph g = CommGraph::build(rec);

  VolumeExpectation expect = consistent_expectation(g);
  for (const Diagnostic& d : run_all_passes(g, expect))
    ADD_FAILURE() << to_string(d);

  VolumeExpectation off_by = expect;
  off_by.total.bytes_sent += 42;
  EXPECT_EQ(count_errors(check_volume(g, off_by), "volume"), 1);

  VolumeExpectation impossible = expect;
  impossible.lower_bound_bytes = 1e18;  // "proven" floor above the schedule
  EXPECT_TRUE(any_diag(check_volume(g, impossible), "volume", "lower bound"));
}

TEST(SeededDefects, SelfSendsAreExcludedFromVolume) {
  // Multicast destination lists include the sender; StatsBoard counts no
  // bytes for the self-delivery and the graph accounting must agree.
  TraceRecorder rec(2);
  rec.record_send(0, 0, 4, 64);
  rec.record_send(0, 1, 4, 64);
  rec.record_recv(0, 0, 4, 64);
  rec.record_recv(1, 0, 4, 64);
  const CommGraph g = CommGraph::build(rec);

  VolumeExpectation expect;
  expect.total.bytes_sent = 64;  // the remote copy only
  expect.total.messages_sent = 1;
  expect.max_rank_bytes = 64;
  EXPECT_EQ(count_errors(check_volume(g, expect), "volume"), 0);
}

// ---- buffer-ownership lint -----------------------------------------------

TEST(OwnershipLint, UseAfterTakeReportsThroughHandler) {
  std::vector<std::string> reports;
  auto previous = simnet::set_buffer_misuse_handler(
      [&](const std::string& what) { reports.push_back(what); });

  simnet::BufferView view(
      simnet::make_shared_buffer(std::vector<double>{1.0, 2.0}));
  const std::vector<double> out = std::move(view).take();
  EXPECT_EQ(out.size(), 2u);
  (void)view.data();  // NOLINT(bugprone-use-after-move): the defect under test

  (void)simnet::set_buffer_misuse_handler(std::move(previous));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_NE(reports[0].find("after take()"), std::string::npos);
}

TEST(OwnershipLint, DefaultHandlerThrows) {
  simnet::BufferView view(
      simnet::make_shared_buffer(std::vector<double>{1.0}));
  const std::vector<double> out = std::move(view).take();
  EXPECT_EQ(out.size(), 1u);
  EXPECT_THROW((void)view.data(), ContractViolation);  // NOLINT(bugprone-use-after-move)
}

/// The mutation lint runs in the receive epilogue both clocks share;
/// Network::receive reaches it through a separate return under each, so it
/// is pinned under both.
class InFlightLint : public ::testing::TestWithParam<simnet::ExecMode> {};

TEST_P(InFlightLint, InFlightMutationOfSharedPayloadIsDetected) {
  // A rank mutating an immutable shared payload while it sits in a mailbox
  // is the aliasing bug the zero-copy fabric must never allow. The trace
  // fingerprint stamped at deliver time catches it at receive time.
  std::vector<std::string> reports;
  auto previous = simnet::set_buffer_misuse_handler(
      [&](const std::string& what) { reports.push_back(what); });

  simnet::TraceRecorder rec;
  simnet::FabricSpec fabric;
  fabric.mode = GetParam();
  simnet::Network net(2, fabric);
  net.set_trace(&rec);
  simnet::SharedBuffer buf =
      simnet::make_shared_buffer(std::vector<double>{1.0, 2.0, 3.0});
  auto* storage = const_cast<std::vector<double>*>(buf.get());
  simnet::Message msg;
  msg.payload = buf;
  msg.logical_bytes = 24;
  net.deliver(0, 1, 7, std::move(msg));
  (*storage)[0] = -99.0;  // the seeded defect: in-flight mutation
  const simnet::Message got = net.receive(1, 0, 7);
  EXPECT_EQ(got.logical_bytes, 24u);

  (void)simnet::set_buffer_misuse_handler(std::move(previous));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_NE(reports[0].find("mutated in flight"), std::string::npos);
  // The lint fires after the Recv event is logged.
  ASSERT_EQ(rec.rank_events(1).size(), 1u);
  EXPECT_EQ(rec.rank_events(1)[0].kind, simnet::EventKind::Recv);
}

INSTANTIATE_TEST_SUITE_P(
    OwnershipLint, InFlightLint,
    ::testing::Values(simnet::ExecMode::HostClock,
                      simnet::ExecMode::VirtualTime),
    [](const ::testing::TestParamInfo<simnet::ExecMode>& info) {
      return info.param == simnet::ExecMode::VirtualTime ? "VirtualTime"
                                                         : "HostClock";
    });

// ---- contextual assertions (support/assert.hpp) --------------------------

TEST(CommContext, FailureMessageCarriesLocation) {
  CommContext ctx;
  ctx.rank = 3;
  ctx.step = 17;
  ctx.src = 1;
  ctx.dst = 3;
  try {
    CONFLUX_EXPECTS_CTX(false, ctx.with_tag(simnet::make_tag(2, 17, 5)));
    FAIL() << "CONFLUX_EXPECTS_CTX did not throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank=3"), std::string::npos) << what;
    EXPECT_NE(what.find("step=17"), std::string::npos) << what;
    EXPECT_NE(what.find("src=1"), std::string::npos) << what;
    EXPECT_NE(what.find("dst=3"), std::string::npos) << what;
    EXPECT_NE(what.find("phase=2"), std::string::npos) << what;
    EXPECT_NE(what.find("sub=5"), std::string::npos) << what;
  }
}

// ---- end-to-end: every registered backend verifies clean -----------------

TEST(CommCheck, EveryRegisteredBackendVerifiesClean) {
  for (const Backend& backend : registered_backends())
    for (int p : {4, 8}) {
      const CheckResult result = check_schedule(backend, {.n = 128, .p = p});
      EXPECT_TRUE(result.ok()) << result.describe();
      for (const Diagnostic& d : result.diags)
        ADD_FAILURE() << to_string(d);
      EXPECT_GT(result.events, 0u) << result.describe();
      EXPECT_GT(result.run.total.bytes_sent, 0u) << result.describe();
    }
}

TEST(CommCheck, ForcedReplicationDepthsVerifyClean) {
  for (const char* name : {"COnfLUX", "CALU", "COnfCHOX"})
    for (int c : {1, 2}) {
      const Backend backend = find_backend(name);
      const CheckResult result =
          check_schedule(backend, {.n = 128, .p = 8, .force_layers = c});
      EXPECT_TRUE(result.ok()) << result.describe();
    }
}

TEST(CommCheck, NumericRunsVerifyCleanToo) {
  // The trace hook is not dry-run-only: a numeric COnfCHOX run (pivot-free,
  // so bit-identical schedule) must produce the same clean graph, and its
  // materialized payloads exercise the fingerprint integrity check for
  // real — every data payload is hashed at deliver and re-checked at
  // receive.
  simnet::TraceRecorder rec;
  const linalg::Matrix a = linalg::generate(64, linalg::MatrixKind::Spd, 7);
  cholesky::CholConfig cfg;
  cfg.n = 64;
  cfg.p = 4;
  cfg.mode = cholesky::Mode::Numeric;
  cfg.trace = &rec;
  const cholesky::CholResult numeric =
      cholesky::make_cholesky_algorithm("COnfCHOX")->run(&a, cfg);
  EXPECT_TRUE(numeric.spd);
  EXPECT_LT(numeric.residual, 1e-11);
  EXPECT_GT(rec.size(), 0u);

  const CommGraph g = CommGraph::build(rec);
  VolumeExpectation expect;
  expect.total = numeric.total;
  expect.max_rank_bytes = numeric.max_rank_bytes;
  const auto diags = run_all_passes(g, expect);
  for (const Diagnostic& d : diags) ADD_FAILURE() << to_string(d);

  // And the schedule matches the dry run's graph event-for-event (the
  // Numeric/DryRun duality the volume tests assert in bytes, here in full
  // schedule shape).
  const CheckResult dry =
      check_schedule(find_backend("COnfCHOX"), {.n = 64, .p = 4});
  EXPECT_TRUE(dry.ok()) << dry.describe();
  EXPECT_EQ(dry.events, rec.size());
}

TEST(CommCheck, SweepCoversEveryBackend) {
  const auto results = sweep(registered_backends(), {4, 8, 9}, {128});
  // 5 LU + 2 Cholesky backends over three P; the 2.5D ones run layers
  // {auto, 1, 2}.
  EXPECT_EQ(results.size(), 3 * (4u * 3 + 3u * 1));
  for (const CheckResult& r : results) EXPECT_TRUE(r.ok()) << r.describe();

  // Every schedule's event, message and byte counts are pinned, so any
  // change to what a backend sends fails here, not only a defect the
  // passes classify. Regenerate with
  // `confscope --check --n=128 --p=4,8,9` when a schedule change
  // is intended.
  struct Pinned {
    const char* backend;  ///< family/name
    int p;
    int force_layers;
    std::size_t events;
    std::uint64_t messages;
    std::uint64_t bytes;
  };
  const std::vector<Pinned> pinned = {
      {"LU/LibSci", 4, 0, 220, 110, 249344},
      {"LU/LibSci", 8, 0, 268, 134, 448000},
      {"LU/LibSci", 9, 0, 284, 142, 418816},
      {"LU/SLATE", 4, 0, 440, 220, 254208},
      {"LU/SLATE", 8, 0, 656, 328, 403712},
      {"LU/SLATE", 9, 0, 840, 420, 428032},
      {"LU/CANDMC", 4, 0, 220, 110, 249344},
      {"LU/CANDMC", 4, 1, 220, 110, 249344},
      {"LU/CANDMC", 4, 2, 220, 110, 249344},
      {"LU/CANDMC", 8, 0, 440, 220, 498688},
      {"LU/CANDMC", 8, 1, 268, 134, 448000},
      {"LU/CANDMC", 8, 2, 440, 220, 498688},
      {"LU/CANDMC", 9, 0, 440, 220, 498688},
      {"LU/CANDMC", 9, 1, 284, 142, 418816},
      {"LU/CANDMC", 9, 2, 440, 220, 498688},
      {"LU/COnfLUX", 4, 0, 240, 80, 223608},
      {"LU/COnfLUX", 4, 1, 240, 80, 223608},
      {"LU/COnfLUX", 4, 2, 224, 79, 296448},
      {"LU/COnfLUX", 8, 0, 496, 208, 479608},
      {"LU/COnfLUX", 8, 1, 432, 158, 405880},
      {"LU/COnfLUX", 8, 2, 496, 208, 479608},
      {"LU/COnfLUX", 9, 0, 516, 201, 450464},
      {"LU/COnfLUX", 9, 1, 516, 201, 450464},
      {"LU/COnfLUX", 9, 2, 496, 208, 479608},
      {"LU/CALU", 4, 0, 224, 72, 207432},
      {"LU/CALU", 4, 1, 224, 72, 207432},
      {"LU/CALU", 4, 2, 224, 79, 296448},
      {"LU/CALU", 8, 0, 480, 200, 463432},
      {"LU/CALU", 8, 1, 416, 150, 389704},
      {"LU/CALU", 8, 2, 480, 200, 463432},
      {"LU/CALU", 9, 0, 500, 193, 433744},
      {"LU/CALU", 9, 1, 500, 193, 433744},
      {"LU/CALU", 9, 2, 480, 200, 463432},
      {"Cholesky/ScaLAPACK", 4, 0, 14, 7, 131072},
      {"Cholesky/ScaLAPACK", 8, 0, 30, 15, 196608},
      {"Cholesky/ScaLAPACK", 9, 0, 36, 18, 262144},
      {"Cholesky/COnfCHOX", 4, 0, 152, 57, 196608},
      {"Cholesky/COnfCHOX", 4, 1, 152, 57, 196608},
      {"Cholesky/COnfCHOX", 4, 2, 172, 73, 253952},
      {"Cholesky/COnfCHOX", 8, 0, 350, 156, 376832},
      {"Cholesky/COnfCHOX", 8, 1, 304, 135, 393216},
      {"Cholesky/COnfCHOX", 8, 2, 350, 156, 376832},
      {"Cholesky/COnfCHOX", 9, 0, 344, 149, 403456},
      {"Cholesky/COnfCHOX", 9, 1, 344, 149, 403456},
      {"Cholesky/COnfCHOX", 9, 2, 350, 156, 376832},
  };
  ASSERT_EQ(results.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    const CheckResult& r = results[i];
    const Pinned& want = pinned[i];
    SCOPED_TRACE(r.describe());
    EXPECT_EQ(r.backend.family + "/" + r.backend.name, want.backend);
    EXPECT_EQ(r.config.p, want.p);
    EXPECT_EQ(r.config.force_layers, want.force_layers);
    EXPECT_EQ(r.events, want.events);
    EXPECT_EQ(r.run.total.messages_sent, want.messages);
    EXPECT_EQ(r.run.total.bytes_sent, want.bytes);
  }
}

TEST(CommCheck, UnknownFamilyIsRejected) {
  EXPECT_THROW((void)check_schedule({"QR", "Householder"}, {}),
               ContractViolation);
}

// ---- the backend registry -------------------------------------------------

/// A dry run of `b` at N = 128, P = 8 with the replication depth forced.
factor::FactorResult dry_run_with_layers(const Backend& b, int layers) {
  factor::FactorConfig cfg;
  cfg.n = 128;
  cfg.p = 8;
  cfg.mode = factor::Mode::DryRun;
  cfg.force_layers = layers;
  return b.run(nullptr, cfg);
}

TEST(Registry, LayeredMatchesWhatTheEngineDoes) {
  // `layered` is pinned to engine behaviour, not to a list: forcing depth 1
  // and 2 changes the grid exactly for the backends that replicate.
  for (const Backend& b : registered_backends()) {
    const std::string grid1 = dry_run_with_layers(b, 1).grid;
    const std::string grid2 = dry_run_with_layers(b, 2).grid;
    EXPECT_EQ(grid1 != grid2, b.layered)
        << b.family << "/" << b.name << ": " << grid1 << " vs " << grid2;
  }
  std::vector<std::string> layered;
  for (const Backend& b : registered_backends())
    if (b.layered) layered.push_back(b.name);
  EXPECT_EQ(layered, (std::vector<std::string>{"CANDMC", "COnfLUX", "CALU",
                                                "COnfCHOX"}));
}

TEST(Registry, RunMatchesTheFamilyFactory) {
  // The registry and the two family factories name the same backends:
  // every registered name constructs through its own family's factory (and
  // is unknown to the other's), and Backend::run reports that object's
  // dry-run CommVolume bit for bit.
  factor::FactorConfig cfg;
  cfg.n = 128;
  cfg.p = 8;
  cfg.mode = factor::Mode::DryRun;
  for (const Backend& b : registered_backends()) {
    const bool lu_family = b.family == "LU";
    ASSERT_TRUE(lu_family || b.family == "Cholesky") << b.family;
    factor::FactorResult want;
    if (lu_family) {
      want = lu::make_algorithm(b.name)->run(nullptr, cfg);
      EXPECT_THROW((void)cholesky::make_cholesky_algorithm(b.name),
                   ContractViolation)
          << b.name;
    } else {
      want = cholesky::make_cholesky_algorithm(b.name)->run(nullptr, cfg);
      EXPECT_THROW((void)lu::make_algorithm(b.name), ContractViolation)
          << b.name;
    }
    const factor::FactorResult got = b.run(nullptr, cfg);
    EXPECT_EQ(got.total.bytes_sent, want.total.bytes_sent) << b.name;
    EXPECT_EQ(got.total.messages_sent, want.total.messages_sent) << b.name;
    EXPECT_EQ(got.total.bytes_received, want.total.bytes_received) << b.name;
    EXPECT_EQ(got.total.messages_received, want.total.messages_received)
        << b.name;
    EXPECT_EQ(got.max_rank_bytes, want.max_rank_bytes) << b.name;
    EXPECT_EQ(got.grid, want.grid) << b.name;
  }
}

TEST(Registry, NumericRunsRejectAnInputThatIsNotNByN) {
  // The engines index the input as N x N; anything else is refused before
  // a rank reads it.
  factor::FactorConfig cfg;
  cfg.n = 192;
  cfg.p = 4;
  for (const Backend& b : registered_backends()) {
    const linalg::Matrix short_input(cfg.n - 1, cfg.n - 1);
    const linalg::Matrix wide_input(cfg.n, cfg.n + 1);
    EXPECT_THROW((void)b.run(&short_input, cfg), ContractViolation) << b.name;
    EXPECT_THROW((void)b.run(&wide_input, cfg), ContractViolation) << b.name;
  }
}

TEST(Registry, DryRunsSendOnlyGhostsAndIgnoreTheInput) {
  // Under a plan that flips a bit in every payload, with integrity on, a
  // dry run must finish with nothing corrupted: every message is a ghost.
  // Handed the numeric input, it must report the same volume as handed
  // null. The same plan fails a numeric run, so the check can fail.
  simnet::FaultSpec spec;
  spec.corrupt_prob = 1;
  const int n = 192;
  for (const Backend& b : registered_backends()) {
    const linalg::Matrix a = linalg::generate(n, b.input_kind());
    for (int p : {4, 8, 9, 16})
      for (int layers : {0, 1, 2}) {
        if (layers > 0 && !b.layered) continue;
        simnet::FaultPlan plan(spec);
        factor::FactorConfig cfg;
        cfg.n = n;
        cfg.p = p;
        cfg.force_layers = layers;
        cfg.mode = factor::Mode::DryRun;
        cfg.faults = &plan;
        cfg.integrity = true;
        const factor::FactorResult with_input = b.run(&a, cfg);
        const factor::FactorResult without = b.run(nullptr, cfg);
        EXPECT_EQ(plan.counters().corrupted, 0u)
            << b.name << " p=" << p << " c=" << layers;
        EXPECT_EQ(with_input.total.bytes_sent, without.total.bytes_sent)
            << b.name << " p=" << p << " c=" << layers;
        EXPECT_EQ(with_input.total.messages_sent,
                  without.total.messages_sent)
            << b.name << " p=" << p << " c=" << layers;
      }
  }
  const Backend conflux = find_backend("COnfLUX");
  const linalg::Matrix a = linalg::generate(n, conflux.input_kind());
  simnet::FaultPlan plan(spec);
  factor::FactorConfig cfg;
  cfg.n = n;
  cfg.p = 4;
  cfg.faults = &plan;
  cfg.integrity = true;
  EXPECT_THROW((void)conflux.run(&a, cfg), simnet::PayloadCorrupted);
}

TEST(Registry, SelectionRejectsUnknownNamesAndFamilies) {
  EXPECT_THROW((void)select_backends("Cholsky", {}), std::invalid_argument);
  EXPECT_THROW((void)select_backends("", {"COnfLUX", "COnfLUKS"}),
               std::invalid_argument);
  EXPECT_THROW((void)select_backends("LU", {"COnfCHOX"}),
               std::invalid_argument);
  EXPECT_THROW((void)find_backend("Householder"), std::invalid_argument);

  // Empty names select the whole family in registry order; named backends
  // come back in registry order, not in the order asked for.
  std::vector<std::string> names;
  for (const Backend& b : select_backends("Cholesky", {}))
    names.push_back(b.name);
  EXPECT_EQ(names, (std::vector<std::string>{"ScaLAPACK", "COnfCHOX"}));
  names.clear();
  for (const Backend& b : select_backends("", {"CALU", "LibSci"}))
    names.push_back(b.name);
  EXPECT_EQ(names, (std::vector<std::string>{"LibSci", "CALU"}));
  EXPECT_EQ(select_backends("", {}).size(), registered_backends().size());
}

}  // namespace
}  // namespace conflux::verify
