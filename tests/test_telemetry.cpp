// Tests for ConfScope's span recorder: balanced instrumentation and byte
// attribution across every registered backend, the zero-allocation
// disabled-mode contract, wait-sample and queue-high-water-mark fabric
// metrics, and the Chrome-trace export's JSON validity.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "factor/factorization.hpp"
#include "simnet/comm.hpp"
#include "simnet/network.hpp"
#include "simnet/spmd.hpp"
#include "support/telemetry.hpp"
#include "verify/commcheck.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

// Counting global allocator so the disabled-mode test can prove ScopedSpan
// with a null board allocates nothing on the hot path. new and delete are
// replaced as a matched malloc/free pair; GCC's mismatch heuristic cannot
// see that both replacements are active at once, hence the pragma. The
// nothrow new is replaced too: std::stable_sort's temporary buffer comes
// from it and goes back through the sized delete, so under ASan a
// sanitizer-owned nothrow new would pair with this free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace conflux {
namespace {

/// Minimal recursive-descent JSON validity checker — enough to prove the
/// Chrome-trace export is loadable by a real parser.
class JsonChecker {
 public:
  static bool valid(const std::string& s) {
    JsonChecker c(s);
    return c.value() && (c.ws(), c.i_ == s.size());
  }

 private:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t'))
      ++i_;
  }
  bool lit(const char* t) {
    const std::size_t len = std::strlen(t);
    if (s_.compare(i_, len, t) != 0) return false;
    i_ += len;
    return true;
  }
  bool string() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    for (++i_; i_ < s_.size(); ++i_) {
      if (s_[i_] == '\\')
        ++i_;
      else if (s_[i_] == '"') {
        ++i_;
        return true;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-'))
      ++i_;
    return i_ > start;
  }
  bool value() {
    ws();
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': {
        ++i_;
        ws();
        if (i_ < s_.size() && s_[i_] == '}') return ++i_, true;
        while (true) {
          ws();
          if (!string()) return false;
          ws();
          if (i_ >= s_.size() || s_[i_] != ':') return false;
          ++i_;
          if (!value()) return false;
          ws();
          if (i_ < s_.size() && s_[i_] == ',') {
            ++i_;
            continue;
          }
          return i_ < s_.size() && s_[i_] == '}' && (++i_, true);
        }
      }
      case '[': {
        ++i_;
        ws();
        if (i_ < s_.size() && s_[i_] == ']') return ++i_, true;
        while (true) {
          if (!value()) return false;
          ws();
          if (i_ < s_.size() && s_[i_] == ',') {
            ++i_;
            continue;
          }
          return i_ < s_.size() && s_[i_] == ']' && (++i_, true);
        }
      }
      case '"':
        return string();
      case 't':
        return lit("true");
      case 'f':
        return lit("false");
      case 'n':
        return lit("null");
      default:
        return number();
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

/// Dry-run one registered backend with the board attached (the commcheck
/// configuration, minus the verifier).
factor::FactorResult run_with_board(const verify::Backend& backend,
                                    telemetry::TelemetryBoard* board, int n,
                                    int p) {
  factor::FactorConfig cfg;
  cfg.n = n;
  cfg.p = p;
  cfg.mode = factor::Mode::DryRun;
  cfg.verify = false;
  cfg.telemetry = board;
  return backend.run(nullptr, cfg);
}

TEST(Telemetry, SpansBalancedAndBytesAttributedOnEveryBackend) {
  const std::set<std::string> known = {
      telemetry::kLayerReduction, telemetry::kPanelTournament,
      telemetry::kPanelFactor,    telemetry::kPivotApply,
      telemetry::kTrsm,           telemetry::kSchurUpdate};
  for (const verify::Backend& b : verify::registered_backends()) {
    telemetry::TelemetryBoard board;
    const factor::FactorResult run = run_with_board(b, &board, 128, 8);
    EXPECT_TRUE(board.balanced()) << b.family << "/" << b.name;

    std::uint64_t spans = 0;
    for (int r = 0; r < board.nranks(); ++r)
      spans += board.rank_spans(r).size();
    EXPECT_GT(spans, 0u) << b.family << "/" << b.name;

    // Every span uses a canonical phase name, and every wire byte the run
    // sent is attributed to some phase (no instrumentation gaps).
    std::uint64_t phase_bytes = 0;
    for (const auto& [name, total] : board.phase_totals()) {
      EXPECT_TRUE(known.count(name) != 0)
          << b.family << "/" << b.name << " unknown phase " << name;
      phase_bytes += total.bytes;
    }
    EXPECT_EQ(phase_bytes, run.total.bytes_sent) << b.family << "/" << b.name;

    // Telemetry's wall covers the spans; busy + blocked stays within it.
    EXPECT_GT(board.wall_seconds(), 0.0);
    for (int r = 0; r < board.nranks(); ++r)
      EXPECT_LE(board.busy_seconds(r),
                board.wall_seconds() + 1e-9)
          << b.family << "/" << b.name << " rank " << r;
  }
}

TEST(Telemetry, DisabledSpansAllocateNothing) {
  // The zero-overhead contract: a null board makes ScopedSpan a pair of
  // pointer tests — no clock read, no allocation.
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100000; ++i) {
    const telemetry::ScopedSpan span(nullptr, 0, telemetry::kSchurUpdate, i);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

TEST(Telemetry, WaitSamplesAttributeBlockedTimeToSourceAndTag) {
  // The receiver is rank 0: ranks start in rank order, so even on one
  // fiber worker it parks before the sender's sleep begins.
  simnet::Network net(2);
  telemetry::TelemetryBoard board;
  net.set_telemetry(&board);
  simnet::run_spmd(net, [](simnet::Comm& comm) {
    if (comm.rank() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      comm.send(0, 7, std::vector<double>(4));
    } else {
      (void)comm.recv_view(1, 7);
    }
  });
  const std::vector<telemetry::WaitSample>& waits = board.rank_waits(0);
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_EQ(waits[0].src, 1);
  EXPECT_EQ(waits[0].tag, 7u);
  EXPECT_EQ(waits[0].bytes, 4 * sizeof(double));
  // Rank 0 sat parked through most of the sender's 20 ms sleep.
  EXPECT_GE(waits[0].ns, 10u * 1000 * 1000);
  EXPECT_GE(board.blocked_seconds(0), 0.010);
  EXPECT_EQ(board.rank_waits(1).size(), 0u);
}

TEST(Telemetry, QueueHighWaterMarkSeesReceiverBacklog) {
  simnet::Network net(2);
  telemetry::TelemetryBoard board;
  net.set_telemetry(&board);
  simnet::run_spmd(net, [](simnet::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 5; ++i)
        comm.send(1, 1, std::vector<double>{static_cast<double>(i)});
      comm.send_ghost(1, 2, 0);
    } else {
      // Channel FIFO: the ghost arrives after all five payloads are queued,
      // so the inbound backlog reached at least 5 before the first pop.
      (void)comm.recv_ghost(0, 2);
      for (int i = 0; i < 5; ++i)
        EXPECT_EQ(comm.recv_view(0, 1)[0], static_cast<double>(i));
    }
  });
  EXPECT_GE(board.queue_hwm(1), 5);
  EXPECT_EQ(board.queue_hwm(0), 0);
}

TEST(Telemetry, BytesLandOnTheSendersInnermostSpan) {
  simnet::Network net(2);
  telemetry::TelemetryBoard board;
  net.set_telemetry(&board);
  simnet::run_spmd(net, [&](simnet::Comm& comm) {
    if (comm.rank() == 0) {
      const telemetry::ScopedSpan outer(&board, 0, telemetry::kSchurUpdate);
      comm.send(1, 1, std::vector<double>(3));
      {
        const telemetry::ScopedSpan inner(&board, 0,
                                          telemetry::kLayerReduction);
        comm.send(1, 2, std::vector<double>(5));
      }
    } else {
      (void)comm.recv_view(0, 1);
      (void)comm.recv_view(0, 2);
    }
  });
  const auto totals = board.phase_totals();
  ASSERT_TRUE(totals.count(telemetry::kSchurUpdate) != 0);
  ASSERT_TRUE(totals.count(telemetry::kLayerReduction) != 0);
  EXPECT_EQ(totals.at(telemetry::kSchurUpdate).bytes, 3 * sizeof(double));
  EXPECT_EQ(totals.at(telemetry::kLayerReduction).bytes, 5 * sizeof(double));
}

TEST(Telemetry, PhaseTotalsUseExclusiveTime) {
  telemetry::TelemetryBoard board(1);
  board.open_span(0, telemetry::kSchurUpdate);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  board.open_span(0, telemetry::kLayerReduction);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  board.close_span(0);
  board.close_span(0);
  const auto totals = board.phase_totals();
  // The nested 10 ms belongs to layer_reduction alone; schur_update keeps
  // only its ~5 ms of self time.
  EXPECT_GE(totals.at(telemetry::kLayerReduction).seconds, 0.008);
  EXPECT_LT(totals.at(telemetry::kSchurUpdate).seconds, 0.010);
  EXPECT_GE(totals.at(telemetry::kSchurUpdate).seconds, 0.002);
}

TEST(Telemetry, ChromeTraceIsValidLoadableJson) {
  telemetry::TelemetryBoard board;
  (void)run_with_board({"LU", "COnfLUX"}, &board, 128, 4);
  std::ostringstream os;
  telemetry::ChromeTraceWriter(os).add_process(0, "COnfLUX", board);
  const std::string trace = os.str();
  EXPECT_TRUE(JsonChecker::valid(trace)) << trace.substr(0, 400);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("panel_tournament"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("process_name"), std::string::npos);
}

TEST(Telemetry, MultiProcessTraceKeepsOnePidPerBoard) {
  telemetry::TelemetryBoard a(1), b(1);
  a.open_span(0, telemetry::kTrsm);
  a.close_span(0);
  b.open_span(0, telemetry::kPivotApply);
  b.close_span(0);
  std::ostringstream os;
  {
    telemetry::ChromeTraceWriter writer(os);
    writer.add_process(0, "first", a);
    writer.add_process(1, "second", b);
  }  // destructor finishes the document
  const std::string trace = os.str();
  EXPECT_TRUE(JsonChecker::valid(trace));
  EXPECT_NE(trace.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(trace.find("first"), std::string::npos);
  EXPECT_NE(trace.find("second"), std::string::npos);
}

}  // namespace
}  // namespace conflux
