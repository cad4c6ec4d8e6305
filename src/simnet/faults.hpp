/// \file faults.hpp
/// ConfChaos: deterministic fault injection and failure containment for the
/// simulated fabric.
///
/// Injection — a seeded FaultPlan attached to a Network (via
/// FactorConfig::faults, mirroring trace/telemetry) decides, per delivered
/// message, whether to inject a link delay (plus jitter), a sender-side
/// rank stall, or a payload bit-flip. Every decision is a pure function of
/// (seed, attempt, src, dst, tag, per-source sequence number): the sequence
/// number advances in the sender's program order, which the dataflow fixes,
/// so chaos runs are bit-for-bit reproducible across repeats and host
/// worker counts. Delays and stalls fold into the per-rank LogGP clock, so
/// they need ExecMode::VirtualTime: injected chaos is makespan-visible and
/// the predicted wall clock stays deterministic. Bit-flips work under
/// either clock.
///
/// Containment — RunPolicy caps the virtual clock, so a lost or
/// indefinitely delayed message becomes a typed ReceiveTimeout carrying the
/// full CommContext and a parked-channel snapshot — a located diagnostic
/// instead of a CI hang. A run whose every live rank parks with no message
/// in flight fails the same way under either clock, flagged as a deadlock.
/// Payload integrity (FactorConfig::integrity) stamps every payload with
/// the trace layer's FNV-1a fingerprint at deliver time and re-checks it
/// when the receiver matches the message, raising PayloadCorrupted instead
/// of silently misfactoring.
///
/// Recovery lives one layer up: factor::run_with_retry (factor/retry.hpp)
/// classifies these exceptions as transient and re-runs with capped
/// exponential backoff.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "simnet/message.hpp"
#include "support/assert.hpp"

namespace conflux::simnet {

/// Per-run containment policy, honored by Network::receive and the
/// collectives built on it. All-zero (the default) means no cap, with zero
/// hot-path cost.
struct RunPolicy {
  /// VirtualTime mode: cap on a rank's virtual clock, checked when a
  /// receive completes (0 = no cap). Fault-stalled simulated runs whose
  /// clock blows past the cap fail with ReceiveTimeout deterministically.
  double virtual_deadline_s = 0;
};

/// What the injector may do to one delivered message.
struct FaultSpec {
  std::uint64_t seed = 1;  ///< the whole plan re-randomizes with this

  // --- link faults (per (src, dst) pair, decided per message) --------------
  double faulty_links = 1.0;  ///< fraction of (src, dst) pairs subject to
                              ///< delay injection (chosen by hash of seed)
  double delay_prob = 0;      ///< probability a message on a faulty link is
                              ///< delayed
  double delay_s = 0;         ///< base injected delivery delay
  double jitter_s = 0;        ///< extra uniform-[0, jitter_s) per delay

  // --- rank faults ---------------------------------------------------------
  double stall_prob = 0;   ///< per-send probability the sender stalls
  double stall_s = 0;      ///< stall duration (sender-side)
  int slow_ranks = 0;      ///< exactly this many hash-chosen victim ranks...
  double slow_factor = 1;  ///< ...have their injected delays/stalls
                           ///< multiplied by this (a persistent slowdown)

  // --- payload corruption --------------------------------------------------
  double corrupt_prob = 0;  ///< per-message probability of one bit flip in
                            ///< the payload (messages with payloads only)

  /// True when the plan can delay or stall: clock charges, which need
  /// ExecMode::VirtualTime.
  [[nodiscard]] bool timed() const { return delay_prob > 0 || stall_prob > 0; }
  [[nodiscard]] bool any() const { return timed() || corrupt_prob > 0; }
};

/// A seeded, reproducible fault schedule. Attach to a Network with
/// Network::set_faults (or through FactorConfig::faults); the fabric calls
/// at_delivery for every remote message. Thread-safe: per-source sequence
/// counters are only ever advanced from the source rank's own context.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(FaultSpec spec) : spec_(spec) {}

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }

  /// The injector's verdict for one message.
  struct Injection {
    double delay_s = 0;  ///< extra link latency before delivery
    double stall_s = 0;  ///< sender-side stall charged before injection
    bool corrupt = false;          ///< flip one payload bit at delivery
    std::uint64_t corrupt_bit = 0; ///< which bit (over the whole payload)
  };

  /// Size the per-source counters and the slow-rank set for `nranks` ranks
  /// (Network::set_faults calls this; idempotent for a matching size).
  void reset(int nranks);

  /// Begin one run/attempt: sequence counters restart so an identical rerun
  /// injects identically (the determinism contract test_faults pins).
  /// Called by the Network at the top of every run.
  void begin_run();

  /// Advance to the next retry attempt: all subsequent decisions
  /// re-randomize, so a transiently failed run can succeed on retry.
  /// factor::run_with_retry calls this between attempts.
  void next_attempt() { attempt_.fetch_add(1, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t attempt() const {
    return attempt_.load(std::memory_order_relaxed);
  }

  /// Decide the faults for the next message from `src` to `dst` under
  /// `tag` with a payload of `payload_doubles` doubles (0 = ghost; ghosts
  /// cannot be corrupted). Deterministic given the dataflow; advances
  /// src's sequence counter.
  [[nodiscard]] Injection at_delivery(int src, int dst, Tag tag,
                                      std::size_t payload_doubles);

  /// True when `rank` is one of the spec's hash-chosen slow ranks.
  [[nodiscard]] bool slow_rank(int rank) const;

  /// Injections actually decided since the last reset() — lifetime totals
  /// across runs and retry attempts, so a recovery report can show what a
  /// chain of failed attempts actually suffered.
  struct Counters {
    std::uint64_t delayed = 0;
    std::uint64_t stalled = 0;
    std::uint64_t corrupted = 0;
  };
  [[nodiscard]] Counters counters() const;

 private:
  FaultSpec spec_;
  std::atomic<std::uint64_t> attempt_{0};
  int nranks_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> seq_;  ///< per-source
  std::vector<std::uint8_t> slow_;                     ///< slow-rank set
  std::atomic<std::uint64_t> delayed_{0};
  std::atomic<std::uint64_t> stalled_{0};
  std::atomic<std::uint64_t> corrupted_{0};
};

/// One rank observed parked in a blocking receive when a timeout or
/// deadlock diagnostic was taken.
struct ParkedRank {
  int rank = -1;
  int src = -1;           ///< source the rank is waiting on
  std::uint64_t tag = 0;  ///< tag the rank is waiting on
};

/// A receive exceeded the run policy's virtual-clock cap, or every live
/// rank parked with no message in flight (`deadlock() == true`). Carries
/// the full communication context of the failed receive plus a snapshot of
/// every parked rank, so a would-be hang is a located diagnostic.
class ReceiveTimeout : public std::runtime_error {
 public:
  ReceiveTimeout(const std::string& what, CommContext context,
                 std::vector<ParkedRank> parked, bool deadlock)
      : std::runtime_error(what),
        context_(context),
        parked_(std::move(parked)),
        deadlock_(deadlock) {}

  [[nodiscard]] const CommContext& context() const { return context_; }
  [[nodiscard]] const std::vector<ParkedRank>& parked() const {
    return parked_;
  }

  /// True for the all-ranks-parked case: a deterministic program bug (a
  /// retry would deadlock again), as opposed to a deadline expiry, which a
  /// retry may outrun. factor::is_transient_failure keys off this.
  [[nodiscard]] bool deadlock() const { return deadlock_; }

 private:
  CommContext context_;
  std::vector<ParkedRank> parked_;
  bool deadlock_ = false;
};

/// End-to-end payload integrity violation: the FNV-1a fingerprint stamped
/// at deliver time did not match the payload the receiver matched
/// (FactorConfig::integrity). Raised from the receiving rank's context
/// before the payload reaches the engine, so corruption can never silently
/// misfactor.
class PayloadCorrupted : public std::runtime_error {
 public:
  PayloadCorrupted(const std::string& what, CommContext context)
      : std::runtime_error(what), context_(context) {}

  [[nodiscard]] const CommContext& context() const { return context_; }

 private:
  CommContext context_;
};

}  // namespace conflux::simnet
