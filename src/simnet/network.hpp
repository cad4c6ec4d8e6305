/// \file network.hpp
/// The simulated interconnect: per-(destination, source) channel slots with
/// tag matching and FIFO ordering per (source, destination, tag) channel —
/// the ordering guarantee MPI gives for matching sends/receives.
///
/// One scheduler runs every rank: cooperative fibers multiplexed over
/// min(pool size, P) host threads (VtRuntime, vtime.hpp). The FabricSpec's
/// ExecMode only picks the clock the run keeps:
///   - HostClock (default): no simulated time is charged; trace and
///     telemetry stamp the host's steady clock.
///   - VirtualTime: a LogGP clock advances per-rank virtual time on every
///     send/receive, and the join reports the predicted makespan — the
///     mode that runs P = 512–4096 on a laptop.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "simnet/faults.hpp"
#include "simnet/message.hpp"
#include "simnet/stats.hpp"
#include "simnet/trace.hpp"
#include "simnet/vtime.hpp"

namespace conflux::telemetry {
class TelemetryBoard;
}

namespace conflux::simnet {

/// Thrown out of blocked receives when another rank aborted the job
/// (exception escaped its SPMD body); prevents deadlock on error paths.
class JobAborted : public std::runtime_error {
 public:
  JobAborted() : std::runtime_error("simnet job aborted by another rank") {}
};

/// A shared-memory stand-in for the machine's network fabric. Sends are
/// asynchronous (never block — unbounded mailboxes); a receive parks the
/// calling rank's fiber until a matching message arrives. All byte
/// accounting flows through `stats()`.
///
/// Concurrency design: each destination owns an array of channel slots,
/// one per source (hashed down to at most kMaxChannelSlots), each guarded
/// by its own mutex. Only the destination rank ever parks on a slot, and a
/// deliver wakes it only when it is parked on the (source, tag) pair being
/// delivered.
class Network {
 public:
  explicit Network(int nranks, FabricSpec spec = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] int size() const { return nranks_; }

  /// Deposit a message from `src` into `dst`'s mailbox under `tag` — the
  /// fabric's one send entry. Every Comm send, multicast and collective
  /// hop ends here; a multicast is one deliver per destination, each
  /// aliasing the same refcounted payload.
  void deliver(int src, int dst, Tag tag, Message msg);

  /// Park the calling rank until a message from `src` with `tag` is
  /// available for `me`, then take it.
  [[nodiscard]] Message receive(int me, int src, Tag tag);

  /// Run `job(rank)` once for every rank, as cooperative fibers multiplexed
  /// over min(pool size, P) host threads. If any rank throws, the job is
  /// aborted (parked receives wake up with JobAborted) and the first
  /// exception is rethrown here; if every live rank parks with no matching
  /// message in flight, the run fails with a ReceiveTimeout whose
  /// deadlock() is true.
  /// A subsequent run resets the abort flag and drains any stale messages.
  /// All rank failures of the run (not just the rethrown first, and every
  /// rank parked in a deadlock) are collected in failure_report().
  void run(const std::function<void(int)>& job);

  // --- virtual time ---------------------------------------------------------

  /// Predicted wall-clock of the last virtual-time run: the maximum
  /// per-rank virtual clock after the join. 0 under the host clock.
  [[nodiscard]] double virtual_makespan() const;

  /// `rank`'s current virtual clock in seconds (0 under the host clock).
  /// Valid from the rank's own fiber during a run, or from anywhere after
  /// the join.
  [[nodiscard]] double virtual_seconds(int rank) const;

  /// Advance `rank`'s virtual clock by gamma * flops (no-op under the host
  /// clock or when the link model is comm-only). Called by the engines from
  /// the rank's own context.
  void charge_flops(int rank, double flops);

  /// Mark the job as aborted and wake all parked receivers.
  void abort();
  [[nodiscard]] bool aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }

  [[nodiscard]] StatsBoard& stats() { return stats_; }
  [[nodiscard]] const StatsBoard& stats() const { return stats_; }

  /// Attach a per-rank event recorder: every deliver and receive is logged
  /// in program order (see trace.hpp), and data payloads get the paranoid
  /// in-flight-mutation fingerprint check. The recorder is reset to this
  /// network's rank count. Pass nullptr to detach. Must not be called
  /// while a job is running.
  void set_trace(TraceRecorder* trace);

  /// Attach a ConfScope telemetry board (see support/telemetry.hpp): every
  /// deliver attributes wire bytes to the sender's open span, every receive
  /// records a (src, tag) wait sample, and per-rank channel queue-depth
  /// high-water marks are flushed into the board after each run's join.
  /// The board is reset to this network's rank count. Pass nullptr to
  /// detach. Must not be called while a job is running.
  void set_telemetry(telemetry::TelemetryBoard* board);

  // --- ConfChaos: faults, containment, failure aggregation ------------------

  /// Attach a seeded fault plan (simnet/faults.hpp): every remote deliver
  /// consults it; bit-flips corrupt the payload, delays and stalls become
  /// virtual-clock charges. A plan that can delay or stall needs the
  /// virtual clock: attaching one under the host clock is a contract
  /// violation. The plan is reset to this network's rank count; its
  /// sequence counters restart at the top of every run. Pass nullptr to
  /// detach (zero hot-path cost). Must not be called while a job is
  /// running.
  void set_faults(FaultPlan* plan);

  /// End-to-end payload integrity: stamp every data payload with its
  /// FNV-1a fingerprint at deliver time and re-verify on the receiver once
  /// the message is matched, raising PayloadCorrupted on mismatch. Off (the
  /// default) costs nothing.
  void set_integrity(bool on) { integrity_ = on; }

  /// Install the containment policy for subsequent runs: the virtual-clock
  /// cap (VirtualTime). All-zero restores the default of no cap.
  void set_policy(const RunPolicy& policy) { policy_ = policy; }

  /// One rank's failure in the last run.
  struct RankFailure {
    int rank = -1;
    std::string message;
  };

  /// Every rank that failed during the last run, sorted by rank — run
  /// rethrows only the first exception, this reports them all.
  [[nodiscard]] std::vector<RankFailure> failure_report() const;

 private:
  friend class VtRuntime;  ///< parks/wakes under the channel mutexes

  /// A delivered message not yet matched by a receive.
  struct Pending {
    int src = -1;
    Tag tag = 0;
    Message msg;
  };

  /// One (destination, source-slot) channel. Its mailbox is one flat FIFO
  /// of pending (source, tag) entries — MPI's unexpected-message queue: a
  /// receive takes the first entry that matches, so order per (source,
  /// destination, tag) holds, and slot sharing at very large rank counts
  /// stays correct. The vector's capacity is reused, so a deliver
  /// allocates nothing per key.
  struct Channel {
    std::mutex mutex;
    std::vector<Pending> pending;
  };

  /// Per-destination inbound queue-depth accounting for ConfScope. This
  /// lives beside the channels (not inside them) deliberately: channel
  /// slots are shared between sources at P > kMaxChannelSlots, so a
  /// per-slot counter would report a per-slot high-water mark as if it
  /// were the rank's — under sharing, neither a max nor a sum over slots
  /// reconstructs the true simultaneous per-rank depth. Atomics, because
  /// deliverers into different slots of one destination hold different
  /// channel mutexes.
  struct Inbound {
    std::atomic<int> depth{0};
    std::atomic<int> hwm{0};
  };

  [[nodiscard]] Channel& channel(int dst, int src) {
    return channels_[static_cast<std::size_t>(dst) * slots_per_rank_ +
                     static_cast<std::size_t>(src) % slots_per_rank_];
  }
  void enqueue(int dst, int src, Tag tag, Message msg);
  [[nodiscard]] bool pop(Channel& ch, int me, int src, Tag tag, Message* out);
  [[nodiscard]] Message complete_receive(int me, int src, Tag tag,
                                         Message&& msg,
                                         std::uint64_t wait_begin_ns,
                                         std::uint64_t wait_end_ns);
  void flush_queue_hwm();
  void note_rank_failure(int rank, std::string message);

  int nranks_ = 0;
  std::size_t slots_per_rank_ = 0;
  std::vector<Channel> channels_;
  std::vector<Inbound> inbound_;
  StatsBoard stats_;
  TraceRecorder* trace_ = nullptr;
  telemetry::TelemetryBoard* telemetry_ = nullptr;
  FaultPlan* faults_ = nullptr;
  bool integrity_ = false;
  RunPolicy policy_;
  mutable std::mutex failures_mutex_;
  std::vector<RankFailure> rank_failures_;
  std::atomic<bool> aborted_{false};
  bool virtual_clock_ = false;  ///< ExecMode::VirtualTime
  VtRuntime sched_;             ///< the rank scheduler
};

}  // namespace conflux::simnet
