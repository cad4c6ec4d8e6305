/// \file network.hpp
/// The simulated interconnect: per-(destination, source) channel slots with
/// tag matching and FIFO ordering per (source, destination, tag) channel —
/// the ordering guarantee MPI gives for matching sends/receives.
///
/// Two execution modes share the fabric (FabricSpec, vtime.hpp):
///   - Threaded: the persistent rank team — one OS thread per simulated
///     rank, created once and reused across successive SPMD runs.
///   - VirtualTime: cooperative fibers multiplexed over the shared thread
///     pool, with a LogGP clock advancing per-rank virtual time on every
///     send/receive — the mode that runs P = 512–4096 on a laptop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
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
/// asynchronous (never block — unbounded mailboxes); receives block until a
/// matching message arrives. All byte accounting flows through `stats()`.
///
/// Concurrency design: each destination owns an array of channel slots,
/// one per source (hashed down to at most kMaxChannelSlots). Only the
/// destination rank's thread ever waits on a slot, so a deliver wakes at
/// most one thread, and it does so with a targeted `notify_one` — and only
/// when the receiver is actually parked on the (source, tag) pair being
/// delivered. Receivers spin briefly before blocking when the host has
/// spare cores; on oversubscribed hosts (fewer cores than ranks) they block
/// immediately.
class Network {
 public:
  explicit Network(int nranks, FabricSpec spec = {});
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] int size() const { return nranks_; }

  /// Deposit a message from `src` into `dst`'s mailbox under `tag`.
  void deliver(int src, int dst, Tag tag, Message msg);

  /// Deposit the same immutable payload into every destination's mailbox.
  /// Zero copies: all recipients share one refcounted buffer. Accounting is
  /// identical to `dsts.size()` point-to-point sends of the same size.
  void multicast(int src, std::span<const int> dsts, Tag tag,
                 SharedBuffer payload, std::size_t logical_bytes);

  /// Block until a message from `src` with `tag` is available for `me`.
  [[nodiscard]] Message receive(int me, int src, Tag tag);

  /// Run `job(rank)` once for every rank. In Threaded mode this uses the
  /// persistent rank team: threads are created lazily on the first call and
  /// reused by later calls (and by later runs over the same Network). In
  /// VirtualTime mode the ranks run as cooperative fibers multiplexed over
  /// the shared thread pool. Either way, if any rank throws, the job is
  /// aborted (blocked receives wake up with JobAborted) and the first
  /// exception is rethrown here; a subsequent run resets the abort flag and
  /// drains any stale messages. All rank failures of the run (not just the
  /// rethrown first) are collected in failure_report().
  void run_team(const std::function<void(int)>& job);

  // --- virtual time ---------------------------------------------------------

  [[nodiscard]] bool virtual_time() const { return vt_ != nullptr; }

  /// Predicted wall-clock of the last virtual-time run: the maximum
  /// per-rank virtual clock after the join. 0 in Threaded mode.
  [[nodiscard]] double virtual_makespan() const;

  /// `rank`'s current virtual clock in seconds (0 in Threaded mode). Valid
  /// from the rank's own fiber during a run, or from anywhere after the
  /// join.
  [[nodiscard]] double virtual_seconds(int rank) const;

  /// Advance `rank`'s virtual clock by gamma * flops (no-op in Threaded
  /// mode or when the link model is comm-only). Called by the engines from
  /// the rank's own context.
  void charge_flops(int rank, double flops);

  /// Mark the job as aborted and wake all blocked receivers.
  void abort();
  [[nodiscard]] bool aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }

  [[nodiscard]] StatsBoard& stats() { return stats_; }
  [[nodiscard]] const StatsBoard& stats() const { return stats_; }

  /// Attach a per-rank event recorder: every deliver/multicast/receive is
  /// logged in program order (see trace.hpp), and shared payloads get the
  /// paranoid in-flight-mutation fingerprint check. The recorder is reset
  /// to this network's rank count. Pass nullptr to detach. Must not be
  /// called while a job is running.
  void set_trace(TraceRecorder* trace);

  /// Attach a ConfScope telemetry board (see support/telemetry.hpp): every
  /// deliver attributes wire bytes to the sender's open span, every receive
  /// records a (src, tag) wait sample, and per-rank channel queue-depth
  /// high-water marks are flushed into the board after each run_team join.
  /// The board is reset to this network's rank count. Pass nullptr to
  /// detach. Must not be called while a job is running.
  void set_telemetry(telemetry::TelemetryBoard* board);

  // --- ConfChaos: faults, containment, failure aggregation ------------------

  /// Attach a seeded fault plan (simnet/faults.hpp): every remote deliver
  /// consults it and the decided delays/stalls/bit-flips are applied — as
  /// real sleeps and delivery-ripeness timestamps in Threaded mode, as
  /// virtual-clock charges in VirtualTime mode. The plan is reset to this
  /// network's rank count; its sequence counters restart at the top of
  /// every run_team. Pass nullptr to detach (zero hot-path cost). Must not
  /// be called while a job is running.
  void set_faults(FaultPlan* plan);

  /// End-to-end payload integrity: stamp every payload (shared *and*
  /// exclusive) with its FNV-1a fingerprint at deliver time and re-verify
  /// on the receiver once the message is matched, raising PayloadCorrupted
  /// on mismatch. Off (the default) costs nothing.
  void set_integrity(bool on) { integrity_ = on; }

  /// Install the containment policy for subsequent runs: receive deadlines
  /// (Threaded) and the virtual-clock cap (VirtualTime). All-zero restores
  /// the wait-forever default.
  void set_policy(const RunPolicy& policy) { policy_ = policy; }

  /// One rank's failure in the last run.
  struct RankFailure {
    int rank = -1;
    std::string message;
  };

  /// Every rank that failed during the last run_team, sorted by rank —
  /// run_team rethrows only the first exception, this reports them all.
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
    std::condition_variable cv;
    std::vector<Pending> pending;
    // What the destination thread is parked on, if anything. Guarded by
    // `mutex`; lets deliver skip the notify for non-matching traffic.
    int waiting_src = -1;
    Tag waiting_tag = 0;
    bool waiting = false;
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
  void stamp(Message& msg) const;
  void post(int src, int dst, Tag tag, Message msg, bool multicast);
  void enqueue(int dst, int src, Tag tag, Message msg);
  [[nodiscard]] bool pop(Channel& ch, int me, int src, Tag tag, Message* out,
                         std::uint64_t* ripe_at = nullptr);
  void wait_on_channel(Channel& ch, int me, int src, Tag tag, Message& out);
  [[nodiscard]] Message receive_vt(int me, int src, Tag tag);
  [[nodiscard]] Message complete_receive(int me, int src, Tag tag,
                                         Message&& msg,
                                         std::uint64_t wait_begin_ns,
                                         std::uint64_t wait_end_ns);
  void run_vt(const std::function<void(int)>& job);
  void flush_queue_hwm();
  void note_rank_failure(int rank, std::string message);
  /// Every rank parked in a blocking receive right now (threaded channels
  /// or vtime fibers). Callers must not hold any channel mutex.
  [[nodiscard]] std::vector<ParkedRank> parked_snapshot();

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
  int spin_iters_ = 0;  ///< 0 on oversubscribed hosts
  std::unique_ptr<VtRuntime> vt_;  ///< non-null iff VirtualTime mode

  // --- persistent rank team -------------------------------------------------
  void team_worker(int rank);
  void start_team();
  void stop_team();

  std::vector<std::thread> team_;
  std::mutex team_mutex_;
  std::condition_variable team_work_cv_;   ///< workers wait for a generation
  std::condition_variable team_done_cv_;   ///< caller waits for completion
  const std::function<void(int)>* team_job_ = nullptr;
  std::uint64_t team_generation_ = 0;
  int team_remaining_ = 0;
  bool team_shutdown_ = false;
  std::exception_ptr team_error_;
};

}  // namespace conflux::simnet
