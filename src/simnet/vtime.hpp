/// \file vtime.hpp
/// The rank scheduler of the simulated fabric and its two clocks. Every
/// Network runs its ranks here: an event-driven scheduler that multiplexes
/// cooperative rank contexts (ucontext fibers with small mmap'd stacks)
/// onto min(pool size, P) host threads: the pool's own threads when the
/// ranks can fill the pool, else the calling thread plus helpers outside
/// it, so a rank's kernels still spread over the idle pool threads. The
/// FabricSpec's ExecMode picks the clock:
///   - HostClock (the default): nothing is charged; trace and telemetry
///     stamp the host's steady clock, and predicted seconds stay 0.
///   - VirtualTime: a LogGP-style latency/bandwidth clock advances a
///     per-rank virtual clock on every send, receive and (optionally)
///     charged flop, turning the run into a *predicted wall-clock* for the
///     modeled machine. The paper's headline figures run at P = 512–4096 on
///     Piz Daint; with fibers, those scales run on a laptop.
///
/// Determinism: the simulation is a pure dataflow. Each blocking receive
/// names its (src, tag) channel and FIFO order within a channel is
/// preserved, so the k-th matching receive always pairs with the k-th
/// matching send regardless of host interleaving. Virtual timestamps are
/// computed from sender clocks at send time and folded into receiver clocks
/// at match time — both functions of the dataflow only — so the predicted
/// makespan and all CommVolume counters are bit-identical across repeated
/// runs and across worker counts (the determinism contract test_vtime
/// pins).
///
/// Clock model (LogGP with o folded into alpha, G = beta):
///   send  k bytes:  sender clock += k * beta (injection serialization);
///                   arrival = sender clock + alpha
///   recv:           receiver clock = max(receiver clock, arrival)
///   flops f:        clock += f * gamma (engines charge their local compute)
///   self-sends are free, matching the StatsBoard accounting exemption.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

#include "simnet/faults.hpp"
#include "simnet/message.hpp"

namespace conflux::simnet {

class Network;

/// LogGP-style machine parameters for the virtual clock. The defaults are a
/// generic modern interconnect (1 us latency, 10 GB/s per-rank injection
/// bandwidth, comm-only); the presets in models/machines.hpp carry
/// per-machine values.
struct LinkModel {
  double alpha_s = 1.0e-6;          ///< per-message latency (seconds)
  double beta_s_per_byte = 1.0e-10;  ///< inverse injection bandwidth
  double gamma_s_per_flop = 0.0;     ///< compute cost; 0 = comm-only clock
};

/// Which clock a Network's run keeps. Both run the ranks as fibers.
enum class ExecMode {
  HostClock,    ///< host steady clock; nothing simulated is charged
  VirtualTime,  ///< LogGP virtual clock per rank
};

/// Clock selection carried by the Network constructor (and by
/// factor::FactorConfig::fabric through every backend).
struct FabricSpec {
  ExecMode mode = ExecMode::HostClock;
  LinkModel link;
};

/// The fiber scheduler every Network runs its ranks on. Owned by the
/// Network; everything here is internal to the fabric — user code selects
/// the clock through FabricSpec and reads clocks through
/// Network::virtual_makespan() / Comm::virtual_seconds().
class VtRuntime {
 public:
  VtRuntime(Network& net, int nranks, LinkModel link);
  ~VtRuntime();

  VtRuntime(const VtRuntime&) = delete;
  VtRuntime& operator=(const VtRuntime&) = delete;

  /// Run `job(rank)` once per rank on cooperative fibers, multiplexed over
  /// min(pool size, nranks) host threads (CONFLUX_VT_WORKERS overrides):
  /// the pool's threads when there are at least as many workers as pool
  /// threads, else the caller and helpers outside the pool; the caller
  /// alone when it is itself running a pool task.
  /// Rethrows the first rank exception after all fibers unwind. When every
  /// live rank parks with no runnable fiber left, each parked rank is
  /// recorded in the Network's failure report and the run fails with a
  /// ReceiveTimeout whose deadlock() is true.
  void run(const std::function<void(int)>& job);

  // --- called from inside a rank's fiber -----------------------------------

  /// Suspend the calling rank's fiber until a message on (src, tag) is
  /// enqueued for it (or the job aborts). The caller re-checks its queue on
  /// return; lost wakeups are impossible because the parked flag is
  /// registered under the destination channel's mutex after the fiber's
  /// context is saved, with a queue re-check in between.
  void park(int rank, int src, Tag tag);

  /// Advance `rank`'s clock by the LogGP injection cost of `bytes` and
  /// return the arrival instant (clock + alpha). Self-sends are free:
  /// callers skip the charge for src == dst.
  double charge_send(int rank, std::size_t bytes);

  /// Fold a matched message's arrival into `rank`'s clock; returns the
  /// blocked interval [begin, end) in seconds (zero-length when the message
  /// was already there).
  std::pair<double, double> absorb_arrival(int rank, double arrival);

  /// Charge local compute to `rank`'s clock (gamma * flops).
  void charge_flops(int rank, double flops);

  /// Advance `rank`'s clock by `seconds` of injected virtual time — how
  /// fault-injected stalls (simnet/faults.hpp) fold into the simulated run
  /// so they are makespan-visible without any real sleeping.
  void charge_seconds(int rank, double seconds);

  // --- called by the Network / deliver path --------------------------------

  /// Wake `dst` if it is parked on (src, tag). Must be called with the
  /// (dst, src) channel's mutex held (the same mutex the parking handshake
  /// uses), which makes the park/deliver race benign.
  void wake_if_parked(int dst, int src, Tag tag);

  /// Wake every parked fiber (abort path); each resumes, observes the
  /// aborted flag and unwinds with JobAborted.
  void wake_all_parked();

  // --- post-join queries ----------------------------------------------------

  [[nodiscard]] double clock_seconds(int rank) const;
  [[nodiscard]] double makespan_seconds() const;

  /// Per-rank virtual clocks in seconds, one double per rank, each written
  /// only by its rank's own fiber — the timestamp source TelemetryBoard and
  /// TraceRecorder use under ExecMode::VirtualTime.
  [[nodiscard]] const double* clocks() const;

  /// Every rank currently parked in a blocking receive and the (src, tag)
  /// it waits on — the parked-channel snapshot a ReceiveTimeout diagnostic
  /// carries. Safe to call from any thread.
  [[nodiscard]] std::vector<ParkedRank> parked_snapshot() const;

 private:
  struct RankCtx;
  struct Impl;
  friend struct Impl;

  /// makecontext entry point; the RankCtx pointer arrives split across the
  /// two unsigned ints (makecontext passes only ints portably).
  static void trampoline(unsigned int hi, unsigned int lo);

  double advance_to(int rank, double t);
  void worker_loop();
  void resume(RankCtx& c);
  void finish_park(RankCtx& c);
  void push_ready(int rank);
  void fiber_main(RankCtx& c);

  Network* net_;
  int nranks_;
  LinkModel link_;
  Impl* impl_;
};

}  // namespace conflux::simnet
