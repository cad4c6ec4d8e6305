/// \file telemetry.hpp
/// ConfScope's span recorder: lock-free per-rank timing telemetry for the
/// simulated fabric and the factorization engines.
///
/// The design mirrors simnet's TraceRecorder — one cache-line-padded slot
/// per rank, appended to only by that rank's own thread, read only after
/// the SPMD join — but records *time* instead of message identity:
///
///   - **Spans**: named, nestable phase intervals ("panel_tournament",
///     "schur_update", ...) opened/closed on the rank's hot path, each
///     carrying begin/end timestamps (steady-clock ns relative to the
///     board's reset epoch), its nesting depth/parent, and the wire bytes
///     the rank sent while the span was innermost.
///   - **Wait samples**: one record per fabric receive while attached,
///     attributing time parked in `recv`/`recv_view` to a (src, tag) pair.
///     Wait time inside a span is also accumulated on that span so busy
///     (compute) time can be separated from blocked time.
///   - **Per-rank queue-depth high-water marks** flushed by the Network
///     after the join.
///
/// Zero-overhead when disabled: everything is reached through a nullable
/// board pointer (`FactorConfig::telemetry`, mirroring the `trace` hook),
/// and the ScopedSpan guard does no clock read and no allocation when the
/// pointer is null. support/ stays below simnet/ in the layering, so tags
/// appear here as raw integers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace conflux::telemetry {

/// Canonical phase-span names used by the factorization backends, so the
/// profiler and the per-phase cost model agree on spelling.
inline constexpr const char* kLayerReduction = "layer_reduction";
inline constexpr const char* kPanelTournament = "panel_tournament";
inline constexpr const char* kPanelFactor = "panel_factor";
inline constexpr const char* kPivotApply = "pivot_apply";
inline constexpr const char* kTrsm = "trsm";
inline constexpr const char* kSchurUpdate = "schur_update";

/// Current steady-clock time in nanoseconds (absolute; subtract the board's
/// epoch for board-relative values).
[[nodiscard]] std::uint64_t now_ns();

/// One named phase interval on one rank.
struct Span {
  const char* name = "";        ///< static string (phase constant above)
  int step = -1;                ///< factorization step index, -1 if n/a
  int depth = 0;                ///< 0 = top level
  int parent = -1;              ///< index of enclosing span in rank_spans
  std::uint64_t begin_ns = 0;   ///< epoch-relative
  std::uint64_t end_ns = 0;     ///< epoch-relative; 0 while still open
  std::uint64_t bytes = 0;      ///< wire bytes sent while innermost
  std::uint64_t wait_ns = 0;    ///< time blocked in recv while innermost
};

/// One fabric receive: how long the rank sat parked and on whom.
struct WaitSample {
  int src = -1;
  std::uint64_t tag = 0;
  std::uint64_t begin_ns = 0;  ///< epoch-relative entry into the receive
  std::uint64_t ns = 0;        ///< blocked duration
  std::uint64_t bytes = 0;     ///< logical bytes of the message received
};

/// Aggregated per-phase totals over all ranks (see phase_totals()).
struct PhaseTotal {
  double seconds = 0;       ///< exclusive (self) time, nested spans removed
  double wait_seconds = 0;  ///< blocked-in-recv portion of `seconds`
  std::uint64_t bytes = 0;  ///< wire bytes attributed to the phase
  std::uint64_t count = 0;  ///< number of span instances
};

/// The per-run telemetry store. Attach to a run via FactorConfig::telemetry
/// (the backend forwards it to Network::set_telemetry, which resets the
/// board to the run's rank count); read after the SPMD join.
class TelemetryBoard {
 public:
  TelemetryBoard() = default;
  explicit TelemetryBoard(int nranks) { reset(nranks); }

  /// Drop all recorded data, size for `nranks` ranks, and restart the epoch.
  void reset(int nranks);

  [[nodiscard]] int nranks() const { return static_cast<int>(slots_.size()); }

  /// Switch the board to virtual time: `clock_s` points at one double of
  /// virtual seconds per rank (owned by the caller, updated by each rank's
  /// own context), and spans/waits are stamped from it, truncated to whole
  /// ns, instead of the steady clock — so a virtual-time run's profile and
  /// Chrome trace show *simulated* seconds.
  /// record_wait then interprets its begin/end arguments as virtual ns
  /// (already epoch-relative). reset() clears the attachment; re-attach
  /// after resetting. Pass nullptr to detach.
  void set_virtual_clock(const double* clock_s) { vclock_ = clock_s; }
  [[nodiscard]] bool virtual_clock() const { return vclock_ != nullptr; }

  // --- hot path (called only by rank `rank`'s own thread) -----------------

  void open_span(int rank, const char* name, int step = -1);
  void close_span(int rank);

  /// Attribute `bytes` wire bytes to `rank`'s innermost open span (the
  /// fabric calls this on the sender's thread at deliver time); bytes sent
  /// outside any span are not attributed.
  void add_bytes(int rank, std::uint64_t bytes);

  /// Record one fabric receive: blocked from `begin_abs_ns` to `end_abs_ns`
  /// (absolute now_ns() values) waiting on (src, tag).
  void record_wait(int rank, int src, std::uint64_t tag,
                   std::uint64_t begin_abs_ns, std::uint64_t end_abs_ns,
                   std::uint64_t bytes);

  /// Highest simultaneous queue depth observed across `rank`'s inbound
  /// channels (flushed by Network::run after the join).
  void set_queue_hwm(int rank, int hwm);

  // --- post-join queries --------------------------------------------------

  [[nodiscard]] const std::vector<Span>& rank_spans(int r) const;
  [[nodiscard]] const std::vector<WaitSample>& rank_waits(int r) const;
  [[nodiscard]] int queue_hwm(int r) const;

  /// True when every opened span was closed on every rank.
  [[nodiscard]] bool balanced() const;

  /// Epoch-relative finish time of the last recorded event, in seconds —
  /// the telemetry view of the run's wall clock.
  [[nodiscard]] double wall_seconds() const;

  /// Top-level span time minus blocked-in-recv time for rank `r`.
  [[nodiscard]] double busy_seconds(int r) const;

  /// Total time rank `r` spent parked in fabric receives.
  [[nodiscard]] double blocked_seconds(int r) const;

  /// Per-phase totals over all ranks, keyed by span name. Time is
  /// exclusive: a nested span's duration counts toward the nested phase,
  /// not its parent (so phases partition top-level span time).
  [[nodiscard]] std::map<std::string, PhaseTotal> phase_totals() const;

 private:
  /// Cache-line-padded so concurrent ranks never share a line.
  struct alignas(64) Slot {
    std::vector<Span> spans;
    std::vector<WaitSample> waits;
    std::vector<int> open;  ///< stack of open span indices
    int queue_hwm = 0;
  };

  Slot& slot(int rank);
  [[nodiscard]] const Slot& slot(int rank) const;

  /// Epoch-relative timestamp for `rank`: its virtual clock when attached,
  /// the steady clock otherwise.
  [[nodiscard]] std::uint64_t stamp_ns(int rank) const;

  std::vector<Slot> slots_;
  std::uint64_t epoch_ = 0;
  const double* vclock_ = nullptr;
};

/// RAII span guard. With a null board this is a pair of pointer tests —
/// no clock read, no allocation — which is what keeps disabled-mode
/// instrumentation free on the rank hot path.
class ScopedSpan {
 public:
  ScopedSpan(TelemetryBoard* board, int rank, const char* name, int step = -1)
      : board_(board), rank_(rank) {
    if (board_ != nullptr) board_->open_span(rank_, name, step);
  }
  ~ScopedSpan() {
    if (board_ != nullptr) board_->close_span(rank_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TelemetryBoard* board_;
  int rank_;
};

/// Streams one or more boards as a Chrome-trace/Perfetto JSON object
/// (`{"traceEvents": [...]}`): each board becomes one process (pid), each
/// rank one named thread, spans become complete ("X") events under
/// category "phase" and wait samples under category "wait".
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& os);
  ~ChromeTraceWriter();

  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  /// Add one run's telemetry as process `pid` labelled `name`.
  void add_process(int pid, const std::string& name,
                   const TelemetryBoard& board);

  /// Close the JSON document (idempotent; the destructor calls it).
  void finish();

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace conflux::telemetry
