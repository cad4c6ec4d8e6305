/// \file trace.hpp
/// Lightweight per-rank event recording for the simulated fabric. When a
/// TraceRecorder is attached to a Network, every deliver records a Send
/// event on the sender's stream and every completed receive records a
/// Recv event on the receiver's stream — in each rank's program order, which
/// is exactly the ordering the static verifier (src/verify) needs to
/// reconstruct the communication graph of a run. Recording is lock-free:
/// each rank's thread appends only to its own slot.
///
/// The recorder also carries the buffer-ownership debug hooks: misuse
/// reports from BufferView (use-after-take) and the paranoid payload-hash
/// check (mutation of an in-flight SharedBuffer) funnel through a
/// process-wide handler that tests and the verifier can intercept.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "simnet/message.hpp"

namespace conflux::simnet {

/// What one trace event records.
enum class EventKind : std::uint8_t { Send, Recv };

/// One communication operation on one rank's stream.
struct TraceEvent {
  EventKind kind = EventKind::Send;
  int peer = -1;            ///< destination (Send) or source (Recv)
  Tag tag = 0;
  std::uint64_t bytes = 0;  ///< logical wire bytes of the message
  std::uint64_t t_ns = 0;   ///< completion time, steady-clock ns since the
                            ///< recorder's reset() epoch
};

/// Per-rank event log. Attach to a Network with Network::set_trace before
/// the run; read the streams after the SPMD join (which synchronizes).
/// Tests may also populate a recorder by hand to seed defective schedules.
class TraceRecorder {
 public:
  TraceRecorder() = default;
  explicit TraceRecorder(int nranks) { reset(nranks); }

  /// Drop all events and size the recorder for `nranks` ranks.
  void reset(int nranks);

  [[nodiscard]] int nranks() const { return static_cast<int>(slots_.size()); }

  /// Total events over all ranks.
  [[nodiscard]] std::size_t size() const;

  /// Rank `r`'s events in its program order.
  [[nodiscard]] const std::vector<TraceEvent>& rank_events(int r) const;

  /// Append a Send event on `src`'s stream (called by the sender's thread).
  void record_send(int src, int dst, Tag tag, std::uint64_t bytes);

  /// Append a Recv event on `dst`'s stream (called by the receiver's thread
  /// once the message has been matched and dequeued).
  void record_recv(int dst, int src, Tag tag, std::uint64_t bytes);

  /// Switch event timestamps to virtual time: `clock_s` points at one
  /// double of virtual seconds per rank (owned by the caller, updated by
  /// each rank's own context). Events are then stamped from the recording
  /// rank's virtual clock, truncated to whole ns, so critical-path analysis
  /// over a virtual-time run works in simulated seconds. reset() clears the
  /// attachment; pass nullptr to detach.
  void set_virtual_clock(const double* clock_s) { vclock_ = clock_s; }

 private:
  /// Cache-line-padded so concurrent ranks never share a line.
  struct alignas(64) Slot {
    std::vector<TraceEvent> events;
  };

  [[nodiscard]] std::uint64_t stamp_ns(int rank) const;

  std::vector<Slot> slots_;
  std::uint64_t epoch_ = 0;
  const double* vclock_ = nullptr;
};

/// --- buffer-ownership debug hooks ----------------------------------------

/// Handler invoked on a buffer-ownership violation (use-after-take, mutation
/// of an in-flight shared payload). The default handler throws
/// ContractViolation; the verifier and tests install collectors.
using BufferMisuseHandler = std::function<void(const std::string& what)>;

/// Install `handler` process-wide; returns the previous handler. Passing a
/// null handler restores the throwing default.
BufferMisuseHandler set_buffer_misuse_handler(BufferMisuseHandler handler);

/// Report a violation through the installed handler (used by BufferView and
/// the Network payload-integrity check).
void report_buffer_misuse(const std::string& what);

/// FNV-1a over a payload's bytes — the fingerprint the fabric stamps on a
/// message at deliver time and re-checks at receive time, on every data
/// payload while a trace (the in-flight-mutation lint) or end-to-end
/// integrity mode (Network::set_integrity) is on.
[[nodiscard]] std::uint64_t payload_fingerprint(std::span<const double> data);

}  // namespace conflux::simnet
