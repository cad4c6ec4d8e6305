/// \file message.hpp
/// Message, tag and payload-buffer types for the simulated message-passing
/// fabric. Every payload is an *immutable shared* buffer that can sit in
/// many mailboxes at once (multicast, broadcast trees) the way real MPI
/// broadcast trees and RDMA transports share registered buffers. Receivers
/// get a non-owning BufferView and copy out explicitly (`take()`) only
/// where mutation is needed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "support/assert.hpp"

namespace conflux::simnet {

/// Report a buffer-ownership violation (use-after-take, mutation of an
/// in-flight shared payload) through the process-wide debug hook installed
/// via set_buffer_misuse_handler (trace.hpp). The default handler throws
/// ContractViolation.
void report_buffer_misuse(const std::string& what);

/// Message tag. Collective operations derive internal round tags by shifting
/// the user tag left by 8 bits, so user tags must fit in 56 bits. The
/// `make_tag` helper composes (phase, step, sub) triples used by the LU
/// implementations.
using Tag = std::uint64_t;

/// Field widths of the make_tag packing: phase<<44 | step<<20 | sub. `sub`
/// gets 20 bits so rank-indexed sub-operation ids stay collision-free past
/// the paper-scale P = 4096 (the historical 12-bit layout silently wrapped
/// `sub & 0xFFF` in release builds, aliasing two channels' tags); the
/// remaining 12 phase bits keep the composed value inside the 56 bits the
/// collectives' round-tag shift requires.
inline constexpr std::uint32_t kTagPhaseBits = 12;
inline constexpr std::uint32_t kTagStepBits = 24;
inline constexpr std::uint32_t kTagSubBits = 20;

/// Compose a tag from an algorithm phase, an outer-loop step and a
/// sub-operation id. The range check is unconditional (it throws
/// ContractViolation in release builds too): a wrapped field would silently
/// alias another channel's tag, which is strictly worse than failing.
[[nodiscard]] constexpr Tag make_tag(std::uint32_t phase, std::uint32_t step,
                                     std::uint32_t sub = 0) {
  if (phase >= (1u << kTagPhaseBits) || step >= (1u << kTagStepBits) ||
      sub >= (1u << kTagSubBits))
    throw ContractViolation(
        "make_tag field out of range (phase < 2^12, step < 2^24, sub < "
        "2^20)");
  return (static_cast<Tag>(phase) << (kTagStepBits + kTagSubBits)) |
         (static_cast<Tag>(step) << kTagSubBits) | static_cast<Tag>(sub);
}

/// An immutable, shareable payload. All recipients of a multicast alias the
/// same storage; nobody mutates it (BufferView::take copies out).
using SharedBuffer = std::shared_ptr<const std::vector<double>>;

/// Wrap an owned vector as an immutable shared payload (no copy).
[[nodiscard]] inline SharedBuffer make_shared_buffer(
    std::vector<double>&& data) {
  return std::make_shared<std::vector<double>>(std::move(data));
}

/// Copy a span into a fresh immutable shared payload.
[[nodiscard]] inline SharedBuffer make_shared_buffer(
    std::span<const double> data) {
  return std::make_shared<std::vector<double>>(data.begin(), data.end());
}

/// A packed payload as the fabric carries it: null — a ghost, whose wire
/// size alone travels — when nothing was packed. One send site thus serves
/// numeric runs, which pack, and dry runs, which do not.
[[nodiscard]] inline SharedBuffer payload_or_ghost(std::vector<double>&& data) {
  return data.empty() ? nullptr : make_shared_buffer(std::move(data));
}

/// A receiver's non-owning handle to a delivered payload. The data may be
/// aliased by other recipients of the same multicast; reading is always
/// safe, and `take()` produces a private mutable copy.
class BufferView {
 public:
  BufferView() = default;
  explicit BufferView(SharedBuffer shared, std::size_t logical_bytes = 0)
      : shared_(std::move(shared)), logical_bytes_(logical_bytes) {}

  /// Wire size of the message this view came from (4 B/int, 8 B/double).
  [[nodiscard]] std::size_t logical_bytes() const { return logical_bytes_; }
  [[nodiscard]] std::size_t size() const {
    return shared_ ? shared_->size() : 0;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const double* data() const { return span().data(); }
  [[nodiscard]] std::span<const double> span() const {
    check_not_taken();
    return shared_ ? std::span<const double>(*shared_)
                   : std::span<const double>();
  }
  [[nodiscard]] double operator[](std::size_t i) const { return data()[i]; }

  /// The underlying shared payload (for zero-copy re-forwarding down a
  /// broadcast tree); null for a ghost.
  [[nodiscard]] const SharedBuffer& shared() const { return shared_; }

  /// Copy the payload out into a private, mutable vector, releasing this
  /// view; the shared original is never mutated in place. The view is dead
  /// afterwards: any further data access trips the buffer-ownership debug
  /// hook (use-after-take is always a bug — the caller confused its copy
  /// with the shared original).
  [[nodiscard]] std::vector<double> take() && {
    const std::span<const double> data = span();
    std::vector<double> copy(data.begin(), data.end());
    taken_ = true;
    shared_.reset();
    return copy;
  }

 private:
  void check_not_taken() const {
    if (taken_) report_buffer_misuse("BufferView accessed after take()");
  }

  SharedBuffer shared_;
  std::size_t logical_bytes_ = 0;
  bool taken_ = false;
};

/// The receiving side of payload_or_ghost: the payload's trailing
/// rows x cols block as a Matrix (a leading header, such as packed pivot
/// indices, is skipped), or an empty Matrix for a ghost. One receive site
/// thus serves numeric runs, which unpack, and dry runs, which do not.
[[nodiscard]] inline linalg::Matrix matrix_or_empty(const BufferView& got,
                                                    int rows, int cols) {
  if (got.empty()) return {};
  linalg::Matrix out(rows, cols);
  CONFLUX_ASSERT(got.size() >= out.size());
  std::copy(got.data() + got.size() - out.size(), got.data() + got.size(),
            out.data());
  return out;
}

/// A message in flight. `payload` carries the data, or is null for the
/// "ghost" messages of dry-run mode, which carry only a logical byte count
/// (what the communication-volume accounting consumes). `logical_bytes` is
/// the number of bytes the message would occupy on a real network (8 per
/// double, 4 per int index), independent of whether a payload is
/// materialized. A multicast enqueues the same refcounted payload into
/// every destination mailbox, so N recipients share one buffer in real
/// memory.
struct Message {
  SharedBuffer payload;
  std::size_t logical_bytes = 0;
  /// FNV-1a fingerprint of the payload (0 = unstamped), stamped at deliver
  /// time iff the payload has data and either integrity mode is on or a
  /// trace is attached. Re-checked once at receive time: under integrity
  /// mode a mismatch is PayloadCorrupted; otherwise it means some rank
  /// mutated an immutable in-flight payload — the mutation-of-SharedBuffer
  /// lint of the verifier.
  std::uint64_t fingerprint = 0;
  /// Virtual-time mode only: simulated arrival instant in seconds
  /// (sender's clock after LogGP injection, plus the link latency). The
  /// receiver's clock advances to at least this value when it matches the
  /// message. Unused (0) under the host clock.
  double vt_arrival = 0;
};

}  // namespace conflux::simnet
