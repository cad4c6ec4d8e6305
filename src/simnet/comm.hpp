/// \file comm.hpp
/// Per-rank communication endpoint: typed point-to-point operations over the
/// simulated network. Byte accounting uses 8 B per double and 4 B per int
/// index, matching what the MPI datatypes would put on the wire. Numeric
/// and dry runs share every call: a send states its wire size once, and a
/// dry run passes no payload (a "ghost" — null shared buffer or empty
/// vector), for which `recv_view` returns an empty view carrying the same
/// wire size. Every payload is an immutable shared buffer (see
/// message.hpp): `send_shared` and `multicast` move a refcounted buffer
/// through the fabric with zero copies, `send` wraps its vector into one,
/// and `recv_view` hands the receiver a non-owning view. Every send goes
/// through the one fabric entry, Network::deliver.
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "simnet/network.hpp"
#include "support/assert.hpp"

namespace conflux::simnet {

/// Bit-pack int indices two-per-double-slot (4 B each on the wire). The
/// element count travels separately as `logical_bytes / sizeof(int)`.
[[nodiscard]] inline std::vector<double> pack_ints(std::span<const int> data) {
  std::vector<double> packed((data.size() + 1) / 2, 0.0);
  if (!data.empty())
    std::memcpy(packed.data(), data.data(), data.size() * sizeof(int));
  return packed;
}

/// Inverse of pack_ints.
[[nodiscard]] inline std::vector<int> unpack_ints(const BufferView& view,
                                                  std::size_t count) {
  CONFLUX_ASSERT(view.size() * sizeof(double) >= count * sizeof(int));
  std::vector<int> out(count);
  if (count > 0) std::memcpy(out.data(), view.data(), count * sizeof(int));
  return out;
}

/// A rank's handle to the fabric. Cheap to copy; all state lives in the
/// Network it references.
class Comm {
 public:
  Comm(Network& net, int rank) : net_(&net), rank_(rank) {
    CONFLUX_EXPECTS(rank >= 0 && rank < net.size());
  }

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return net_->size(); }
  [[nodiscard]] Network& network() const { return *net_; }

  // --- point-to-point, shared immutable payloads ---------------------------

  /// Send an immutable shared buffer (8 B/element on the wire). Zero-copy:
  /// the mailbox holds a reference, not a duplicate.
  void send_shared(int dst, Tag tag, SharedBuffer buf) const {
    const std::size_t bytes = buf->size() * sizeof(double);
    send_shared(dst, tag, std::move(buf), bytes);
  }

  /// As above with an explicit wire size (for packed int / mixed payloads;
  /// a null `buf` is a ghost).
  void send_shared(int dst, Tag tag, SharedBuffer buf,
                   std::size_t logical_bytes) const {
    net_->deliver(rank_, dst, tag, Message{std::move(buf), logical_bytes});
  }

  /// Enqueue one immutable buffer to every destination — the multicast
  /// primitive: one `send_shared` per destination, in list order. All
  /// recipients alias the same storage; accounting equals `dsts.size()`
  /// individual sends.
  void multicast(std::span<const int> dsts, Tag tag, SharedBuffer buf) const {
    const std::size_t bytes = buf->size() * sizeof(double);
    multicast(dsts, tag, std::move(buf), bytes);
  }

  /// Multicast with an explicit wire size (packed int / mixed payloads; a
  /// null `buf` is a ghost).
  void multicast(std::span<const int> dsts, Tag tag, SharedBuffer buf,
                 std::size_t logical_bytes) const {
    for (const int dst : dsts) send_shared(dst, tag, buf, logical_bytes);
  }

  /// Blocking receive of a non-owning view of the payload. Reading is
  /// always safe; call `.take()` to copy out where mutation is needed.
  [[nodiscard]] BufferView recv_view(int src, Tag tag) const {
    Message msg = net_->receive(rank_, src, tag);
    return BufferView(std::move(msg.payload), msg.logical_bytes);
  }

  // --- point-to-point, owned vectors ---------------------------------------

  /// Send `data` (8 B/element on the wire) to `dst`.
  void send(int dst, Tag tag, std::span<const double> data) const {
    send(dst, tag, std::vector<double>(data.begin(), data.end()));
  }

  /// Move-send an owned buffer: it becomes the immutable payload without a
  /// copy (the receiver's `take()` copies it out).
  void send(int dst, Tag tag, std::vector<double>&& data) const {
    const std::size_t bytes = data.size() * sizeof(double);
    send(dst, tag, std::move(data), bytes);
  }

  /// As above with an explicit wire size; an empty `data` is a ghost.
  void send(int dst, Tag tag, std::vector<double>&& data,
            std::size_t logical_bytes) const {
    send_shared(dst, tag, payload_or_ghost(std::move(data)), logical_bytes);
  }

  /// Blocking receive of a double buffer from `src` (private copy).
  [[nodiscard]] std::vector<double> recv(int src, Tag tag) const {
    return recv_view(src, tag).take();
  }

  // --- point-to-point, ghost --------------------------------------------

  /// Send only a byte count: exercises the same channel and accounting as a
  /// real message without materializing data (zero-byte control messages,
  /// fabric probes).
  void send_ghost(int dst, Tag tag, std::size_t logical_bytes) const {
    send_shared(dst, tag, nullptr, logical_bytes);
  }

  /// Blocking receive of a ghost message; returns its logical byte count.
  [[nodiscard]] std::size_t recv_ghost(int src, Tag tag) const {
    return net_->receive(rank_, src, tag).logical_bytes;
  }

  // --- convenience ---------------------------------------------------------

  /// Simultaneous exchange with a partner (both sides must call). Returns
  /// the partner's buffer.
  [[nodiscard]] std::vector<double> exchange(
      int partner, Tag tag, std::span<const double> mine) const {
    send(partner, tag, mine);
    return recv(partner, tag);
  }

  /// This rank's accumulated volume.
  [[nodiscard]] CommVolume volume() const {
    return net_->stats().rank_volume(rank_);
  }

  // --- virtual time (no-ops / 0 under the host clock) ----------------------

  /// Charge local compute to this rank's virtual clock (gamma * flops).
  void charge_flops(double flops) const { net_->charge_flops(rank_, flops); }

  /// This rank's virtual clock in simulated seconds.
  [[nodiscard]] double virtual_seconds() const {
    return net_->virtual_seconds(rank_);
  }

 private:
  Network* net_;
  int rank_;
};

}  // namespace conflux::simnet
