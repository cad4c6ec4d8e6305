#include "simnet/trace.hpp"

#include <mutex>
#include <utility>

#include "support/assert.hpp"
#include "support/telemetry.hpp"

namespace conflux::simnet {

void TraceRecorder::reset(int nranks) {
  CONFLUX_EXPECTS(nranks >= 0);
  slots_.clear();
  slots_.resize(static_cast<std::size_t>(nranks));
  epoch_ = telemetry::now_ns();
  vclock_ = nullptr;
}

std::uint64_t TraceRecorder::stamp_ns(int rank) const {
  if (vclock_ != nullptr)
    return static_cast<std::uint64_t>(vclock_[static_cast<std::size_t>(rank)] *
                                      1e9);
  return telemetry::now_ns() - epoch_;
}

std::size_t TraceRecorder::size() const {
  std::size_t total = 0;
  for (const Slot& s : slots_) total += s.events.size();
  return total;
}

const std::vector<TraceEvent>& TraceRecorder::rank_events(int r) const {
  CONFLUX_EXPECTS(r >= 0 && r < nranks());
  return slots_[static_cast<std::size_t>(r)].events;
}

void TraceRecorder::record_send(int src, int dst, Tag tag,
                                std::uint64_t bytes) {
  CONFLUX_EXPECTS_CTX(src >= 0 && src < nranks() && dst >= 0,
                      (CommContext{.src = src, .dst = dst}.with_tag(tag)));
  slots_[static_cast<std::size_t>(src)].events.push_back(
      {EventKind::Send, dst, tag, bytes, stamp_ns(src)});
}

void TraceRecorder::record_recv(int dst, int src, Tag tag,
                                std::uint64_t bytes) {
  CONFLUX_EXPECTS_CTX(dst >= 0 && dst < nranks() && src >= 0,
                      (CommContext{.src = src, .dst = dst}.with_tag(tag)));
  slots_[static_cast<std::size_t>(dst)].events.push_back(
      {EventKind::Recv, src, tag, bytes, stamp_ns(dst)});
}

// --- buffer-ownership debug hooks ------------------------------------------

namespace {

std::mutex handler_mutex;
BufferMisuseHandler misuse_handler;  // null = throwing default

}  // namespace

BufferMisuseHandler set_buffer_misuse_handler(BufferMisuseHandler handler) {
  const std::lock_guard<std::mutex> lock(handler_mutex);
  std::swap(handler, misuse_handler);
  return handler;
}

void report_buffer_misuse(const std::string& what) {
  BufferMisuseHandler handler;
  {
    const std::lock_guard<std::mutex> lock(handler_mutex);
    handler = misuse_handler;
  }
  if (handler) {
    handler(what);
    return;
  }
  throw ContractViolation("buffer ownership violation: " + what);
}

std::uint64_t payload_fingerprint(std::span<const double> data) {
  // FNV-1a over the doubles' bit patterns; cheap and stable.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double d : data) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace conflux::simnet
