#include "simnet/network.hpp"

#include <algorithm>
#include <cstring>

#include "support/assert.hpp"
#include "support/telemetry.hpp"

namespace conflux::simnet {

namespace {

/// Flip one bit of a payload (injected corruption). The payload is cloned
/// first so only the targeted recipient sees the corruption — the other
/// holders of the same buffer (multicast copies, broadcast-tree hops) alias
/// the pristine original, exactly like a per-link transmission error.
void flip_payload_bit(Message& msg, std::uint64_t bit) {
  if (!msg.payload || msg.payload->empty()) return;
  auto clone = std::make_shared<std::vector<double>>(*msg.payload);
  double& word = (*clone)[static_cast<std::size_t>((bit / 64) % clone->size())];
  std::uint64_t bits;
  std::memcpy(&bits, &word, sizeof(bits));
  bits ^= std::uint64_t{1} << (bit % 64);
  std::memcpy(&word, &bits, sizeof(bits));
  msg.payload = std::move(clone);
}

/// The message's payload data; empty for a ghost.
[[nodiscard]] std::span<const double> payload_data(const Message& msg) {
  return msg.payload ? std::span<const double>(*msg.payload)
                     : std::span<const double>();
}

/// Where a receive happens: rank `me` matching (src, tag).
[[nodiscard]] CommContext at_receiver(int me, int src, Tag tag) {
  return CommContext{.rank = me, .src = src, .dst = me}.with_tag(tag);
}

/// FNV-1a fingerprint of the payload; 0 is reserved for "unstamped".
[[nodiscard]] std::uint64_t fingerprint_of(const Message& msg) {
  const std::uint64_t fp = payload_fingerprint(payload_data(msg));
  return fp == 0 ? 1 : fp;
}

/// Beyond this many sources, channel slots are shared (src % slots). Only
/// the destination rank parks on a slot, so sharing never adds waiters — it
/// only coarsens the wakeup filter at very large rank counts.
constexpr std::size_t kMaxChannelSlots = 64;

}  // namespace

Network::Network(int nranks, FabricSpec spec)
    : nranks_(nranks),
      slots_per_rank_(
          std::min<std::size_t>(static_cast<std::size_t>(nranks),
                                kMaxChannelSlots)),
      channels_(static_cast<std::size_t>(nranks) * slots_per_rank_),
      inbound_(static_cast<std::size_t>(nranks)),
      stats_(nranks),
      virtual_clock_(spec.mode == ExecMode::VirtualTime),
      sched_(*this, nranks, spec.link) {
  CONFLUX_EXPECTS(nranks >= 1);
}

void Network::enqueue(int dst, int src, Tag tag, Message msg) {
  Channel& ch = channel(dst, src);
  // Per-destination depth/HWM; see Inbound for why this is not per-slot.
  Inbound& in = inbound_[static_cast<std::size_t>(dst)];
  const int depth = in.depth.fetch_add(1, std::memory_order_relaxed) + 1;
  int hwm = in.hwm.load(std::memory_order_relaxed);
  while (depth > hwm &&
         !in.hwm.compare_exchange_weak(hwm, depth, std::memory_order_relaxed))
    ;
  const std::lock_guard<std::mutex> lock(ch.mutex);
  ch.pending.push_back({src, tag, std::move(msg)});
  // The wakeup shares the channel mutex with the park handshake, so a
  // deliver concurrent with a park either lands before the parking
  // worker's queue re-check or observes the parked flag.
  sched_.wake_if_parked(dst, src, tag);
}

void Network::set_trace(TraceRecorder* trace) {
  trace_ = trace;
  if (trace_ == nullptr) return;
  trace_->reset(nranks_);
  if (virtual_clock_) trace_->set_virtual_clock(sched_.clocks());
}

void Network::set_telemetry(telemetry::TelemetryBoard* board) {
  telemetry_ = board;
  if (telemetry_ == nullptr) return;
  telemetry_->reset(nranks_);
  if (virtual_clock_) telemetry_->set_virtual_clock(sched_.clocks());
  // Queue high-water marks restart with the board so a reused Network
  // reports this run, not the union of all runs.
  for (Inbound& in : inbound_)
    in.hwm.store(in.depth.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
}

void Network::set_faults(FaultPlan* plan) {
  // Delays and stalls are charged to the virtual clock; the host clock has
  // nothing to charge them to.
  CONFLUX_EXPECTS_MSG(
      plan == nullptr || virtual_clock_ || !plan->spec().timed(),
      "a fault plan that delays or stalls needs ExecMode::VirtualTime");
  faults_ = plan;
  if (faults_ != nullptr) faults_->reset(nranks_);
}

/// The one send path, per destination, in its fixed order: stamp the
/// payload's fingerprint when someone will check it (under integrity mode,
/// an end-to-end checksum; under a trace, the in-flight-mutation lint;
/// ghosts carry no data), count the bytes, apply the fault plan's verdict
/// (after stamping, so corruption shows as a fingerprint mismatch; before
/// recording, so the timestamps see the post-injection clock), attribute
/// the bytes, log the Send, enqueue.
void Network::deliver(int src, int dst, Tag tag, Message msg) {
  CONFLUX_EXPECTS_CTX(src >= 0 && src < size() && dst >= 0 && dst < size(),
                      (CommContext{.src = src, .dst = dst}.with_tag(tag)));
  if (msg.payload && (integrity_ || trace_ != nullptr))
    msg.fingerprint = fingerprint_of(msg);
  stats_.record_send(src, dst, msg.logical_bytes);
  // Injection: corruption flips a payload bit; stalls and delays become
  // virtual-clock charges (set_faults admits them only under that clock).
  FaultPlan::Injection inj;
  if (faults_ != nullptr && src != dst)
    inj = faults_->at_delivery(src, dst, tag, payload_data(msg).size());
  if (inj.corrupt) flip_payload_bit(msg, inj.corrupt_bit);
  if (virtual_clock_) {
    // The LogGP send charge; self-sends are free (matching the StatsBoard
    // accounting exemption).
    if (inj.stall_s > 0) sched_.charge_seconds(src, inj.stall_s);
    msg.vt_arrival = (src != dst)
                         ? sched_.charge_send(src, msg.logical_bytes) +
                               inj.delay_s
                         : sched_.clock_seconds(src);
  }
  if (telemetry_ != nullptr && src != dst)
    telemetry_->add_bytes(src, msg.logical_bytes);
  if (trace_ != nullptr)
    trace_->record_send(src, dst, tag, msg.logical_bytes);
  enqueue(dst, src, tag, std::move(msg));
}

/// Match the first pending (src, tag) entry in `ch` (caller holds
/// ch.mutex): true iff one waits there. With `out`, the message is also
/// dequeued into it; without, this is a probe.
bool Network::pop(Channel& ch, int me, int src, Tag tag, Message* out) {
  const auto it = std::find_if(
      ch.pending.begin(), ch.pending.end(),
      [&](const Pending& e) { return e.src == src && e.tag == tag; });
  if (it == ch.pending.end()) return false;
  if (out == nullptr) return true;
  *out = std::move(it->msg);
  ch.pending.erase(it);
  inbound_[static_cast<std::size_t>(me)].depth.fetch_sub(
      1, std::memory_order_relaxed);
  return true;
}

/// The one receive epilogue, shared by both clocks and run on the
/// receiver's fiber once a message is matched: count the receive,
/// attribute the wait to (src, tag), then check the stamped fingerprint —
/// hashed once. Under integrity mode a mismatch throws PayloadCorrupted
/// before anything is logged; otherwise the Recv event is logged in program
/// order and then the in-flight-mutation lint reports a mutated shared
/// payload.
Message Network::complete_receive(int me, int src, Tag tag, Message&& msg,
                                  std::uint64_t wait_begin_ns,
                                  std::uint64_t wait_end_ns) {
  stats_.record_recv(me, src);
  if (telemetry_ != nullptr)
    telemetry_->record_wait(me, src, tag, wait_begin_ns, wait_end_ns,
                            msg.logical_bytes);
  const bool checked =
      msg.fingerprint != 0 && (integrity_ || trace_ != nullptr);
  const bool mismatch = checked && fingerprint_of(msg) != msg.fingerprint;
  if (mismatch && integrity_) {
    const CommContext ctx = at_receiver(me, src, tag);
    std::ostringstream os;
    os << "payload integrity violation: end-to-end fingerprint mismatch at "
          "receive "
       << ctx << " (" << payload_data(msg).size() << " doubles, "
       << msg.logical_bytes << " wire bytes)";
    throw PayloadCorrupted(os.str(), ctx);
  }
  if (trace_ != nullptr) {
    trace_->record_recv(me, src, tag, msg.logical_bytes);
    if (mismatch) {
      std::ostringstream os;
      os << "shared payload mutated in flight " << at_receiver(me, src, tag);
      report_buffer_misuse(os.str());
    }
  }
  return std::move(msg);
}

/// A miss parks the calling fiber until the matching deliver wakes it.
/// Under the host clock, the blocked interval is stamped lazily — only
/// after the first probe misses, so a receive whose message already arrived
/// records a zero-length wait without reading the clock. Under the virtual
/// clock, the message's simulated arrival instant is folded into the
/// receiver's clock and the blocked interval is recorded in virtual time.
Message Network::receive(int me, int src, Tag tag) {
  CONFLUX_EXPECTS_CTX(me >= 0 && me < size() && src >= 0 && src < size(),
                      at_receiver(me, src, tag));
  Channel& ch = channel(me, src);
  Message msg;
  std::uint64_t wait_begin = 0;
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(ch.mutex);
      if (pop(ch, me, src, tag, &msg)) break;
    }
    if (aborted()) throw JobAborted{};
    if (wait_begin == 0 && telemetry_ != nullptr && !virtual_clock_)
      wait_begin = telemetry::now_ns();
    sched_.park(me, src, tag);
    if (aborted()) throw JobAborted{};
  }
  if (!virtual_clock_)
    return complete_receive(me, src, tag, std::move(msg), wait_begin,
                            wait_begin != 0 ? telemetry::now_ns() : 0);
  const auto [begin_s, end_s] = sched_.absorb_arrival(me, msg.vt_arrival);
  if (policy_.virtual_deadline_s > 0 && end_s > policy_.virtual_deadline_s) {
    // A fault-stalled simulated run whose clock blows past the cap fails
    // deterministically with a typed, located diagnostic.
    const CommContext ctx = at_receiver(me, src, tag);
    std::ostringstream os;
    os << "virtual-clock deadline exceeded: rank " << me << " reached "
       << end_s << " s > cap " << policy_.virtual_deadline_s << " s " << ctx;
    throw ReceiveTimeout(os.str(), ctx, sched_.parked_snapshot(),
                         /*deadlock=*/false);
  }
  // After absorb_arrival, so the Recv event carries the post-match clock.
  return complete_receive(me, src, tag, std::move(msg),
                          static_cast<std::uint64_t>(begin_s * 1e9),
                          static_cast<std::uint64_t>(end_s * 1e9));
}

void Network::abort() {
  aborted_.store(true, std::memory_order_release);
  sched_.wake_all_parked();
}

// The host clock charges nothing, so its virtual clocks stay at 0.
double Network::virtual_makespan() const { return sched_.makespan_seconds(); }

double Network::virtual_seconds(int rank) const {
  CONFLUX_EXPECTS(rank >= 0 && rank < nranks_);
  return sched_.clock_seconds(rank);
}

void Network::charge_flops(int rank, double flops) {
  CONFLUX_EXPECTS(rank >= 0 && rank < nranks_);
  if (virtual_clock_) sched_.charge_flops(rank, flops);
}

void Network::note_rank_failure(int rank, std::string message) {
  const std::lock_guard<std::mutex> lock(failures_mutex_);
  rank_failures_.push_back({rank, std::move(message)});
}

std::vector<Network::RankFailure> Network::failure_report() const {
  std::vector<RankFailure> out;
  {
    const std::lock_guard<std::mutex> lock(failures_mutex_);
    out = rank_failures_;
  }
  std::sort(out.begin(), out.end(),
            [](const RankFailure& a, const RankFailure& b) {
              return a.rank < b.rank;
            });
  return out;
}

void Network::run(const std::function<void(int)>& job) {
  // A previous run may have been aborted mid-flight: reset the flag and
  // drain any stale messages so the new run starts from a clean fabric.
  if (aborted()) {
    for (auto& ch : channels_) {
      const std::lock_guard<std::mutex> lock(ch.mutex);
      ch.pending.clear();
    }
    for (Inbound& in : inbound_) in.depth.store(0, std::memory_order_relaxed);
    aborted_.store(false, std::memory_order_release);
  }
  {
    const std::lock_guard<std::mutex> lock(failures_mutex_);
    rank_failures_.clear();
  }
  // Sequence counters restart per run: an identical rerun injects
  // identically (the determinism contract), and retries re-randomize
  // through FaultPlan::next_attempt, not through leftover counter state.
  if (faults_ != nullptr) faults_->begin_run();
  std::exception_ptr error;
  try {
    sched_.run(job);
  } catch (...) {
    error = std::current_exception();
  }
  flush_queue_hwm();
  if (error) std::rethrow_exception(error);
}

/// Flush per-rank inbound queue-depth high-water marks into the telemetry
/// board. Called after the run's join, which synchronizes, so the relaxed
/// reads see every worker's final values.
void Network::flush_queue_hwm() {
  if (telemetry_ == nullptr) return;
  for (int dst = 0; dst < nranks_; ++dst)
    telemetry_->set_queue_hwm(
        dst, inbound_[static_cast<std::size_t>(dst)].hwm.load(
                 std::memory_order_relaxed));
}

}  // namespace conflux::simnet
