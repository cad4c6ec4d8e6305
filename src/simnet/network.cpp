#include "simnet/network.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "support/assert.hpp"
#include "support/telemetry.hpp"

namespace conflux::simnet {

namespace {

/// Flip one bit of a payload (injected corruption). Exclusive payloads are
/// flipped in place; shared payloads are cloned first so only the targeted
/// recipient sees the corruption — the other members of a multicast alias
/// the pristine original, exactly like a per-link transmission error.
void flip_payload_bit(Message& msg, std::uint64_t bit) {
  auto flip = [bit](std::vector<double>& data) {
    if (data.empty()) return;
    double& word = data[static_cast<std::size_t>((bit / 64) % data.size())];
    std::uint64_t bits;
    std::memcpy(&bits, &word, sizeof(bits));
    bits ^= std::uint64_t{1} << (bit % 64);
    std::memcpy(&word, &bits, sizeof(bits));
  };
  if (msg.shared) {
    auto clone = std::make_shared<std::vector<double>>(*msg.shared);
    flip(*clone);
    msg.shared = std::move(clone);
  } else {
    flip(msg.exclusive);
  }
}

/// The message's payload, whichever flavour carries it.
[[nodiscard]] std::span<const double> payload_data(const Message& msg) {
  return msg.shared ? std::span<const double>(*msg.shared)
                    : std::span<const double>(msg.exclusive);
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
/// the destination thread waits on a slot, so sharing never adds waiters —
/// it only coarsens the wakeup filter at very large rank counts.
constexpr std::size_t kMaxChannelSlots = 64;

/// CPU-relax between spin probes.
inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

Network::Network(int nranks, FabricSpec spec)
    : nranks_(nranks),
      slots_per_rank_(
          std::min<std::size_t>(static_cast<std::size_t>(nranks),
                                kMaxChannelSlots)),
      channels_(static_cast<std::size_t>(nranks) * slots_per_rank_),
      inbound_(static_cast<std::size_t>(nranks)),
      stats_(nranks) {
  CONFLUX_EXPECTS(nranks >= 1);
  // Spinning before blocking only pays when senders can make progress on
  // another core while the receiver burns cycles; on an oversubscribed host
  // the receiver must yield the core immediately instead.
  const unsigned hw = std::thread::hardware_concurrency();
  spin_iters_ = (hw > 1 && static_cast<int>(hw) >= nranks) ? 128 : 0;
  if (spec.mode == ExecMode::VirtualTime)
    vt_ = std::make_unique<VtRuntime>(*this, nranks, spec.link);
}

Network::~Network() { stop_team(); }

void Network::enqueue(int dst, int src, Tag tag, Message msg) {
  Channel& ch = channel(dst, src);
  // Per-destination depth/HWM; see Inbound for why this is not per-slot.
  Inbound& in = inbound_[static_cast<std::size_t>(dst)];
  const int depth = in.depth.fetch_add(1, std::memory_order_relaxed) + 1;
  int hwm = in.hwm.load(std::memory_order_relaxed);
  while (depth > hwm &&
         !in.hwm.compare_exchange_weak(hwm, depth, std::memory_order_relaxed))
    ;
  bool wake = false;
  {
    const std::lock_guard<std::mutex> lock(ch.mutex);
    ch.pending.push_back({src, tag, std::move(msg)});
    if (vt_ != nullptr) {
      // Fiber wakeup shares the channel mutex with the park handshake, so
      // a deliver concurrent with a park either lands before the parking
      // worker's queue re-check or observes the parked flag.
      vt_->wake_if_parked(dst, src, tag);
    } else {
      wake = ch.waiting && ch.waiting_src == src && ch.waiting_tag == tag;
    }
  }
  if (wake) ch.cv.notify_one();
}

void Network::set_trace(TraceRecorder* trace) {
  trace_ = trace;
  if (trace_ == nullptr) return;
  trace_->reset(nranks_);
  if (vt_ != nullptr) trace_->set_virtual_clock(vt_->clocks());
}

void Network::set_telemetry(telemetry::TelemetryBoard* board) {
  telemetry_ = board;
  if (telemetry_ == nullptr) return;
  telemetry_->reset(nranks_);
  if (vt_ != nullptr) telemetry_->set_virtual_clock(vt_->clocks());
  // Queue high-water marks restart with the board so a reused Network
  // reports this run, not the union of all runs.
  for (Inbound& in : inbound_)
    in.hwm.store(in.depth.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
}

void Network::set_faults(FaultPlan* plan) {
  faults_ = plan;
  if (faults_ != nullptr) faults_->reset(nranks_);
}

/// Stamp the payload's fingerprint into the message when someone will
/// check it: always under integrity mode (an end-to-end checksum over
/// shared and exclusive payloads alike), and for shared payloads whenever a
/// trace is attached (the in-flight-mutation lint). Ghosts carry no data.
void Network::stamp(Message& msg) const {
  const bool has_data = msg.shared || !msg.exclusive.empty();
  if (has_data && (integrity_ || (trace_ != nullptr && msg.shared)))
    msg.fingerprint = fingerprint_of(msg);
}

/// The one send path, per destination, in its fixed order: count the bytes,
/// apply the fault plan's verdict (after stamping, so corruption shows as a
/// fingerprint mismatch; before recording, so the timestamps see the post-
/// injection clock), attribute the bytes, log the Send, enqueue.
void Network::post(int src, int dst, Tag tag, Message msg, bool multicast) {
  CONFLUX_EXPECTS_CTX(dst >= 0 && dst < size(),
                      (CommContext{.src = src, .dst = dst}.with_tag(tag)));
  stats_.record_send(src, dst, msg.logical_bytes);
  // Injection: corruption flips a payload bit; stalls and delays become
  // virtual-clock charges in VirtualTime mode, or a real sender sleep plus
  // a delivery-ripeness timestamp in Threaded mode.
  FaultPlan::Injection inj;
  if (faults_ != nullptr && src != dst)
    inj = faults_->at_delivery(src, dst, tag, payload_data(msg).size());
  if (inj.corrupt) flip_payload_bit(msg, inj.corrupt_bit);
  if (vt_ != nullptr) {
    // The LogGP send charge; self-sends are free (matching the StatsBoard
    // accounting exemption).
    if (inj.stall_s > 0) vt_->charge_seconds(src, inj.stall_s);
    msg.vt_arrival = (src != dst)
                         ? vt_->charge_send(src, msg.logical_bytes) +
                               inj.delay_s
                         : vt_->clock_seconds(src);
  } else {
    if (inj.stall_s > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(inj.stall_s));
    if (inj.delay_s > 0)
      msg.not_before_ns =
          telemetry::now_ns() + static_cast<std::uint64_t>(inj.delay_s * 1e9);
  }
  if (telemetry_ != nullptr && src != dst)
    telemetry_->add_bytes(src, msg.logical_bytes);
  if (trace_ != nullptr)
    trace_->record_send(src, dst, tag, msg.logical_bytes, multicast);
  enqueue(dst, src, tag, std::move(msg));
}

void Network::deliver(int src, int dst, Tag tag, Message msg) {
  CONFLUX_EXPECTS_CTX(src >= 0 && src < size(),
                      (CommContext{.src = src, .dst = dst}.with_tag(tag)));
  stamp(msg);
  post(src, dst, tag, std::move(msg), /*multicast=*/false);
}

void Network::multicast(int src, std::span<const int> dsts, Tag tag,
                        SharedBuffer payload, std::size_t logical_bytes) {
  CONFLUX_EXPECTS_CTX(src >= 0 && src < size(),
                      (CommContext{.src = src}.with_tag(tag)));
  Message msg{std::move(payload), {}, logical_bytes, 0, 0};
  stamp(msg);  // once: every copy aliases the same payload
  // A P-way multicast is P sends: each copy gets its own injection verdict
  // and LogGP charge, and a corrupted copy reaches only its recipient.
  for (int dst : dsts) post(src, dst, tag, msg, /*multicast=*/true);
}

/// Every rank currently parked in a blocking receive. Threaded mode scans
/// the channel slots (each guarded by its own mutex — the caller must hold
/// none of them); virtual-time mode asks the fiber runtime.
std::vector<ParkedRank> Network::parked_snapshot() {
  if (vt_ != nullptr) return vt_->parked_snapshot();
  std::vector<ParkedRank> out;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    Channel& ch = channels_[i];
    const std::lock_guard<std::mutex> lock(ch.mutex);
    if (ch.waiting)
      out.push_back({static_cast<int>(i / slots_per_rank_), ch.waiting_src,
                     ch.waiting_tag});
  }
  return out;
}

/// Match the first pending (src, tag) entry in `ch` (caller holds
/// ch.mutex): true iff a ripe message waits there. With `out`, the message
/// is also dequeued into it; without, this is a probe. A fault-injected
/// link delay stamps a not-before instant (Threaded mode only), and FIFO
/// order within the channel must hold, so an unripe first match means
/// "nothing yet" (`ripe_at` reports when to re-check).
bool Network::pop(Channel& ch, int me, int src, Tag tag, Message* out,
                  std::uint64_t* ripe_at) {
  const auto it = std::find_if(
      ch.pending.begin(), ch.pending.end(),
      [&](const Pending& e) { return e.src == src && e.tag == tag; });
  if (it == ch.pending.end()) return false;
  const Message& front = it->msg;
  if (front.not_before_ns != 0 && telemetry::now_ns() < front.not_before_ns) {
    if (ripe_at != nullptr) *ripe_at = front.not_before_ns;
    return false;
  }
  if (out == nullptr) return true;
  *out = std::move(it->msg);
  ch.pending.erase(it);
  inbound_[static_cast<std::size_t>(me)].depth.fetch_sub(
      1, std::memory_order_relaxed);
  return true;
}

/// The one receive epilogue, shared by both execution modes and run on the
/// receiver's context once a message is matched: count the receive,
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
  const bool checked = msg.fingerprint != 0 &&
                       (integrity_ || (trace_ != nullptr && msg.shared));
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

Message Network::receive(int me, int src, Tag tag) {
  CONFLUX_EXPECTS_CTX(me >= 0 && me < size() && src >= 0 && src < size(),
                      at_receiver(me, src, tag));
  if (vt_ != nullptr) return receive_vt(me, src, tag);
  Channel& ch = channel(me, src);
  Message msg;
  auto try_pop = [&] {
    std::unique_lock<std::mutex> lock(ch.mutex, std::try_to_lock);
    return lock.owns_lock() && pop(ch, me, src, tag, &msg);
  };
  // Wait-time attribution (ConfScope): stamped lazily, only after the
  // first probe misses — a receive whose message already arrived records a
  // zero-length wait without touching the clock at all, so the attached
  // fast path stays within a few percent of the disabled one.
  std::uint64_t wait_begin = 0;
  if (!try_pop()) {
    if (telemetry_ != nullptr) wait_begin = telemetry::now_ns();
    // Short spin: cheap when a matching send is already in flight on
    // another core; skipped entirely (spin_iters_ == 0) when ranks
    // outnumber cores.
    bool got = false;
    for (int i = 0; i < spin_iters_ && !got; ++i) {
      if (aborted()) throw JobAborted{};
      cpu_pause();
      got = try_pop();
    }
    if (!got) wait_on_channel(ch, me, src, tag, msg);
  }
  return complete_receive(me, src, tag, std::move(msg), wait_begin,
                          wait_begin != 0 ? telemetry::now_ns() : 0);
}

/// The threaded receive's blocking wait: sleep on the channel's condition
/// variable until the matching message is ripe and popped into `out`.
/// Throws ReceiveTimeout (located, with the parked snapshot) once the run
/// policy's deadline expires.
void Network::wait_on_channel(Channel& ch, int me, int src, Tag tag,
                              Message& out) {
  const bool deadline_on = policy_.deadline_s > 0;
  const double heartbeat_s = std::max(policy_.heartbeat_s, 1e-3);
  std::uint64_t entered_ns = 0;  ///< stamped lazily on the first miss
  double waited_s = 0;
  {
    std::unique_lock<std::mutex> lock(ch.mutex);
    for (;;) {
      if (aborted()) {
        ch.waiting = false;
        throw JobAborted{};
      }
      std::uint64_t ripe_at = 0;
      if (pop(ch, me, src, tag, &out, &ripe_at)) {
        ch.waiting = false;
        return;
      }
      if (deadline_on) {
        const std::uint64_t now = telemetry::now_ns();
        if (entered_ns == 0) entered_ns = now;
        const double elapsed = static_cast<double>(now - entered_ns) * 1e-9;
        if (elapsed >= policy_.deadline_s) {
          ch.waiting = false;
          waited_s = elapsed;
          break;
        }
      }
      ch.waiting = true;
      ch.waiting_src = src;
      ch.waiting_tag = tag;
      if (ripe_at != 0) {
        // Nobody re-notifies when a delayed head ripens: bound the wait by
        // the time to ripeness (and the deadline heartbeat, if any).
        const std::uint64_t now = telemetry::now_ns();
        double until =
            ripe_at > now ? static_cast<double>(ripe_at - now) * 1e-9 : 0.0;
        if (deadline_on) until = std::min(until, heartbeat_s);
        ch.cv.wait_for(lock, std::chrono::duration<double>(until));
      } else if (deadline_on) {
        ch.cv.wait_for(lock, std::chrono::duration<double>(heartbeat_s));
      } else {
        ch.cv.wait(lock);
      }
    }
  }
  // The located timeout diagnostic snapshots every channel — build it with
  // our own channel mutex released (it is not recursive).
  std::vector<ParkedRank> parked = parked_snapshot();
  const CommContext ctx = at_receiver(me, src, tag);
  std::ostringstream os;
  os << "receive deadline exceeded after " << waited_s << " s " << ctx
     << ": no matching message from rank " << src << "; " << parked.size()
     << " other rank(s) parked in receives; inbound queue-depth HWM for "
        "rank "
     << me << " = "
     << inbound_[static_cast<std::size_t>(me)].hwm.load(
            std::memory_order_relaxed);
  throw ReceiveTimeout(os.str(), ctx, std::move(parked), /*deadlock=*/false);
}

/// Virtual-time receive: no clocks, no spinning — a miss parks the calling
/// fiber until the matching deliver wakes it. Once matched, the message's
/// simulated arrival instant is folded into the receiver's virtual clock
/// and the blocked interval is recorded in virtual time.
Message Network::receive_vt(int me, int src, Tag tag) {
  Channel& ch = channel(me, src);
  Message msg;
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(ch.mutex);
      if (pop(ch, me, src, tag, &msg)) break;
    }
    if (aborted()) throw JobAborted{};
    vt_->park(me, src, tag);
    if (aborted()) throw JobAborted{};
  }
  const auto [begin_s, end_s] = vt_->absorb_arrival(me, msg.vt_arrival);
  if (policy_.virtual_deadline_s > 0 && end_s > policy_.virtual_deadline_s) {
    // The virtual-time analogue of the real-time deadline: a fault-stalled
    // simulated run whose clock blows past the cap fails deterministically
    // with the same typed diagnostic a threaded timeout produces.
    const CommContext ctx = at_receiver(me, src, tag);
    std::ostringstream os;
    os << "virtual-clock deadline exceeded: rank " << me << " reached "
       << end_s << " s > cap " << policy_.virtual_deadline_s << " s " << ctx;
    throw ReceiveTimeout(os.str(), ctx, vt_->parked_snapshot(),
                         /*deadlock=*/false);
  }
  // After absorb_arrival, so the Recv event carries the post-match clock.
  return complete_receive(me, src, tag, std::move(msg),
                          static_cast<std::uint64_t>(begin_s * 1e9),
                          static_cast<std::uint64_t>(end_s * 1e9));
}

void Network::abort() {
  aborted_.store(true, std::memory_order_release);
  for (auto& ch : channels_) {
    const std::lock_guard<std::mutex> lock(ch.mutex);
    ch.cv.notify_all();
  }
  if (vt_ != nullptr) vt_->wake_all_parked();
}

double Network::virtual_makespan() const {
  return vt_ != nullptr ? vt_->makespan_seconds() : 0.0;
}

double Network::virtual_seconds(int rank) const {
  CONFLUX_EXPECTS(rank >= 0 && rank < nranks_);
  return vt_ != nullptr ? vt_->clock_seconds(rank) : 0.0;
}

void Network::charge_flops(int rank, double flops) {
  CONFLUX_EXPECTS(rank >= 0 && rank < nranks_);
  if (vt_ != nullptr) vt_->charge_flops(rank, flops);
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

// --- persistent rank team ---------------------------------------------------

void Network::start_team() {
  if (!team_.empty()) return;
  team_.reserve(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r)
    team_.emplace_back([this, r] { team_worker(r); });
}

void Network::stop_team() {
  {
    const std::lock_guard<std::mutex> lock(team_mutex_);
    team_shutdown_ = true;
  }
  team_work_cv_.notify_all();
  for (auto& t : team_) t.join();
  team_.clear();
}

void Network::team_worker(int rank) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(team_mutex_);
      team_work_cv_.wait(lock, [&] {
        return team_shutdown_ || team_generation_ != seen;
      });
      if (team_shutdown_) return;
      seen = team_generation_;
      job = team_job_;
    }
    try {
      (*job)(rank);
    } catch (const JobAborted&) {
      // Another rank failed first; nothing to record.
    } catch (const std::exception& e) {
      note_rank_failure(rank, e.what());
      {
        const std::lock_guard<std::mutex> lock(team_mutex_);
        if (!team_error_) team_error_ = std::current_exception();
      }
      abort();
    } catch (...) {
      note_rank_failure(rank, "unknown exception");
      {
        const std::lock_guard<std::mutex> lock(team_mutex_);
        if (!team_error_) team_error_ = std::current_exception();
      }
      abort();
    }
    bool last = false;
    {
      const std::lock_guard<std::mutex> lock(team_mutex_);
      last = (--team_remaining_ == 0);
    }
    if (last) team_done_cv_.notify_all();
  }
}

void Network::run_team(const std::function<void(int)>& job) {
  // A previous run may have been aborted mid-flight: reset the flag and
  // drain any stale messages so the new run starts from a clean fabric.
  if (aborted()) {
    for (auto& ch : channels_) {
      const std::lock_guard<std::mutex> lock(ch.mutex);
      ch.pending.clear();
      ch.waiting = false;
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
  if (vt_ != nullptr) {
    run_vt(job);
    return;
  }
  start_team();
  {
    const std::lock_guard<std::mutex> lock(team_mutex_);
    team_job_ = &job;
    team_error_ = nullptr;
    team_remaining_ = nranks_;
    ++team_generation_;
  }
  team_work_cv_.notify_all();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(team_mutex_);
    team_done_cv_.wait(lock, [&] { return team_remaining_ == 0; });
    team_job_ = nullptr;
    error = std::move(team_error_);
    team_error_ = nullptr;
  }
  flush_queue_hwm();
  if (error) std::rethrow_exception(error);
}

/// Flush per-rank inbound queue-depth high-water marks into the telemetry
/// board. Called after the run_team / run_vt join, which synchronizes, so
/// the relaxed reads see every worker's final values.
void Network::flush_queue_hwm() {
  if (telemetry_ == nullptr) return;
  for (int dst = 0; dst < nranks_; ++dst)
    telemetry_->set_queue_hwm(
        dst, inbound_[static_cast<std::size_t>(dst)].hwm.load(
                 std::memory_order_relaxed));
}

void Network::run_vt(const std::function<void(int)>& job) {
  std::exception_ptr error;
  try {
    vt_->run(job);
  } catch (...) {
    error = std::current_exception();
  }
  flush_queue_hwm();
  if (error) std::rethrow_exception(error);
}

}  // namespace conflux::simnet
