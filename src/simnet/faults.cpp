#include "simnet/faults.hpp"

#include <algorithm>
#include <utility>

namespace conflux::simnet {

namespace {

/// splitmix64 finalizer — the mixing function behind every injection
/// decision. Statistically strong enough that per-message decisions look
/// independent, yet a pure function of its input, which is what makes the
/// whole plan reproducible.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Top 53 bits of a hash as a uniform double in [0, 1).
[[nodiscard]] double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Domain-separation constants so the delay/stall/corrupt draws for one
// message are independent of each other and of the link/slow-rank sets.
constexpr std::uint64_t kLinkSalt = 0x11bcd5d4f9d1a0c3ULL;
constexpr std::uint64_t kSlowSalt = 0x5e11a2b7c4d90f17ULL;
constexpr std::uint64_t kDelaySalt = 0xd31a70b5e6c48a91ULL;
constexpr std::uint64_t kStallSalt = 0x57a1105fb3e2d769ULL;
constexpr std::uint64_t kCorruptSalt = 0xc0442e8ba17f5d23ULL;

}  // namespace

void FaultPlan::reset(int nranks) {
  CONFLUX_EXPECTS(nranks >= 1);
  if (nranks != nranks_ || seq_ == nullptr) {
    // (Re)sizing marks a new experiment: the lifetime injection counters
    // restart here — NOT on the per-attempt re-attach every retry's fresh
    // Network performs, which must keep failed attempts' totals visible.
    delayed_.store(0, std::memory_order_relaxed);
    stalled_.store(0, std::memory_order_relaxed);
    corrupted_.store(0, std::memory_order_relaxed);
    nranks_ = nranks;
    seq_ = std::make_unique<std::atomic<std::uint64_t>[]>(
        static_cast<std::size_t>(nranks));
    // Slow-rank selection: hash every rank with the seed and take the
    // spec'd count of smallest hashes — an exact-size, seed-stable victim
    // set that does not depend on enumeration order.
    slow_.assign(static_cast<std::size_t>(nranks), 0);
    if (spec_.slow_ranks > 0 && spec_.slow_factor != 1.0) {
      std::vector<std::pair<std::uint64_t, int>> order;
      order.reserve(static_cast<std::size_t>(nranks));
      for (int r = 0; r < nranks; ++r)
        order.emplace_back(
            mix64(spec_.seed ^ kSlowSalt ^ static_cast<std::uint64_t>(r)), r);
      std::sort(order.begin(), order.end());
      const int victims = std::min(spec_.slow_ranks, nranks);
      for (int i = 0; i < victims; ++i)
        slow_[static_cast<std::size_t>(order[static_cast<std::size_t>(i)]
                                           .second)] = 1;
    }
  }
  begin_run();
}

void FaultPlan::begin_run() {
  // Sequence counters restart so an identical rerun injects identically;
  // the injection counters do NOT — they are lifetime totals, so a retry
  // chain's failed attempts stay visible in the final report.
  for (int r = 0; r < nranks_; ++r)
    seq_[static_cast<std::size_t>(r)].store(0, std::memory_order_relaxed);
}

bool FaultPlan::slow_rank(int rank) const {
  return rank >= 0 && rank < nranks_ &&
         slow_[static_cast<std::size_t>(rank)] != 0;
}

FaultPlan::Injection FaultPlan::at_delivery(int src, int dst, Tag tag,
                                            std::size_t payload_doubles) {
  Injection inj;
  if (!spec_.any()) return inj;
  CONFLUX_EXPECTS_CTX(seq_ != nullptr && src >= 0 && src < nranks_ &&
                          dst >= 0 && dst < nranks_,
                      (CommContext{.src = src, .dst = dst}.with_tag(tag)));
  // The per-source sequence number advances in the sender's program order —
  // fixed by the dataflow — so this key, and every decision derived from
  // it, is identical across repeats, host pool sizes and clocks.
  const std::uint64_t seq = seq_[static_cast<std::size_t>(src)].fetch_add(
      1, std::memory_order_relaxed);
  const std::uint64_t key =
      mix64(mix64(spec_.seed ^ attempt_.load(std::memory_order_relaxed)) ^
            mix64((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                   << 32) |
                  static_cast<std::uint32_t>(dst)) ^
            mix64(tag) ^ mix64(seq));
  // A persistently slow rank scales every fault it is involved in.
  double scale = 1.0;
  if (slow_rank(src) || slow_rank(dst)) scale *= spec_.slow_factor;

  if (spec_.delay_prob > 0 && spec_.delay_s + spec_.jitter_s > 0) {
    // The faulty-link set is a property of the (src, dst) pair and the seed
    // only — stable across messages and retry attempts, like a bad cable.
    const std::uint64_t link =
        mix64(spec_.seed ^ kLinkSalt ^
              ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                << 32) |
               static_cast<std::uint32_t>(dst)));
    if (unit(link) < spec_.faulty_links) {
      const std::uint64_t draw = mix64(key ^ kDelaySalt);
      if (unit(draw) < spec_.delay_prob) {
        inj.delay_s =
            (spec_.delay_s + unit(mix64(draw)) * spec_.jitter_s) * scale;
        delayed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (spec_.stall_prob > 0 && spec_.stall_s > 0) {
    const std::uint64_t draw = mix64(key ^ kStallSalt);
    if (unit(draw) < spec_.stall_prob) {
      inj.stall_s = spec_.stall_s * scale;
      stalled_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (spec_.corrupt_prob > 0 && payload_doubles > 0) {
    const std::uint64_t draw = mix64(key ^ kCorruptSalt);
    if (unit(draw) < spec_.corrupt_prob) {
      inj.corrupt = true;
      inj.corrupt_bit =
          mix64(draw) % (static_cast<std::uint64_t>(payload_doubles) * 64);
      corrupted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return inj;
}

FaultPlan::Counters FaultPlan::counters() const {
  return {delayed_.load(std::memory_order_relaxed),
          stalled_.load(std::memory_order_relaxed),
          corrupted_.load(std::memory_order_relaxed)};
}

}  // namespace conflux::simnet
