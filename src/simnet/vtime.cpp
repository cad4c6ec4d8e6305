#include "simnet/vtime.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <memory>
#include <thread>

#include "simnet/network.hpp"
#include "support/assert.hpp"
#include "support/env.hpp"
#include "support/thread_pool.hpp"

// Sanitizer fiber annotations: ASan must be told about stack switches so its
// fake-stack bookkeeping follows the fibers, and TSan models each fiber as
// its own logical thread (switching synchronizes, so the cooperative
// handoffs carry happens-before edges).
#if defined(__SANITIZE_ADDRESS__)
#define CONFLUX_VT_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define CONFLUX_VT_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CONFLUX_VT_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define CONFLUX_VT_TSAN 1
#endif
#endif
#if defined(CONFLUX_VT_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(CONFLUX_VT_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace conflux::simnet {

namespace {

/// Usable fiber stack size. Fibers run every rank body (numeric kernels
/// included), so the default leaves headroom; sanitizer builds triple frame
/// sizes, hence the larger floor there. The stacks are lazily committed
/// mmap regions — 4096 ranks reserve virtual address space only for pages
/// never touched.
std::size_t fiber_stack_bytes() {
#if defined(CONFLUX_VT_ASAN) || defined(CONFLUX_VT_TSAN)
  const std::int64_t kb = env_int("CONFLUX_VT_STACK_KB", 1024);
#else
  const std::int64_t kb = env_int("CONFLUX_VT_STACK_KB", 512);
#endif
  return static_cast<std::size_t>(std::max<std::int64_t>(64, kb)) * 1024;
}

std::size_t page_size() {
  static const std::size_t ps =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

#if defined(CONFLUX_VT_TSAN)
thread_local void* tl_worker_tsan_fiber = nullptr;
#endif
#if defined(CONFLUX_VT_ASAN)
thread_local void* tl_worker_fake_stack = nullptr;
#endif

}  // namespace

/// One simulated rank's cooperative context: a ucontext fiber on an mmap'd
/// guarded stack and the park/wake handshake state. `parked`, `wait_src`
/// and `wait_tag` are written by the rank's own worker under `park_mutex`
/// and read by delivering fibers under the same mutex; everything else is
/// touched only by the fiber itself or by the worker that just suspended/
/// resumed it (hand-off through the ready queue provides the happens-before
/// edge).
struct VtRuntime::RankCtx {
  enum class Phase : std::uint8_t { Ready, Running, Blocking, Parked, Done };

  ucontext_t uc{};
  ucontext_t* return_uc = nullptr;  ///< resuming worker's context
  void* map = nullptr;              ///< mmap base (guard page first)
  std::size_t map_bytes = 0;
  void* stack_base = nullptr;       ///< usable stack bottom
  std::size_t stack_bytes = 0;
  int rank = -1;
  VtRuntime* rt = nullptr;
  Phase phase = Phase::Ready;

  int wait_src = -1;
  Tag wait_tag = 0;
  bool parked = false;
  std::mutex park_mutex;

#if defined(CONFLUX_VT_ASAN)
  void* fake_stack = nullptr;
  const void* worker_bottom = nullptr;
  std::size_t worker_size = 0;
#endif
#if defined(CONFLUX_VT_TSAN)
  void* return_tsan = nullptr;
  void* tsan_fiber = nullptr;
#endif
};

struct VtRuntime::Impl {
  std::vector<std::unique_ptr<RankCtx>> ranks;
  /// Per-rank virtual seconds; entry r is written only by rank r's fiber,
  /// through advance_to().
  std::vector<double> clock;

  std::mutex ready_mutex;
  std::condition_variable ready_cv;
  std::deque<int> ready;
  int running = 0;
  int finished = 0;
  bool stop = false;

  const std::function<void(int)>* job = nullptr;
  std::mutex error_mutex;
  std::exception_ptr error;
};

VtRuntime::VtRuntime(Network& net, int nranks, LinkModel link)
    : net_(&net), nranks_(nranks), link_(link), impl_(new Impl) {
  CONFLUX_EXPECTS(nranks >= 1);
  CONFLUX_EXPECTS(link.alpha_s >= 0 && link.beta_s_per_byte >= 0 &&
                  link.gamma_s_per_flop >= 0);
  impl_->ranks.reserve(static_cast<std::size_t>(nranks));
  impl_->clock.assign(static_cast<std::size_t>(nranks), 0.0);
  const std::size_t stack = fiber_stack_bytes();
  const std::size_t guard = page_size();
  for (int r = 0; r < nranks; ++r) {
    auto c = std::make_unique<RankCtx>();
    c->rank = r;
    c->rt = this;
    c->map_bytes = stack + guard;
    c->map = ::mmap(nullptr, c->map_bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    CONFLUX_EXPECTS_MSG(c->map != MAP_FAILED,
                        "mmap of a " << c->map_bytes
                                     << "-byte fiber stack failed (rank " << r
                                     << " of " << nranks << ")");
    // Guard page at the low end: stack overflow faults instead of silently
    // corrupting the neighbouring fiber's stack.
    ::mprotect(c->map, guard, PROT_NONE);
    c->stack_base = static_cast<char*>(c->map) + guard;
    c->stack_bytes = stack;
#if defined(CONFLUX_VT_TSAN)
    c->tsan_fiber = __tsan_create_fiber(0);
#endif
    impl_->ranks.push_back(std::move(c));
  }
}

VtRuntime::~VtRuntime() {
  for (auto& c : impl_->ranks) {
#if defined(CONFLUX_VT_TSAN)
    if (c->tsan_fiber != nullptr) __tsan_destroy_fiber(c->tsan_fiber);
#endif
    if (c->map != nullptr) ::munmap(c->map, c->map_bytes);
  }
  delete impl_;
}

const double* VtRuntime::clocks() const { return impl_->clock.data(); }

double VtRuntime::clock_seconds(int rank) const {
  return impl_->clock[static_cast<std::size_t>(rank)];
}

double VtRuntime::makespan_seconds() const {
  double m = 0;
  for (const double t : impl_->clock) m = std::max(m, t);
  return m;
}

void VtRuntime::push_ready(int rank) {
  {
    const std::lock_guard<std::mutex> lock(impl_->ready_mutex);
    impl_->ready.push_back(rank);
  }
  impl_->ready_cv.notify_one();
}

// --- context switching ------------------------------------------------------

void VtRuntime::trampoline(unsigned int hi, unsigned int lo) {
  auto* c = reinterpret_cast<RankCtx*>((static_cast<std::uintptr_t>(hi) << 32) |
                                       static_cast<std::uintptr_t>(lo));
#if defined(CONFLUX_VT_ASAN)
  __sanitizer_finish_switch_fiber(c->fake_stack, &c->worker_bottom,
                                  &c->worker_size);
#endif
  c->rt->fiber_main(*c);
}

void VtRuntime::resume(RankCtx& c) {
  ucontext_t here;
  c.return_uc = &here;
#if defined(CONFLUX_VT_TSAN)
  if (tl_worker_tsan_fiber == nullptr)
    tl_worker_tsan_fiber = __tsan_get_current_fiber();
  c.return_tsan = tl_worker_tsan_fiber;
  __tsan_switch_to_fiber(c.tsan_fiber, 0);
#endif
#if defined(CONFLUX_VT_ASAN)
  __sanitizer_start_switch_fiber(&tl_worker_fake_stack, c.stack_base,
                                 c.stack_bytes);
#endif
  ::swapcontext(&here, &c.uc);
#if defined(CONFLUX_VT_ASAN)
  __sanitizer_finish_switch_fiber(tl_worker_fake_stack, nullptr, nullptr);
#endif
}

/// Suspend the current fiber and return control to the worker that resumed
/// it. Runs on the fiber's stack; returns when some worker resumes the
/// fiber again (never returns when called with phase == Done).
void VtRuntime::finish_park(RankCtx& c) {
  // Registered *after* the fiber context was saved (we are on the worker
  // stack here), so a deliver that races with the park either sees the
  // message in the queue re-check below or sees `parked` and wakes — a lost
  // wakeup would need the deliver to happen between the re-check and
  // setting `parked`, and both happen under the channel mutex.
  auto& ch = net_->channel(c.rank, c.wait_src);
  const std::lock_guard<std::mutex> lock(ch.mutex);
  if (net_->pop(ch, c.rank, c.wait_src, c.wait_tag, /*out=*/nullptr) ||
      net_->aborted()) {
    c.phase = RankCtx::Phase::Ready;
    push_ready(c.rank);
    return;
  }
  const std::lock_guard<std::mutex> plock(c.park_mutex);
  c.parked = true;
  c.phase = RankCtx::Phase::Parked;
}

void VtRuntime::fiber_main(RankCtx& c) {
  try {
    (*impl_->job)(c.rank);
  } catch (const JobAborted&) {
    // Another rank failed first; nothing to record.
  } catch (const std::exception& e) {
    net_->note_rank_failure(c.rank, e.what());
    {
      const std::lock_guard<std::mutex> lock(impl_->error_mutex);
      if (!impl_->error) impl_->error = std::current_exception();
    }
    net_->abort();
  } catch (...) {
    net_->note_rank_failure(c.rank, "unknown exception");
    {
      const std::lock_guard<std::mutex> lock(impl_->error_mutex);
      if (!impl_->error) impl_->error = std::current_exception();
    }
    net_->abort();
  }
  c.phase = RankCtx::Phase::Done;
  // Hand control back to the worker for the last time. The context saved
  // into c.uc here is never resumed; the next run re-creates it. Passing
  // nullptr for the fake-stack save slot tells ASan the fiber is dying so
  // it releases the fiber's fake stack instead of keeping it live.
#if defined(CONFLUX_VT_ASAN)
  __sanitizer_start_switch_fiber(nullptr, c.worker_bottom, c.worker_size);
#endif
#if defined(CONFLUX_VT_TSAN)
  __tsan_switch_to_fiber(c.return_tsan, 0);
#endif
  ::swapcontext(&c.uc, c.return_uc);
  // Unreachable: a Done fiber is never resumed.
  CONFLUX_ASSERT(false);
}

void VtRuntime::park(int rank, int src, Tag tag) {
  RankCtx& c = *impl_->ranks[static_cast<std::size_t>(rank)];
  CONFLUX_ASSERT(c.phase == RankCtx::Phase::Running);
  c.wait_src = src;
  c.wait_tag = tag;
  c.phase = RankCtx::Phase::Blocking;
#if defined(CONFLUX_VT_ASAN)
  __sanitizer_start_switch_fiber(&c.fake_stack, c.worker_bottom,
                                 c.worker_size);
#endif
#if defined(CONFLUX_VT_TSAN)
  __tsan_switch_to_fiber(c.return_tsan, 0);
#endif
  ::swapcontext(&c.uc, c.return_uc);
#if defined(CONFLUX_VT_ASAN)
  __sanitizer_finish_switch_fiber(c.fake_stack, &c.worker_bottom,
                                  &c.worker_size);
#endif
}

void VtRuntime::wake_if_parked(int dst, int src, Tag tag) {
  RankCtx& c = *impl_->ranks[static_cast<std::size_t>(dst)];
  bool wake = false;
  {
    const std::lock_guard<std::mutex> lock(c.park_mutex);
    if (c.parked && c.wait_src == src && c.wait_tag == tag) {
      c.parked = false;
      c.phase = RankCtx::Phase::Ready;
      wake = true;
    }
  }
  if (wake) push_ready(dst);
}

void VtRuntime::wake_all_parked() {
  for (auto& cp : impl_->ranks) {
    RankCtx& c = *cp;
    bool wake = false;
    {
      const std::lock_guard<std::mutex> lock(c.park_mutex);
      if (c.parked) {
        c.parked = false;
        c.phase = RankCtx::Phase::Ready;
        wake = true;
      }
    }
    if (wake) push_ready(c.rank);
  }
}

// --- clocks -----------------------------------------------------------------

/// The one writer of the clocks: move `rank`'s clock to `t` unless it is
/// already later; returns the new reading.
double VtRuntime::advance_to(int rank, double t) {
  double& clock = impl_->clock[static_cast<std::size_t>(rank)];
  clock = std::max(clock, t);
  return clock;
}

double VtRuntime::charge_send(int rank, std::size_t bytes) {
  return advance_to(rank, clock_seconds(rank) + static_cast<double>(bytes) *
                                                    link_.beta_s_per_byte) +
         link_.alpha_s;
}

std::pair<double, double> VtRuntime::absorb_arrival(int rank, double arrival) {
  const double begin = clock_seconds(rank);
  return {begin, advance_to(rank, arrival)};
}

void VtRuntime::charge_flops(int rank, double flops) {
  if (link_.gamma_s_per_flop <= 0 || flops <= 0) return;
  advance_to(rank, clock_seconds(rank) + flops * link_.gamma_s_per_flop);
}

void VtRuntime::charge_seconds(int rank, double seconds) {
  if (seconds <= 0) return;
  advance_to(rank, clock_seconds(rank) + seconds);
}

std::vector<ParkedRank> VtRuntime::parked_snapshot() const {
  std::vector<ParkedRank> out;
  for (const auto& cp : impl_->ranks) {
    RankCtx& c = *cp;
    const std::lock_guard<std::mutex> lock(c.park_mutex);
    if (c.parked) out.push_back({c.rank, c.wait_src, c.wait_tag});
  }
  return out;
}

// --- scheduler --------------------------------------------------------------

void VtRuntime::worker_loop() {
  Impl& im = *impl_;
  for (;;) {
    int rank = -1;
    {
      std::unique_lock<std::mutex> lock(im.ready_mutex);
      im.ready_cv.wait(lock, [&] { return im.stop || !im.ready.empty(); });
      if (im.stop) return;
      rank = im.ready.front();
      im.ready.pop_front();
      ++im.running;
    }
    RankCtx& c = *im.ranks[static_cast<std::size_t>(rank)];
    c.phase = RankCtx::Phase::Running;
    resume(c);
    // The fiber suspended: either it wants to park or it finished. Capture
    // the phase now, while only this worker touches c — finish_park() may
    // re-enqueue the fiber, after which another worker can resume it and
    // rewrite c.phase concurrently, so it must not be re-read below.
    const RankCtx::Phase suspended = c.phase;
    const bool done = suspended == RankCtx::Phase::Done;
    if (suspended == RankCtx::Phase::Blocking) finish_park(c);
    bool all_done = false;
    bool deadlock = false;
    {
      const std::lock_guard<std::mutex> lock(im.ready_mutex);
      --im.running;
      if (done) ++im.finished;
      if (im.finished == nranks_) {
        im.stop = true;
        all_done = true;
      } else if (im.running == 0 && im.ready.empty()) {
        // No fiber is runnable and none is running: every live rank is
        // parked in a receive — the simulated program deadlocked.
        deadlock = true;
      }
    }
    if (all_done) {
      im.ready_cv.notify_all();
    } else if (deadlock) {
      // Typed, located diagnostic: which ranks are parked and on what.
      // deadlock() == true marks it deterministic — a retry would park the
      // same way, so factor::run_with_retry must not re-run it. Each parked
      // rank also lands in the failure report: the fibers themselves
      // unwind with JobAborted, which records nothing.
      std::vector<ParkedRank> parked = parked_snapshot();
      for (const ParkedRank& p : parked) {
        std::ostringstream os;
        os << "deadlock: parked in a receive "
           << CommContext{.rank = p.rank, .src = p.src, .dst = p.rank}
                  .with_tag(p.tag);
        net_->note_rank_failure(p.rank, os.str());
      }
      {
        const std::lock_guard<std::mutex> lock(im.error_mutex);
        if (!im.error) {
          CommContext ctx;
          std::ostringstream os;
          os << "deadlock: every live rank is parked in a receive with no "
                "matching message in flight ("
             << parked.size() << " parked";
          if (!parked.empty()) {
            const ParkedRank& p = parked.front();
            ctx = CommContext{.rank = p.rank, .src = p.src, .dst = p.rank}
                      .with_tag(p.tag);
            os << "; first " << ctx;
          }
          os << ")";
          im.error = std::make_exception_ptr(
              ReceiveTimeout(os.str(), ctx, std::move(parked),
                             /*deadlock=*/true));
        }
      }
      // abort() wakes all parked fibers (through wake_all_parked), which
      // then unwind with JobAborted and finish normally.
      net_->abort();
    }
  }
}

void VtRuntime::run(const std::function<void(int)>& job) {
  Impl& im = *impl_;
  CONFLUX_EXPECTS(im.job == nullptr);  // no concurrent / re-entrant runs
  im.job = &job;
  im.error = nullptr;
  im.stop = false;
  im.running = 0;
  im.finished = 0;
  im.ready.clear();
  std::fill(im.clock.begin(), im.clock.end(), 0.0);

  for (auto& cp : impl_->ranks) {
    RankCtx& c = *cp;
    c.phase = RankCtx::Phase::Ready;
    c.parked = false;
    c.wait_src = -1;
    c.wait_tag = 0;
    // Fresh context on the persistent stack for this run.
    CONFLUX_ASSERT(::getcontext(&c.uc) == 0);
    c.uc.uc_stack.ss_sp = c.stack_base;
    c.uc.uc_stack.ss_size = c.stack_bytes;
    c.uc.uc_link = nullptr;
    const auto ptr = reinterpret_cast<std::uintptr_t>(&c);
    ::makecontext(&c.uc, reinterpret_cast<void (*)()>(&VtRuntime::trampoline),
                  2, static_cast<unsigned int>(ptr >> 32),
                  static_cast<unsigned int>(ptr & 0xFFFFFFFFu));
    im.ready.push_back(c.rank);
  }

  // Multiplex the fibers over w host threads. When the ranks can occupy
  // the whole pool, the pool's own threads run the worker loops, and a
  // parallel_for inside a rank (the numeric kernels' GEMM) runs inline by
  // the pool's re-entrancy rule. With fewer workers than pool threads, the
  // calling thread and w - 1 helpers outside the pool run them instead, so
  // each rank's kernels still spread over the idle pool threads, as they
  // would from a rank process. A run started inside a pool task keeps to
  // the calling thread.
  support::ThreadPool& pool = support::global_pool();
  const int w =
      pool.on_worker_thread()
          ? 1
          : std::max(1, static_cast<int>(env_int(
                            "CONFLUX_VT_WORKERS",
                            std::min(pool.size(), nranks_))));
  if (w >= pool.size()) {
    support::parallel_for(0, w, [&](int) { worker_loop(); });
  } else {
    std::vector<std::thread> helpers;
    helpers.reserve(static_cast<std::size_t>(w - 1));
    for (int i = 1; i < w; ++i)
      helpers.emplace_back([this] { worker_loop(); });
    worker_loop();
    for (std::thread& t : helpers) t.join();
  }

  im.job = nullptr;
  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(im.error_mutex);
    error = std::move(im.error);
    im.error = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace conflux::simnet
