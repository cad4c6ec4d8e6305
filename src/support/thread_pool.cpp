#include "support/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "support/env.hpp"

namespace conflux::support {

namespace {
// Set while a thread is executing inside ThreadPool::worker_loop, or is the
// submitter running chunk 0 of a parallel_for; used to run nested
// parallel_for calls inline instead of deadlocking on busy workers.
thread_local const ThreadPool* g_current_pool = nullptr;

int default_pool_size() {
  // Clamp before narrowing: an absurd 64-bit CONFLUX_THREADS must not
  // truncate into a zero/negative pool size.
  constexpr std::int64_t kMaxThreads = 1024;
  const std::int64_t env = env_int("CONFLUX_THREADS", 0);
  if (env > 0) return static_cast<int>(std::min(env, kMaxThreads));
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}
}  // namespace

ThreadPool::ThreadPool(int threads) {
  size_ = threads > 0 ? threads : default_pool_size();
  workers_.reserve(static_cast<std::size_t>(size_ - 1));
  // size_ - 1 workers: the submitting thread always participates, so a pool
  // of size 1 runs everything inline with zero thread overhead.
  for (int i = 0; i < size_ - 1; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const { return g_current_pool == this; }

void ThreadPool::worker_loop() {
  g_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(int begin, int end,
                              const std::function<void(int)>& body) {
  const int count = end - begin;
  if (count <= 0) return;
  // Inline when there is nothing to parallelize over, or when called from a
  // worker (nested parallelism would deadlock a fixed pool).
  if (size_ == 1 || count == 1 || on_worker_thread()) {
    for (int i = begin; i < end; ++i) body(i);
    return;
  }

  const int chunks = std::min(size_, count);
  // `shared` lives on this stack frame and is destroyed when parallel_for
  // returns, so `remaining` may only reach 0 — and be observed at 0 — while
  // done_mutex is held: a worker that decremented outside the lock could
  // still be about to touch the mutex/cv after the waiter has already woken,
  // returned, and destroyed them.
  struct Shared {
    int remaining;  ///< guarded by done_mutex
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::exception_ptr error;
  } shared;
  shared.remaining = chunks;

  auto run_chunk = [&body, &shared, begin, end, chunks](int c) {
    const int count_total = end - begin;
    const int lo = begin + static_cast<int>(
                               static_cast<long long>(count_total) * c / chunks);
    const int hi = begin + static_cast<int>(static_cast<long long>(count_total) *
                                            (c + 1) / chunks);
    std::exception_ptr error;
    try {
      for (int i = lo; i < hi; ++i) body(i);
    } catch (...) {
      error = std::current_exception();
    }
    const std::lock_guard lock(shared.done_mutex);
    if (error && !shared.error) shared.error = error;
    if (--shared.remaining == 0) shared.done_cv.notify_all();
    // No access to `shared` past this point: once the lock is released the
    // waiter may destroy it.
  };

  {
    const std::lock_guard lock(mutex_);
    for (int c = 1; c < chunks; ++c)
      queue_.emplace_back([run_chunk, c] { run_chunk(c); });
  }
  cv_.notify_all();
  // The submitting thread takes the first chunk, marked as a pool thread
  // while it does: a nested parallel_for inside it (e.g. a GEMM in a fiber
  // that a rank scheduler's worker loop resumes here) must run inline, since
  // the workers may all be busy in this very parallel_for's chunks.
  const ThreadPool* const outer = g_current_pool;
  g_current_pool = this;
  run_chunk(0);
  g_current_pool = outer;

  std::unique_lock lock(shared.done_mutex);
  shared.done_cv.wait(lock, [&shared] { return shared.remaining == 0; });
  if (shared.error) std::rethrow_exception(shared.error);
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(int begin, int end, const std::function<void(int)>& body) {
  global_pool().parallel_for(begin, end, body);
}

}  // namespace conflux::support
