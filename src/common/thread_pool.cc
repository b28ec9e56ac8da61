#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace zidian {

ThreadPool::ThreadPool(int num_threads) {
  threads_.reserve(static_cast<size_t>(std::max(0, num_threads)));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (threads_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared per-call state lives on this stack frame; safe because the call
  // only returns after every helper task has exited (not merely after all
  // indices completed — a helper between its last claim and its exit must
  // not outlive these locals). `exited` is guarded by `mu`, not atomic:
  // the caller's wait predicate must not be able to observe the final
  // count while the finishing helper still has `mu`/`done` accesses ahead
  // of it, or the State could be destroyed under that helper.
  struct State {
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    Mutex mu;
    CondVar done;
    size_t exited GUARDED_BY(mu) = 0;
    std::exception_ptr first_error GUARDED_BY(mu);
  } state;

  // Every worker keeps claiming indices until the range is exhausted (the
  // drain the join depends on), but after a throw the remaining indices
  // are skipped: the batch is already doomed, and a helper must never let
  // an exception escape into WorkerLoop (that would std::terminate the
  // thread and wedge the pool).
  auto drain = [&state, &fn, n] {
    size_t i;
    while ((i = state.next.fetch_add(1, std::memory_order_relaxed)) < n) {
      if (state.failed.load(std::memory_order_relaxed)) continue;
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(state.mu);
        if (!state.first_error) state.first_error = std::current_exception();
        state.failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  size_t helpers = std::min(threads_.size(), n - 1);
  for (size_t h = 0; h < helpers; ++h) {
    Submit([&state, &drain, helpers] {
      drain();
      MutexLock lock(state.mu);
      if (++state.exited == helpers) state.done.NotifyOne();
    });
  }
  drain();
  // The join point: every helper has exited, so rethrowing cannot leave a
  // task still touching this frame's state. The error is copied out under
  // the lock — the rethrow itself must not run with mu held.
  std::exception_ptr first_error;
  {
    MutexLock lock(state.mu);
    while (state.exited != helpers) state.done.Wait(state.mu);
    first_error = state.first_error;
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
    return;
  }
  for (size_t i = 0; i < n; ++i) fn(i);
}

}  // namespace zidian
