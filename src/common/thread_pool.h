// A small fixed-size thread pool for data-parallel query execution, and
// ParallelFor(pool, n, fn), the one dispatch of every data-parallel region
// in src/. A region is one chunk body run for chunks 0..n-1: on the pool
// plus the calling thread, or in a loop on the calling thread when the
// pool is null. The parallel modes differ only in that pointer, so they
// cannot differ in rows or counters. The calling thread participates, so
// a pool of p-1 threads executes a p-chunk region at full width.
//
// Fallible work should record a Status into its own slot (the codebase is
// exception-free by convention), but a task that does throw — bad_alloc,
// third-party code — must not take the pool down: ThreadPool::ParallelFor
// captures the first exception of the batch, drains the remaining indices
// without running them, and rethrows at the join point, leaving the pool
// threads alive and reusable.
//
// Indices are claimed from a shared atomic counter, every chunk writes
// only its own pre-allocated output slot, and the call does not return
// until every submitted helper has exited — so stack-allocated per-call
// state is safe and the join is a full happens-before barrier (the merge
// that follows reads every slot race-free).
#ifndef ZIDIAN_COMMON_THREAD_POOL_H_
#define ZIDIAN_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace zidian {

/// Contiguous chunk [begin, end) of `n` items for chunk `w` of `p`.
/// THE chunk partition of the codebase: every data-parallel stage (scan,
/// filter, probe, aggregate) splits with this formula. Where a floating
/// sum associates by chunk (GroupAggregate), `p` is `workers` alone, so
/// every mode and pool reproduces the same sums.
inline std::pair<size_t, size_t> ChunkRange(size_t n, size_t w, size_t p) {
  return {n * w / p, n * (w + 1) / p};
}

/// How a query maps `workers` onto execution resources: the user-facing
/// control arm (ExecOptions / AnswerInfo). The executors never see it;
/// Connection resolves kThreads to a non-null pool.
enum class ParallelMode {
  kSimulated,  ///< one thread; `workers` only divides the cost model
               ///< (per-worker makespan accounting, the seed behavior)
  kThreads,    ///< `workers` real threads; per-worker tasks run
               ///< concurrently and wall-clock can validate the makespan
};

class ThreadPool {
 public:
  /// Starts `num_threads` workers (0 is valid: ParallelFor then runs
  /// entirely on the calling thread).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Runs fn(0) .. fn(n-1), each at most once, across the pool plus the
  /// calling thread; code in src/ calls the free ParallelFor below.
  /// Blocks until every started call has returned.
  /// Concurrent calls of fn must only touch disjoint state (the
  /// per-worker-slot discipline). If any fn throws, the first captured
  /// exception is rethrown here after the batch drains; indices claimed
  /// after the capture are skipped, and the pool stays usable.
  /// EXCLUDES(mu_): calling this while holding the queue mutex (i.e. from
  /// inside pool-internal code) would deadlock against Submit.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn)
      EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  /// Written only by the constructor; joined by the destructor. Never
  /// mutated while a ParallelFor can run, so reads need no lock.
  std::vector<std::thread> threads_;
};

/// Runs fn(0) .. fn(n-1): on `pool` plus the calling thread, or in order
/// on the calling thread when `pool` is null. The one dispatch of src/
/// (tools/lint_invariants.py, check `dispatch`).
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace zidian

#endif  // ZIDIAN_COMMON_THREAD_POOL_H_
