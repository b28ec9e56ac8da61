// KBA plan executor with the interleaved parallelization strategy of §7.2
// (module M3). Instead of fetching all data first and computing afterwards,
// extension (∝) nodes interleave data access with computation: the child's
// keyed blocks are re-partitioned by the key distribution of the target KV
// instance (charged as shuffle), each worker issues point gets only for the
// keys it owns, and joins happen where the data lands.
//
// Parallelism runs in one of two modes (common/thread_pool.h):
//  * kSimulated — one thread; `workers` only divides the cost model. The
//    per-worker maxima land in QueryMetrics::makespan_* exactly as before.
//  * kThreads — `workers` real threads on a ThreadPool. Each extension
//    issues its per-worker batched MultiGets concurrently, and selections
//    / projections / join probes run chunk-per-worker (ra/eval.h parallel
//    variants).
//
// Orthogonally, KbaExecOptions::fanout is the stall schedule each
// worker's batched Cluster::MultiGet runs over the storage nodes it
// touches (storage/cluster.h): kSerial keeps one per-node request in
// flight at a time, kOverlapped issues every touched node's batch before
// stalling once, to the latest completion; blocks are decoded after the
// fan-out returns under either. The two schedules meter identically —
// only the schedule-shape metrics (net_overlap_ns / net_inflight_max),
// the modeled makespan and the wall clock may differ.
//
// Determinism contract: both modes — and both fan-out schedules — return
// byte-identical rows in the same order and identical QueryMetrics
// counters. Every parallel region gives
// each worker its own pre-allocated output slot and its own QueryMetrics
// delta; slots merge in worker order after the join, so no counter or row
// ever depends on thread scheduling. (The one caveat: cache_evictions is
// scheduling-dependent when the run itself evicts, because concurrent
// fills can reorder LRU residency — size the cache above the working set
// when asserting exact equality.) Wall-clock lands in wall_seconds /
// wall_fetch_seconds / wall_compute_seconds next to the simulated
// makespans, so measured time can validate SimSeconds.
#ifndef ZIDIAN_KBA_KBA_EXECUTOR_H_
#define ZIDIAN_KBA_KBA_EXECUTOR_H_

#include "baav/baav_store.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "kba/kba_plan.h"

namespace zidian {

struct KbaExecOptions {
  int workers = 1;
  ParallelMode parallel_mode = ParallelMode::kSimulated;
  /// Optional externally-owned pool for kThreads (e.g. shared across
  /// executions). When null, Execute spins up a per-call pool of
  /// workers-1 threads (the calling thread is worker 0's peer).
  ThreadPool* pool = nullptr;
  /// Per-worker stall schedule over the touched storage nodes (see the
  /// header comment). Rows and CountersEqual metrics are invariant.
  FanoutMode fanout = FanoutMode::kSerial;
};

class KbaExecutor {
 public:
  explicit KbaExecutor(const BaavStore* store) : store_(store) {}

  /// Executes `plan` under the given worker count and parallel mode.
  Result<KvInst> Execute(const KbaPlan& plan, const KbaExecOptions& opts,
                         QueryMetrics* m) const;

 private:
  /// Per-execution state threaded through Eval: pool is non-null only in
  /// kThreads mode with workers > 1.
  struct ExecCtx {
    int workers = 1;
    ThreadPool* pool = nullptr;
    FanoutMode fanout = FanoutMode::kSerial;
  };

  Result<KvInst> Eval(const KbaPlan& plan, const ExecCtx& ctx,
                      QueryMetrics* m) const;
  Result<KvInst> EvalExtend(const KbaPlan& plan, const ExecCtx& ctx,
                            QueryMetrics* m) const;
  /// Combines per-block partial statistics into the final groups. Folds
  /// chunk-per-worker on ctx.pool (the stats-pushdown path threads like
  /// every other region; groups emit in first-appearance order).
  Result<KvInst> EvalGroupAggFromStats(const KbaPlan& plan, const KvInst& in,
                                       const ExecCtx& ctx,
                                       QueryMetrics* m) const;

  const BaavStore* store_;
};

/// Suffixes of the partial-statistics columns a stats-only extension emits.
inline constexpr std::string_view kStatsRowsCol = "#rows";
inline constexpr std::string_view kStatsSumSuffix = "#sum";
inline constexpr std::string_view kStatsCountSuffix = "#count";
inline constexpr std::string_view kStatsMinSuffix = "#min";
inline constexpr std::string_view kStatsMaxSuffix = "#max";

}  // namespace zidian

#endif  // ZIDIAN_KBA_KBA_EXECUTOR_H_
