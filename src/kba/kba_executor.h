// KBA plan executor with the interleaved parallelization strategy of §7.2
// (module M3). Instead of fetching all data first and computing afterwards,
// extension (∝) nodes interleave data access with computation: the child's
// keyed blocks are re-partitioned by the key distribution of the target KV
// instance (charged as shuffle), each worker issues point gets only for the
// keys it owns, and joins happen where the data lands.
//
// Extensions are fetched in rounds, one round per dependency level. A
// chain of consecutive full (non-stats) extensions is cut into rounds
// bottom-up: an extension joins the open round when every column binding
// its key is a column of the round's input (so its keys are known before
// any block of the round arrives) and it has no more distinct keys in
// that input than the extension that opened the round. The round fetches
// all of its blocks at once — one BaavStore::MultiGetBlocks per worker
// over blocks of several instances, charged to makespan_get,
// makespan_net_seconds and the fan-out overlap once per round — and then
// each extension, the opening one included, emits in plan order from the
// fetched blocks (shuffle charge, alignment checks, compute_values): a
// round changes when blocks arrive, not which rows come back or in what
// order. A selection ends a chain, a stats-only extension is a round of
// its own, and a lone extension is a round of one.
//
// Over-fetch rule: a joined extension's block is fetched even for a key
// whose every row a lower extension of the same round drops (an absent
// block, a failed alignment). The key bound holds for each joined
// extension on its own, so a round of k extensions may read up to k-1
// speculative blocks per block of the opening extension: mot-q1 on an
// absent vehicle reads 2 blocks where one extension at a time reads 1,
// mot-q6 reads 3, and mot-q6 on a vehicle with no mot_test row still
// reads its observation block (3 against 2). A speculative read can reach
// a storage node that one extension at a time never contacts, so an
// unreachable block fails the round only when its extension's emit needs
// it — when some row that survived the lower emits carries its key; the
// dropped block's gets and fault traffic stay metered.
//
// Parallelism: every region — a round's per-worker fetches, its emits,
// selections, projections, join probes, aggregation and instance scans —
// is one chunk body dispatched by ParallelFor (common/thread_pool.h). With
// a KbaExecOptions::pool the chunks run on real threads; without one they
// run in a loop on the calling thread, and `workers` only divides the cost
// model (the per-worker maxima land in QueryMetrics::makespan_*).
// Connection resolves ParallelMode::kThreads to that pool, so the
// executor itself has no mode.
//
// Orthogonally, KbaExecOptions::fanout is the stall schedule each
// worker's batched Cluster::MultiGet runs over the storage nodes it
// touches (storage/cluster.h): kOverlapped (the default) issues every
// touched node's batch before stalling once, to the latest completion, so
// a round over several nodes pays about its slowest batch; kSerial, the
// control arm, keeps one per-node request in flight at a time. Blocks are
// decoded after the fan-out returns under either. The two schedules meter
// identically — only the schedule-shape metrics (net_overlap_ns /
// net_inflight_max), the modeled makespan and the wall clock may differ.
//
// Determinism contract: runs with and without a pool — and both fan-out
// schedules — return byte-identical rows in the same order and identical
// QueryMetrics counters. Rounds are cut from the plan and the round
// input's columns and distinct key counts, none of which depends on the
// pool, the schedule or the worker count, so every run fetches the same
// blocks in the same rounds. Every parallel region gives each chunk its
// own pre-allocated output slot and its own QueryMetrics delta; slots
// merge in chunk order after the join, so no counter or row ever depends
// on thread scheduling. (The one caveat: cache_evictions is
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
  /// The threads that run each region's chunks, beside the calling thread
  /// (workers-1 of them run a region at full width). Null runs every
  /// chunk on the calling thread. Rows and CountersEqual metrics are
  /// invariant.
  ThreadPool* pool = nullptr;
  /// Per-worker stall schedule over the touched storage nodes (see the
  /// header comment). Rows and CountersEqual metrics are invariant.
  FanoutMode fanout = FanoutMode::kOverlapped;
};

class KbaExecutor {
 public:
  explicit KbaExecutor(const BaavStore* store) : store_(store) {}

  /// Executes `plan` over `opts.workers` workers, on `opts.pool` if set.
  Result<KvInst> Execute(const KbaPlan& plan, const KbaExecOptions& opts,
                         QueryMetrics* m) const;

 private:
  /// `ctx` is the caller's options with workers >= 1.
  Result<KvInst> Eval(const KbaPlan& plan, const KbaExecOptions& ctx,
                      QueryMetrics* m) const;
  /// Evaluates the chain of consecutive extensions ending at `top`, cut
  /// into fetch rounds (see the header comment).
  Result<KvInst> EvalExtends(const KbaPlan& top, const KbaExecOptions& ctx,
                             QueryMetrics* m) const;
  /// One fetch round over `in`: opens at chain[*next] (bottom first),
  /// takes the following extensions that may join (see the header
  /// comment), fetches all their blocks in one batched request per worker,
  /// then runs each extension's emit in plan order. Advances `*next` past
  /// the round.
  Result<KvInst> EvalRound(const std::vector<const KbaPlan*>& chain,
                           size_t* next, KvInst in, const KbaExecOptions& ctx,
                           QueryMetrics* m) const;

  const BaavStore* store_;
};

/// Suffixes of the partial-statistics columns a stats-only extension emits
/// and a stats-pushdown GroupAgg folds (GroupAggregate's partial states).
inline constexpr std::string_view kStatsRowsCol = "#rows";
inline constexpr std::string_view kStatsSumSuffix = "#sum";
inline constexpr std::string_view kStatsCountSuffix = "#count";
inline constexpr std::string_view kStatsMinSuffix = "#min";
inline constexpr std::string_view kStatsMaxSuffix = "#max";

}  // namespace zidian

#endif  // ZIDIAN_KBA_KBA_EXECUTOR_H_
