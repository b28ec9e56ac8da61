// The session-oriented facade: what a downstream application programs
// against once it holds a Zidian middleware instance.
//
//   Connection conn = zidian.Connect();
//   ZIDIAN_ASSIGN_OR_RETURN(PreparedQuery q, conn.Prepare(sql));
//   q.Explain();                                  // route + plan, no I/O
//   auto r1 = q.Execute({.workers = 8});          // run
//   auto r2 = q.Execute({.workers = 8});          // ...and run again
//   auto rb = q.Execute({.workers = 8,
//                        .route_policy = RoutePolicy::kForceBaseline});
//
// Prepare() performs the per-query one-time work — parse, bind, the module
// M1 preservation check, and (when the query is answerable on the BaaV
// store) the module M2 plan generation. Execute() only runs module M3, so
// repeated executions never re-plan. The plan reflects the store's degree
// statistics at Prepare() time: after bulk loads or heavy maintenance,
// re-Prepare to pick boundedness decisions back up.
//
// When the cluster carries a BlockCache, repeated Execute() of the same
// PreparedQuery is the cache's home workload: the second run serves its
// block fetches from the cache (cache_hits in the metrics, fewer
// get_round_trips) with byte-identical results. ExecOptions::bypass_cache
// forces a cold run — the "without cache" arm of an experiment.
//
// ExecOptions::parallel_mode picks how `workers` executes — on BOTH
// routes: kSimulated (default — one thread, workers divides the cost
// model, the historical behavior) or kThreads (workers real threads).
// Execute resolves the mode to a pool and hands the executors only that
// pool: every data-parallel region (the extension fan-out, instance
// scans, σ/π/⋈-probe and GroupAggregate on the KBA route; the per-tuple
// get scan, filters, join probes and aggregation of the TaaV baseline) is
// one chunk body that runs on the pool, or in a loop on the calling
// thread without one. Both modes therefore return byte-identical rows and
// identical QueryMetrics counters; kThreads's wall_seconds (and the
// per-phase wall timings) measure real threads, so SimSeconds predictions
// can be validated against the clock.
//
// Threads come from an ExecOptions::pool the caller owns or, by default,
// from the Connection's lazily created shared pool: repeated Execute()s
// and every PreparedQuery prepared on the same Connection reuse one set
// of threads, so high-QPS serving does not pay thread startup per query.
// AnswerInfo reports the *effective* parallel_mode (kThreads requested
// with workers <= 1 executes — and reports — kSimulated) and whether the
// shared pool served the run (used_shared_pool).
//
// Concurrency: distinct Connections (and their PreparedQueries) may
// Execute concurrently against one shared Zidian/Cluster, and beside
// commits — the multi-session serving contract (serve/server.h,
// docs/ARCHITECTURE.md "Serving layer"). Each Execute meters into its
// own AnswerInfo, and an Execute with default options writes no shared
// cluster state. An attempt whose storage reads straddled a commit runs
// again, so an answer never mixes two states of the store. A single
// PreparedQuery object, however, is a session-local handle: it caches
// last_info_ unsynchronized, so share the Zidian, not the PreparedQuery.
// ExecOptions::bypass_cache remains a single-session experiment knob —
// it toggles a cluster-global flag that would leak into concurrently
// running queries.
//
// Pricing a run is the caller's step: SimSeconds(info.metrics, profile)
// (storage/backend.h) turns its metrics into simulated seconds.
#ifndef ZIDIAN_ZIDIAN_CONNECTION_H_
#define ZIDIAN_ZIDIAN_CONNECTION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "zidian/zidian.h"

namespace zidian {

/// How Execute() routes the query.
enum class RoutePolicy {
  kAuto,           ///< KBA when result preserving, TaaV baseline otherwise
  kForceBaseline,  ///< always the SQL-over-NoSQL baseline ("without Zidian")
  kForceKba,       ///< KBA or error — never silently fall back
};

struct ExecOptions {
  int workers = 1;
  RoutePolicy route_policy = RoutePolicy::kAuto;
  /// Run with the cluster's BlockCache neither consulted nor filled (the
  /// cache stays attached and coherent; Put/Delete still invalidate).
  /// All cache_* counters of the run stay zero.
  bool bypass_cache = false;
  /// kSimulated: one thread, `workers` only divides the cost model.
  /// kThreads: `workers` real threads on either route — identical rows
  /// and counters, measured wall-clock in the metrics.
  ParallelMode parallel_mode = ParallelMode::kSimulated;
  /// Externally-owned pool override for kThreads. When null (the
  /// default), Execute uses the Connection's shared pool, creating it on
  /// first use and growing it to workers-1 threads as needed.
  ThreadPool* pool = nullptr;
  /// Per-worker stall schedule over the storage nodes, on BOTH routes —
  /// the one parameter of each worker's read fan-out (Cluster::MultiGet
  /// per KBA fetch round, the per-tuple gets of the TaaV scan).
  /// kOverlapped (default) issues every touched node's requests before
  /// stalling once, so a KBA round pays about its slowest node; kSerial,
  /// the control arm, keeps one per-node request in flight at a time.
  /// Rows and CountersEqual metrics are invariant — only the
  /// schedule-shape metrics (net_overlap_ns / net_inflight_max), the
  /// modeled makespan and the wall clock move.
  FanoutMode fanout = FanoutMode::kOverlapped;
};

/// The lazily created ThreadPool one Connection shares across every
/// Execute of every PreparedQuery it prepared (copies of the Connection
/// share it too). Thread-safe creation and growth: growth installs a
/// larger pool but RETIRES the previous one instead of destroying it, so
/// a pointer handed to an Execute that is still in flight on another
/// thread stays valid for the life of the SharedPoolState. Concurrent
/// Executes on one connection (or its copies) are therefore safe even
/// while another session raises `workers`; the retired pools are bounded
/// by the number of distinct growth steps (monotonic sizes), not by the
/// number of executions.
class SharedPoolState {
 public:
  /// Returns a pool with at least `num_threads` threads, creating or
  /// growing as needed. The pointer stays valid until this
  /// SharedPoolState is destroyed (growth retires, never destroys).
  ThreadPool* GetOrCreate(int num_threads) EXCLUDES(mu_);

 private:
  Mutex mu_;
  std::unique_ptr<ThreadPool> pool_ GUARDED_BY(mu_);
  /// Pools superseded by growth, kept alive for in-flight Executes that
  /// still hold their pointer. Destroying a ThreadPool joins its threads,
  /// so dropping one here while a concurrent ParallelFor runs on it would
  /// be a use-after-free — the single-query facade never hit this, but
  /// multi-session serving does (tests/test_serve_concurrent.cc).
  std::vector<std::unique_ptr<ThreadPool>> retired_ GUARDED_BY(mu_);
};

/// A parsed, bound, routed and planned query, ready to run many times.
class PreparedQuery {
 public:
  /// Runs module M3 (or the baseline executor, per the route policy).
  /// Metering: fills `info->metrics` (and Explain()) with this run's
  /// counters — storage traffic (get_calls / get_round_trips / bytes),
  /// cache interaction (cache_hits / cache_misses / cache_evictions /
  /// bytes_from_cache; all zero when the cache is off or bypassed), and
  /// the per-worker makespan components. An attempt whose storage reads
  /// straddled a commit (read_epoch_lo != read_epoch_hi) runs again: the
  /// answer, its status and its Compared counters are the last
  /// attempt's, wall_seconds covers every attempt and read_restarts
  /// counts the reruns. After kMaxReadRestarts restarts, a read
  /// whose last attempt straddled a commit too fails with kUnavailable,
  /// which a caller may retry: a steady stream of commits never holds a
  /// read whose stalls outlast the gap between them forever.
  Result<Relation> Execute(const ExecOptions& opts = {},
                           AnswerInfo* info = nullptr);
  static constexpr uint64_t kMaxReadRestarts = 16;

  /// Route, flags, cache configuration and plan text — before the first
  /// Execute() with empty metrics, afterwards with the metrics of the
  /// latest execution. Never performs I/O or touches any meter itself.
  const AnswerInfo& Explain() const { return last_info_; }

  const QuerySpec& spec() const { return spec_; }
  /// Whether the KBA route is available (Condition II verdict).
  bool result_preserving() const { return preserving_; }

 private:
  friend class Connection;
  PreparedQuery(Zidian* zidian, QuerySpec spec)
      : zidian_(zidian), spec_(std::move(spec)) {}

  /// One-time M1 (preservation) + M2 (plan generation).
  Status Plan();
  /// M3 + query finishing for the KBA route. `pool` is non-null only for
  /// an effective kThreads run.
  Result<Relation> ExecuteKba(int workers, ThreadPool* pool, FanoutMode fanout,
                              AnswerInfo* out);

  Zidian* zidian_;
  QuerySpec spec_;
  bool preserving_ = false;
  std::string preserve_detail_;
  std::optional<PlannedQuery> planned_;  // engaged iff preserving
  std::string plan_text_;                // rendered once at Prepare time
  /// The owning Connection's shared pool (never null), kept alive past the
  /// Connection itself so a PreparedQuery outliving its session stays safe.
  std::shared_ptr<SharedPoolState> pool_state_;
  AnswerInfo last_info_;
};

/// A lightweight session handle on one Zidian instance.
class Connection {
 public:
  /// Parse, bind, route and plan once; Execute() the result many times.
  /// Prepare itself is meter-free: it reads schemas and degree statistics,
  /// never tuple data, and records nothing into any QueryMetrics.
  Result<PreparedQuery> Prepare(const std::string& sql);
  Result<PreparedQuery> PrepareSpec(const QuerySpec& spec);

  /// One-shot convenience: Prepare + a single Execute. Meters exactly like
  /// that Execute; the BlockCache is shared cluster state, so a one-shot
  /// both benefits from and warms it across calls.
  Result<Relation> Execute(const std::string& sql,
                           const ExecOptions& opts = {},
                           AnswerInfo* info = nullptr);

  Zidian& zidian() { return *zidian_; }

  /// The session-shared thread pool state (lazily populated on the first
  /// effective-kThreads Execute). Exposed for diagnostics/tests.
  const std::shared_ptr<SharedPoolState>& pool_state() const {
    return pool_state_;
  }

 private:
  friend class Zidian;
  explicit Connection(Zidian* zidian)
      : zidian_(zidian), pool_state_(std::make_shared<SharedPoolState>()) {}

  Zidian* zidian_;
  std::shared_ptr<SharedPoolState> pool_state_;
};

}  // namespace zidian

#endif  // ZIDIAN_ZIDIAN_CONNECTION_H_
