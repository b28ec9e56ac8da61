#include "zidian/connection.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>

#include "kba/kba_executor.h"
#include "kba/makespan.h"
#include "ra/eval.h"

namespace zidian {

namespace {

/// The cluster configuration an AnswerInfo reports: the BlockCache and,
/// when one is attached, the network, its fault schedule and the
/// replication policy.
void DescribeCluster(const Cluster& cluster, AnswerInfo* info) {
  info->cache_enabled = cluster.cache_enabled();
  info->cache_capacity_bytes = cluster.cache_capacity_bytes();
  if (const NetworkModel* net = cluster.network()) {
    info->network_enabled = true;
    info->network_text = net->ToString();
    info->fault_text = net->FaultText();
    info->replication_text = cluster.recovery().ToString();
  }
}

}  // namespace

ThreadPool* SharedPoolState::GetOrCreate(int num_threads) {
  MutexLock lock(mu_);
  if (pool_ == nullptr || pool_->num_threads() < num_threads) {
    // Growth retires the old pool instead of destroying it: destruction
    // joins the pool's threads, and a concurrent Execute on another
    // session may still be mid-ParallelFor on that pointer. The common
    // case (a fixed workers count per session) never re-enters.
    if (pool_ != nullptr) retired_.push_back(std::move(pool_));
    pool_ = std::make_unique<ThreadPool>(num_threads);
  }
  return pool_.get();
}

Status PreparedQuery::Plan() {
  // M1: can the query be answered on the BaaV store at all?
  ZIDIAN_ASSIGN_OR_RETURN(
      PreservationReport preserve,
      CheckResultPreserving(spec_, zidian_->catalog(),
                            zidian_->store().schema()));
  preserving_ = preserve.preserving;
  preserve_detail_ = preserve.detail;
  last_info_ = AnswerInfo{};
  last_info_.result_preserving = preserving_;
  DescribeCluster(zidian_->cluster(), &last_info_);
  if (!preserving_) {
    last_info_.route = AnswerInfo::Route::kTaavFallback;
    last_info_.detail = preserve_detail_;
    return Status::OK();
  }

  // M2: plan generation (scan-free / bounded when the query is).
  ZIDIAN_ASSIGN_OR_RETURN(
      PlannedQuery planned,
      GenerateKbaPlan(spec_, zidian_->catalog(), zidian_->store(),
                      zidian_->options().planner));
  plan_text_ = planned.plan->ToString();
  last_info_.scan_free = planned.scan_free;
  last_info_.bounded = planned.bounded;
  last_info_.stats_pushdown = planned.stats_pushdown;
  last_info_.plan_text = plan_text_;
  last_info_.route = planned.scan_free ? AnswerInfo::Route::kKbaScanFree
                                       : AnswerInfo::Route::kKbaWithScans;
  planned_ = std::move(planned);
  return Status::OK();
}

Result<Relation> PreparedQuery::Execute(const ExecOptions& opts,
                                        AnswerInfo* info) {
  AnswerInfo local;
  AnswerInfo* out = info != nullptr ? info : &local;
  *out = AnswerInfo{};
  out->result_preserving = preserving_;
  int workers = std::max(1, opts.workers);

  if (opts.route_policy == RoutePolicy::kForceKba && !preserving_) {
    return Status::InvalidArgument("query is not result preserving: " +
                                   preserve_detail_);
  }
  bool use_baseline =
      opts.route_policy == RoutePolicy::kForceBaseline || !preserving_;

  // Scope the cache bypass to this execution; the previous cluster state
  // is restored on every exit path. The flag is only touched when this
  // run actually changes it: concurrent sessions executing with default
  // options must not write shared cluster state at all (bypass_cache
  // itself stays a single-session experiment knob — the flag it toggles
  // is cluster-global and would leak into concurrent queries).
  Cluster& cluster = zidian_->cluster();
  struct BypassScope {
    Cluster* cluster;
    bool previous;
    bool changed;
    ~BypassScope() {
      if (changed) cluster->SetCacheBypass(previous);
    }
  } bypass_scope{&cluster, cluster.cache_bypassed(),
                 opts.bypass_cache != cluster.cache_bypassed()};
  if (bypass_scope.changed) cluster.SetCacheBypass(opts.bypass_cache);
  DescribeCluster(cluster, out);
  out->cache_bypassed = opts.bypass_cache;

  // Resolve the mode to a pool once, for whichever route runs: the
  // executors take the pool, not the mode. kThreads at workers <= 1 is the
  // simulated path by construction (one worker on the calling thread), so
  // the *effective* mode is what Explain() reports.
  const bool threaded =
      opts.parallel_mode == ParallelMode::kThreads && workers > 1;
  out->parallel_mode =
      threaded ? ParallelMode::kThreads : ParallelMode::kSimulated;
  ThreadPool* pool = nullptr;
  if (threaded) {
    if (opts.pool != nullptr) {
      pool = opts.pool;
    } else {
      pool = pool_state_->GetOrCreate(workers - 1);
      out->used_shared_pool = true;
    }
  }

  // The prepared plan's shape survives in the info even when this run is
  // forced down the baseline, so Explain() keeps describing the plan.
  if (preserving_) {
    out->scan_free = planned_->scan_free;
    out->bounded = planned_->bounded;
    out->stats_pushdown = planned_->stats_pushdown;
    out->plan_text = plan_text_;
  }

  Result<Relation> result = Relation();
  auto start = std::chrono::steady_clock::now();
  if (use_baseline) {
    out->route = AnswerInfo::Route::kTaavFallback;
    out->detail = preserving_ ? "route policy forced the TaaV baseline"
                              : preserve_detail_;
  } else {
    out->route = planned_->scan_free ? AnswerInfo::Route::kKbaScanFree
                                     : AnswerInfo::Route::kKbaWithScans;
  }
  // Reads stay atomic across their stalls: an attempt whose storage reads
  // ran under two commit epochs may mix two states of the store, so its
  // rows, status and counters are discarded and the query runs again, at
  // most kMaxReadRestarts times. A query with one storage access never
  // restarts.
  uint64_t restarts = 0;
  for (;; ++restarts) {
    out->metrics = QueryMetrics{};
    if (use_baseline) {
      TaavExecutor baseline(&zidian_->catalog(), &cluster);
      result = baseline.Execute(
          spec_,
          TaavExecOptions{
              .workers = workers, .pool = pool, .fanout = opts.fanout},
          &out->metrics);
    } else {
      result = ExecuteKba(workers, pool, opts.fanout, out);
    }
    if (out->metrics.read_epoch_lo == out->metrics.read_epoch_hi) break;
    if (restarts == kMaxReadRestarts) {
      result = Status::Unavailable(
          "read kept straddling commits: " +
          std::to_string(restarts + 1) + " attempts torn");
      break;
    }
  }
  out->metrics.read_restarts = restarts;
  out->metrics.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (!result.ok()) {
    // Graceful degradation: a query whose retries are exhausted (or that
    // failed anywhere else mid-execution) fails cleanly with a structured
    // error. The AnswerInfo still carries everything metered up to the
    // failure, plus the failure itself — the serving layer merges these
    // so failed_queries and the net_* fault counters stay visible.
    out->metrics.failed_queries += 1;
    out->detail = result.status().ToString();
  }
  last_info_ = *out;
  return result;
}

Result<Relation> PreparedQuery::ExecuteKba(int workers, ThreadPool* pool,
                                           FanoutMode fanout,
                                           AnswerInfo* out) {
  // M3: interleaved parallel execution.
  KbaExecutor executor(&zidian_->store());
  ZIDIAN_ASSIGN_OR_RETURN(
      KvInst chain,
      executor.Execute(
          *planned_->plan,
          KbaExecOptions{.workers = workers, .pool = pool, .fanout = fanout},
          &out->metrics));

  Relation result;
  if (planned_->stats_pushdown) {
    // The plan already aggregated from block statistics.
    result = std::move(chain.rel);
    ZIDIAN_RETURN_NOT_OK(OrderAndLimit(planned_->exec_spec.order_by,
                                       planned_->exec_spec.limit, &result));
  } else {
    ZIDIAN_ASSIGN_OR_RETURN(
        result, FinishQuery(chain.rel, planned_->exec_spec, &out->metrics,
                            pool, workers));
  }

  // Refresh per-worker makespans with the post-aggregation compute counts,
  // through the same helper the executor uses — the simulated and
  // threaded paths share one makespan arithmetic by construction.
  SpreadMakespans(workers, &out->metrics);
  return result;
}

Result<PreparedQuery> Connection::Prepare(const std::string& sql) {
  ZIDIAN_ASSIGN_OR_RETURN(QuerySpec spec,
                          ParseAndBind(sql, zidian_->catalog()));
  return PrepareSpec(spec);
}

Result<PreparedQuery> Connection::PrepareSpec(const QuerySpec& spec) {
  PreparedQuery q(zidian_, spec);
  q.pool_state_ = pool_state_;  // outlives the Connection if need be
  ZIDIAN_RETURN_NOT_OK(q.Plan());
  return q;
}

Result<Relation> Connection::Execute(const std::string& sql,
                                     const ExecOptions& opts,
                                     AnswerInfo* info) {
  ZIDIAN_ASSIGN_OR_RETURN(PreparedQuery q, Prepare(sql));
  return q.Execute(opts, info);
}

}  // namespace zidian
