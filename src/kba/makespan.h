// The single source of truth for the §7.2 makespan arithmetic, shared by
// the simulated and threaded execution paths (and by the facade's
// post-aggregation refresh) so the two modes cannot drift: both charge
// shuffles, classify storage-reaching gets, and spread totals over p
// workers through exactly these helpers.
#ifndef ZIDIAN_KBA_MAKESPAN_H_
#define ZIDIAN_KBA_MAKESPAN_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/thread_annotations.h"

namespace zidian {

/// Phantom capability standing for "a ParallelFor batch is still in
/// flight on the executing pool". Nothing on the merge path ever holds
/// it — ParallelFor's join (common/thread_pool.h) IS the release — so the
/// REQUIRES(!pool_busy) contracts below state, in the compiler's
/// vocabulary instead of a comment, that the per-worker merge helpers
/// may only run strictly after the join: while workers are live, the
/// per-worker QueryMetrics slots they read are still being written.
/// A worker-side function annotated REQUIRES(pool_busy) could never
/// call them (clang rejects the call with -Wthread-safety), which is
/// exactly the "merge only after join" rule of the determinism
/// contract (docs/ARCHITECTURE.md).
class CAPABILITY("pool_busy") PoolBusyCapability {};
inline PoolBusyCapability pool_busy;

/// Gets of `m` that actually reached a storage node. BlockCache hits —
/// positive and negative — are middleware-local memory and carry no
/// per-get latency, so they never enter makespan_get.
inline uint64_t StorageGets(const QueryMetrics& m) {
  return m.get_calls - m.cache_hits - m.cache_negative_hits;
}

/// Charges a hash-repartition of `bytes` across p workers: each worker
/// keeps 1/p of the data locally and ships the rest.
inline void ChargeShuffleBytes(size_t bytes, int workers, QueryMetrics* m) {
  if (m == nullptr || workers <= 1) return;
  double remote = static_cast<double>(workers - 1) / workers;
  m->shuffle_bytes += static_cast<uint64_t>(bytes * remote);
}

/// The makespan_get contribution of one fetch round: the slowest worker's
/// storage-reaching gets (Theorem 8's per-worker maximum). `per_worker`
/// holds each worker's metric delta for the round.
inline double MaxWorkerStorageGets(const std::vector<QueryMetrics>& per_worker)
    REQUIRES(!pool_busy) {
  uint64_t worst = 0;
  for (const auto& w : per_worker) worst = std::max(worst, StorageGets(w));
  return static_cast<double>(worst);
}

/// The makespan_net_seconds contribution of one fetch round: the slowest
/// worker's modeled network time. Deterministic because net_service_ns is
/// integer nanoseconds summed per worker.
inline double MaxWorkerNetSeconds(const std::vector<QueryMetrics>& per_worker)
    REQUIRES(!pool_busy) {
  uint64_t worst = 0;
  for (const auto& w : per_worker) worst = std::max(worst, w.net_service_ns);
  return static_cast<double>(worst) / 1e9;
}

/// Folds one parallel region's per-worker fan-out overlap into the
/// query-level schedule-shape metrics, next to the makespan merge. The
/// region's modeled network leg is MaxWorkerNetSeconds — the slowest
/// worker under the SERIAL stall schedule — so the time the overlapped
/// fan-out hid is the difference between that and the slowest worker
/// with its own overlap subtracted: max_w(service_w) minus
/// max_w(service_w - overlap_w). (Subtracting overlaps before the max
/// matters: the bottleneck worker after overlapping need not be the
/// serial bottleneck.) Workers' FanoutStats are pure functions of their
/// partitions, so this charge is bit-identical across kSimulated /
/// kThreads; per-worker QueryMetrics deltas never carry the fields —
/// they are query-level schedule shape, set only here and by the TaaV
/// merge. All-serial regions (every overlap 0) charge exactly 0.
inline void ChargeFanoutOverlap(const std::vector<QueryMetrics>& per_worker,
                                const std::vector<FanoutStats>& fanout,
                                QueryMetrics* m) REQUIRES(!pool_busy) {
  if (m == nullptr || fanout.empty()) return;
  uint64_t serial_worst = 0;      // slowest worker, serial stall schedule
  uint64_t overlapped_worst = 0;  // slowest worker, overlapped schedule
  uint64_t inflight = 0;
  for (size_t w = 0; w < per_worker.size(); ++w) {
    const uint64_t service = per_worker[w].net_service_ns;
    const uint64_t overlap = w < fanout.size() ? fanout[w].overlap_ns : 0;
    serial_worst = std::max(serial_worst, service);
    overlapped_worst = std::max(overlapped_worst, service - overlap);
    if (w < fanout.size()) {
      inflight = std::max(inflight, fanout[w].inflight_max);
    }
  }
  m->net_overlap_ns += serial_worst - overlapped_worst;
  if (inflight > m->net_inflight_max) m->net_inflight_max = inflight;
}

/// Recomputes the modeled queueing delay from the metered per-node busy
/// totals: a schedule can finish no earlier than max(slowest worker's own
/// network time, busiest node's serialized work), so the queueing delay
/// is however far the bottleneck node exceeds the per-worker makespan.
/// Idempotent — safe to call from every makespan refresh. Derived purely
/// from integer-metered totals, so kSimulated and kThreads agree exactly.
inline void FinalizeNetworkQueue(QueryMetrics* m) REQUIRES(!pool_busy) {
  if (m == nullptr) return;
  uint64_t busiest = 0;
  for (uint64_t b : m->net_node_busy_ns) busiest = std::max(busiest, b);
  m->net_queue_seconds = std::max(
      0.0, static_cast<double>(busiest) / 1e9 - m->makespan_net_seconds);
}

/// Recomputes the evenly-spread makespan components from the totals in
/// `m` under the no-skew assumption: scans, compute and bytes divide by
/// p. makespan_get is NOT touched — each fetch round records its true
/// per-worker maxima via MaxWorkerStorageGets as the plan executes.
inline void SpreadMakespans(int workers, QueryMetrics* m) REQUIRES(!pool_busy) {
  if (m == nullptr) return;
  int p = std::max(1, workers);
  m->makespan_next = static_cast<double>(m->next_calls) / p;
  m->makespan_compute = static_cast<double>(m->compute_values) / p;
  m->makespan_bytes =
      static_cast<double>(m->bytes_from_storage + m->shuffle_bytes) / p;
  // makespan_net_seconds is NOT touched either — each round records its
  // true per-worker maxima via MaxWorkerNetSeconds — but the queueing
  // delay is refreshed from the final per-node busy totals.
  FinalizeNetworkQueue(m);
}

}  // namespace zidian

#endif  // ZIDIAN_KBA_MAKESPAN_H_
