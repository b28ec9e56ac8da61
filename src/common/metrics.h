// Cost accounting. The paper's experimental claims are phrased in terms of
// counts: #get invocations, #values accessed, bytes shipped (communication),
// and per-worker computation. Every storage and executor path increments
// these counters; the backend cost model (storage/backend.h) converts them
// into simulated seconds per SQL-over-NoSQL combination.
#ifndef ZIDIAN_COMMON_METRICS_H_
#define ZIDIAN_COMMON_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace zidian {

/// Schedule-shape summary of the overlapped fan-outs one worker ran (what
/// Cluster::MultiGet merges in under FanoutMode::kOverlapped, and what
/// the TaaV scan's per-node chains report): how many modeled nanoseconds
/// the fan-outs removed from the critical path by keeping every touched
/// node's requests in flight together (sum of per-node latencies minus
/// the max), and the most per-node batches in flight at once. Pure
/// functions of the request stream — never of queueing or scheduling — so
/// they are bit-identical across parallel modes for a fixed partition.
/// Serial fan-outs leave them at zero.
struct FanoutStats {
  uint64_t overlap_ns = 0;
  uint64_t inflight_max = 0;

  /// Accumulates a later fan-out round: hidden time adds up along one
  /// worker's timeline; peak in-flight is a max.
  void Merge(const FanoutStats& o) {
    overlap_ns += o.overlap_ns;
    if (o.inflight_max > inflight_max) inflight_max = o.inflight_max;
  }
};

/// Counters for one query execution (or one storage workload run).
struct QueryMetrics {
  // Storage-layer interaction.
  uint64_t get_calls = 0;        ///< point-key lookups (paper: #get); a
                                 ///< MultiGet of K keys counts K
  uint64_t get_round_trips = 0;  ///< storage round trips: one per single
                                 ///< Get, one per node batch in a MultiGet
  uint64_t multiget_calls = 0;   ///< batched MultiGet invocations
  uint64_t next_calls = 0;       ///< scan iterator advances (blind scans)
  uint64_t put_calls = 0;
  uint64_t delete_calls = 0;
  uint64_t values_accessed = 0;  ///< attribute values read (paper: #data)
  uint64_t bytes_from_storage = 0;  ///< storage -> SQL layer traffic
  uint64_t bytes_to_storage = 0;    ///< SQL layer -> storage (puts/deletes)

  // BlockCache interaction (all zero when the cache is off or bypassed).
  // A cache hit still counts one logical get (paper-faithful #get) but no
  // round trip and no storage bytes — the saving shows up as a round-trip
  // delta and as bytes_from_cache instead of bytes_from_storage.
  uint64_t cache_hits = 0;       ///< gets served by the BlockCache
  uint64_t cache_misses = 0;     ///< gets that fell through to a node
  uint64_t cache_evictions = 0;  ///< entries evicted by this query's fills
  uint64_t bytes_from_cache = 0;  ///< cache -> SQL layer traffic (no comm)
  uint64_t cache_negative_hits = 0;  ///< gets answered "absent" by a cached
                                     ///< negative entry (no round trip)

  // NetworkModel interaction (all zero/empty when no network is
  // configured — see storage/network_model.h). Everything here is metered
  // in integers (requests, bytes, nanoseconds), so the totals are
  // bit-identical between ParallelMode::kSimulated and kThreads no matter
  // how worker deltas are chunked and merged.
  uint64_t net_transfer_bytes = 0;  ///< payload bytes charged per-byte
                                    ///< transfer cost by the network
  uint64_t net_service_ns = 0;  ///< summed modeled request latency (rtt +
                                ///< node busy), contention excluded
  std::vector<uint64_t> net_node_round_trips;  ///< per-node histogram of
                                               ///< network requests (Get /
                                               ///< per-node MultiGet batch /
                                               ///< Put / Delete / baseline
                                               ///< per-tuple gets)
  std::vector<uint64_t> net_node_busy_ns;  ///< per-node serialized busy
                                           ///< time (the queueing input)

  // Fault-injection / recovery accounting (all zero when no fault schedule
  // is configured — see FaultScheduleOptions in storage/network_model.h).
  // Counted PER KEY, not per wire request: a key's fault verdicts depend
  // only on (seed, key, node, attempt), so these sums are invariant under
  // how a batch is partitioned across workers — identical across
  // kSimulated/kThreads AND across worker counts for a fixed seed.
  uint64_t net_faults_injected = 0;  ///< attempts failed by the schedule
                                     ///< (node down for the key's window,
                                     ///< or the attempt hash lost it)
  uint64_t net_retries = 0;      ///< re-sent attempts beyond a key's first
  uint64_t net_timeouts = 0;     ///< attempts abandoned by the per-request
                                 ///< timeout (modeled latency exceeded it)
  uint64_t net_hedges = 0;       ///< keys whose slow primary estimate fired
                                 ///< a hedged fetch against a replica
  uint64_t net_hedge_wins = 0;   ///< hedged keys the replica answered first
  uint64_t failed_queries = 0;   ///< whole queries that failed cleanly with
                                 ///< a structured error (retries exhausted)

  // SQL-layer work.
  uint64_t shuffle_bytes = 0;    ///< compute-node <-> compute-node traffic
  uint64_t compute_values = 0;   ///< values touched by operators

  // Simulated parallel makespan components, filled by the executors:
  // max over workers of each cost category (in abstract cost units that the
  // backend profile converts to seconds).
  double makespan_get = 0;       ///< max per-worker #get that reached
                                 ///< storage (cache hits are local memory
                                 ///< and carry no per-get latency)
  double makespan_next = 0;      ///< max per-worker #next (scan advances)
  double makespan_bytes = 0;     ///< max per-worker bytes moved
  double makespan_compute = 0;   ///< max per-worker values computed
  double makespan_net_seconds = 0;  ///< slowest worker's modeled network
                                    ///< time (from net_service_ns deltas)
  double net_queue_seconds = 0;  ///< modeled queueing delay: how far the
                                 ///< bottleneck node's busy total exceeds
                                 ///< the per-worker network makespan
                                 ///< (kba/makespan.h FinalizeNetworkQueue;
                                 ///< deterministic, unlike wall_*)

  // Schedule-shape observability for the overlapped fan-out schedule
  // (FanoutMode::kOverlapped). Like the makespans these are set at the
  // executors' merge points (kba/makespan.h ChargeFanoutOverlap), and
  // like wall_* they are EXCLUDED from CountersEqual: they describe HOW
  // the round trips were scheduled, which legitimately varies with the
  // fan-out mode and the worker partition, while every counter above
  // describes WHAT logical work was done and may not move. Deterministic
  // (pure modeled time, never queueing) — the async parity suite asserts
  // them equal across kSimulated/kThreads at a fixed partition.
  uint64_t net_overlap_ns = 0;    ///< modeled ns removed from the critical
                                  ///< path by overlapping per-node batches
                                  ///< (0 on every serial-fan-out run)
  uint64_t net_inflight_max = 0;  ///< peak per-node batches in flight in
                                  ///< one overlapped fan-out (0 when no
                                  ///< async fan-out ran)

  // Measured wall-clock (seconds), stamped by the executors when they run
  // for real; zero when not measured. Unlike every counter above, these
  // are nondeterministic — parity checks compare counters with
  // CountersEqual(), which ignores them.
  double wall_seconds = 0;          ///< whole M3 execution
  double wall_fetch_seconds = 0;    ///< extension fan-out (block fetches)
  double wall_compute_seconds = 0;  ///< parallel operator regions (σ/π/⋈)

  /// Total communication in bytes (paper's "comm" column).
  uint64_t CommBytes() const { return bytes_from_storage + shuffle_bytes; }

  QueryMetrics& operator+=(const QueryMetrics& o) {
    get_calls += o.get_calls;
    get_round_trips += o.get_round_trips;
    multiget_calls += o.multiget_calls;
    next_calls += o.next_calls;
    put_calls += o.put_calls;
    delete_calls += o.delete_calls;
    bytes_to_storage += o.bytes_to_storage;
    values_accessed += o.values_accessed;
    bytes_from_storage += o.bytes_from_storage;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    cache_evictions += o.cache_evictions;
    bytes_from_cache += o.bytes_from_cache;
    cache_negative_hits += o.cache_negative_hits;
    net_transfer_bytes += o.net_transfer_bytes;
    net_service_ns += o.net_service_ns;
    MergeByNode(&net_node_round_trips, o.net_node_round_trips);
    MergeByNode(&net_node_busy_ns, o.net_node_busy_ns);
    net_faults_injected += o.net_faults_injected;
    net_retries += o.net_retries;
    net_timeouts += o.net_timeouts;
    net_hedges += o.net_hedges;
    net_hedge_wins += o.net_hedge_wins;
    failed_queries += o.failed_queries;
    shuffle_bytes += o.shuffle_bytes;
    compute_values += o.compute_values;
    makespan_get += o.makespan_get;
    makespan_next += o.makespan_next;
    makespan_bytes += o.makespan_bytes;
    makespan_compute += o.makespan_compute;
    makespan_net_seconds += o.makespan_net_seconds;
    net_queue_seconds += o.net_queue_seconds;
    net_overlap_ns += o.net_overlap_ns;
    if (o.net_inflight_max > net_inflight_max) {
      net_inflight_max = o.net_inflight_max;  // a peak, not a volume
    }
    wall_seconds += o.wall_seconds;
    wall_fetch_seconds += o.wall_fetch_seconds;
    wall_compute_seconds += o.wall_compute_seconds;
    return *this;
  }

  std::string ToString() const;

 private:
  /// Elementwise sum of per-node vectors; the shorter side is padded with
  /// zeros (a delta that only touched node 3 merges into a 8-node total).
  static void MergeByNode(std::vector<uint64_t>* into,
                          const std::vector<uint64_t>& from) {
    if (into->size() < from.size()) into->resize(from.size(), 0);
    for (size_t i = 0; i < from.size(); ++i) (*into)[i] += from[i];
  }
};

/// Whether two runs did exactly the same logical work: every counter and
/// makespan component equal, wall timings ignored (those measure the
/// machine, not the query). This is the determinism contract between
/// ParallelMode::kSimulated and kThreads.
bool CountersEqual(const QueryMetrics& a, const QueryMetrics& b);

}  // namespace zidian

#endif  // ZIDIAN_COMMON_METRICS_H_
