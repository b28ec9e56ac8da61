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

// The QueryMetrics field table — the one list of its fields. Each row is
// X(type, name, merge, compare):
//   merge    how operator+= folds a later delta in: Sum; Max for a peak;
//            MinSet for a low-water mark where 0 means unset; ByNode for
//            a per-node vector (elementwise sum, the shorter side
//            zero-padded);
//   compare  Compared when CountersEqual checks the field, Ignored when it
//            describes the schedule (net_overlap_ns, net_inflight_max:
//            they vary with the fan-out mode by design), the machine
//            (wall_*) or the interleaving with commits (read_epoch_*,
//            read_restarts) rather than the logical work done.
// The struct members, operator+=, CountersEqual and ToString are all
// expanded from it, and tools/lint_invariants.py requires a row in the
// docs/ARCHITECTURE.md glossary for every field.
//
// Network fields are zero/empty when no NetworkModel is configured and
// are metered in integers (requests, bytes, ns), so per-worker deltas sum
// to bit-identical totals under kSimulated and kThreads. Fault counters
// are zero without a fault schedule and count per key, not per request,
// so their totals are also invariant under worker count. Makespans are
// filled by the executors (kba/makespan.h), in the cost units the backend
// profile converts to seconds.
#define ZIDIAN_QUERY_METRICS_FIELDS(X)                                       \
  /* Storage-layer interaction. */                                           \
  /* Point-key lookups (paper: #get); a MultiGet of K keys counts K. */      \
  X(uint64_t, get_calls, Sum, Compared)                                      \
  /* One per node batch of a MultiGet (a one-key read counts one). */        \
  X(uint64_t, get_round_trips, Sum, Compared)                                \
  /* Batched MultiGet invocations. */                                        \
  X(uint64_t, multiget_calls, Sum, Compared)                                 \
  /* Scan iterator advances (blind scans). */                                \
  X(uint64_t, next_calls, Sum, Compared)                                     \
  X(uint64_t, put_calls, Sum, Compared)                                      \
  X(uint64_t, delete_calls, Sum, Compared)                                   \
  /* Attribute values read (paper: #data). */                                \
  X(uint64_t, values_accessed, Sum, Compared)                                \
  /* Storage -> SQL layer traffic. */                                        \
  X(uint64_t, bytes_from_storage, Sum, Compared)                             \
  /* SQL layer -> storage traffic (puts/deletes). */                         \
  X(uint64_t, bytes_to_storage, Sum, Compared)                               \
  /* BlockCache interaction, zero when the cache is off. Gets served by */   \
  /* the cache: one logical get each, but no round trip or storage bytes. */ \
  X(uint64_t, cache_hits, Sum, Compared)                                     \
  /* Gets that fell through to a node. */                                    \
  X(uint64_t, cache_misses, Sum, Compared)                                   \
  /* Entries evicted by this query's fills. */                               \
  X(uint64_t, cache_evictions, Sum, Compared)                                \
  /* Cache -> SQL layer traffic (not communication). */                      \
  X(uint64_t, bytes_from_cache, Sum, Compared)                               \
  /* Gets answered "absent" by a cached negative entry. */                   \
  X(uint64_t, cache_negative_hits, Sum, Compared)                            \
  /* NetworkModel interaction. Payload bytes priced per byte. */             \
  X(uint64_t, net_transfer_bytes, Sum, Compared)                             \
  /* Summed modeled request latency (rtt + node busy), no contention. */     \
  X(uint64_t, net_service_ns, Sum, Compared)                                 \
  /* Per-node network requests and serialized busy time. */                 \
  X(std::vector<uint64_t>, net_node_round_trips, ByNode, Compared)           \
  X(std::vector<uint64_t>, net_node_busy_ns, ByNode, Compared)               \
  /* Fault injection and recovery: failed attempts, re-sent attempts, */     \
  /* attempts abandoned by the timeout, hedged keys, hedges the replica */   \
  /* won, and whole queries that failed cleanly. */                          \
  X(uint64_t, net_faults_injected, Sum, Compared)                            \
  X(uint64_t, net_retries, Sum, Compared)                                    \
  X(uint64_t, net_timeouts, Sum, Compared)                                   \
  X(uint64_t, net_hedges, Sum, Compared)                                     \
  X(uint64_t, net_hedge_wins, Sum, Compared)                                 \
  X(uint64_t, failed_queries, Sum, Compared)                                 \
  /* SQL-layer work: compute-node traffic and values operators touch. */     \
  X(uint64_t, shuffle_bytes, Sum, Compared)                                  \
  X(uint64_t, compute_values, Sum, Compared)                                 \
  /* Simulated parallel makespan: max over workers of each category. */      \
  X(double, makespan_get, Sum, Compared)                                     \
  X(double, makespan_next, Sum, Compared)                                    \
  X(double, makespan_bytes, Sum, Compared)                                   \
  X(double, makespan_compute, Sum, Compared)                                 \
  /* Slowest worker's modeled network time, and how far the bottleneck */    \
  /* node's busy total exceeds it (FinalizeNetworkQueue). */                 \
  X(double, makespan_net_seconds, Sum, Compared)                             \
  X(double, net_queue_seconds, Sum, Compared)                                \
  /* Schedule shape of FanoutMode::kOverlapped (ChargeFanoutOverlap): */     \
  /* modeled ns hidden by overlapping node batches, and the peak batches */  \
  /* in flight. Zero on serial fan-outs. */                                  \
  X(uint64_t, net_overlap_ns, Sum, Ignored)                                  \
  X(uint64_t, net_inflight_max, Max, Ignored)                                \
  /* Measured wall clock (s): the whole M3 execution, its extension */       \
  /* fan-outs and its parallel operator regions. Zero when unmeasured. */    \
  X(double, wall_seconds, Sum, Ignored)                                      \
  X(double, wall_fetch_seconds, Sum, Ignored)                                \
  X(double, wall_compute_seconds, Sum, Ignored)                              \
  /* Lowest and highest Cluster commit epoch a storage read of the run */    \
  /* ran under (0 before any read). Unequal: a commit landed between */      \
  /* two reads, and PreparedQuery::Execute ran the query again. */           \
  X(uint64_t, read_epoch_lo, MinSet, Ignored)                                \
  X(uint64_t, read_epoch_hi, Max, Ignored)                                   \
  /* Times Execute ran the query again because an attempt's reads */         \
  /* straddled a commit (at most PreparedQuery::kMaxReadRestarts). */        \
  X(uint64_t, read_restarts, Sum, Ignored)

/// Counters for one query execution (or one storage workload run).
struct QueryMetrics {
#define ZIDIAN_METRICS_MEMBER(type, name, merge, compare) type name{};
  ZIDIAN_QUERY_METRICS_FIELDS(ZIDIAN_METRICS_MEMBER)
#undef ZIDIAN_METRICS_MEMBER

  /// Total communication in bytes (paper's "comm" column).
  uint64_t CommBytes() const { return bytes_from_storage + shuffle_bytes; }

  QueryMetrics& operator+=(const QueryMetrics& o) {
#define ZIDIAN_METRICS_MERGE(type, name, merge, compare) merge(&name, o.name);
    ZIDIAN_QUERY_METRICS_FIELDS(ZIDIAN_METRICS_MERGE)
#undef ZIDIAN_METRICS_MERGE
    return *this;
  }

  /// "comm=<CommBytes>" then "name=value" for every non-zero field, in
  /// table order (a per-node vector prints as [n0 n1 ...]).
  std::string ToString() const;

 private:
  // The table's merge rules.
  template <typename T>
  static void Sum(T* into, T from) {
    *into += from;
  }
  static void Max(uint64_t* into, uint64_t from) {
    if (from > *into) *into = from;
  }
  static void MinSet(uint64_t* into, uint64_t from) {
    if (from != 0 && (*into == 0 || from < *into)) *into = from;
  }
  static void ByNode(std::vector<uint64_t>* into,
                     const std::vector<uint64_t>& from) {
    if (into->size() < from.size()) into->resize(from.size(), 0);
    for (size_t i = 0; i < from.size(); ++i) (*into)[i] += from[i];
  }
};

/// Whether two runs did exactly the same logical work: every Compared
/// field of the table equal (per-node vectors zero-padded). This is the
/// determinism contract between ParallelMode::kSimulated and kThreads.
bool CountersEqual(const QueryMetrics& a, const QueryMetrics& b);

}  // namespace zidian

#endif  // ZIDIAN_COMMON_METRICS_H_
