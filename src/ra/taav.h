// TaaV storage layout and the baseline SQL-over-NoSQL executor (§3, §7.1).
//
// Layout: a tuple t of relation R is the KV pair
//     key   = "T" . ordered(R_name) . ordered(pk values of t)
//     value = payload(all attributes of t)
// A table scan iterates keys via next() and fetches each tuple with get()
// (one get per tuple — the "costly scan" the paper sets out to eliminate).
//
// The baseline executor follows §7.1: retrieve *all* relations involved in Q
// from the storage layer, move them to the SQL layer, then evaluate with
// selections, parallel hash joins and aggregation. Parallelism over p
// workers is accounted (scan partitioning, shuffle repartitioning for joins
// and group-by) and recorded as per-worker makespan counters; with a
// TaavExecOptions::pool the same per-worker chunks run on real threads
// with byte-identical rows and counters — the control arm of every
// KBA-vs-TaaV comparison shares the KBA treatment's execution substrate.
#ifndef ZIDIAN_RA_TAAV_H_
#define ZIDIAN_RA_TAAV_H_

#include <string>

#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "sql/query_spec.h"
#include "storage/cluster.h"

namespace zidian {

/// Key prefix owning all tuples of `table` in the TaaV keyspace.
std::string TaavPrefix(const std::string& table);

/// Encodes the TaaV key of a tuple given its primary-key values.
std::string TaavKey(const std::string& table, const Tuple& pk_values);

/// One tuple's TaaV pair: the key its primary key encodes and the payload
/// of all its attributes.
struct TaavEntry {
  std::string key;
  std::string value;
};

/// Encodes `tuple` (attributes in schema order) as its TaaV pair. A
/// tuple's TaaV delete removes `.key`.
TaavEntry EncodeTaavEntry(const TableSchema& schema, const Tuple& tuple);

/// Writes `data` (columns matching schema order, unqualified) into the
/// cluster under TaaV.
Status TaavLoadRelation(Cluster* cluster, const TableSchema& schema,
                        const Relation& data);

/// Scans the full table into a relation with columns qualified as
/// "alias.column". Meters one next() per key, one get() per tuple and all
/// shipped bytes — the blind-scan cost model of §3. The key enumeration
/// runs once on the calling thread and fixes the row order; the per-tuple
/// get+decode stage is chunked across `workers` (ChunkRange), each chunk
/// metering its own QueryMetrics delta, merged in chunk order, so rows
/// and counters are the same at every worker count, on `pool`'s threads
/// or on the calling thread (null pool). A single worker decodes straight
/// off the scan and never holds the encoded table; its gets' network
/// halves (and stalls) play after the scan returns, since the scan holds
/// the Cluster's storage gate and no stall may run under it.
///
/// Each per-tuple get is priced by the cluster's NetworkModel against the
/// tuple's owning node, and `fanout` picks the chunk's stall schedule.
/// kSerial stalls on every get before the next one leaves. kOverlapped
/// chains each node's gets off one common modeled instant: gets to the
/// same node stay back to back, chains to different nodes run
/// concurrently, and the chunk stalls once, to its latest chain's
/// completion. makespan_net_seconds gets the slowest chunk's serial
/// network time under both schedules; the cross-node time an overlapped
/// chunk hides goes to net_overlap_ns (kba/makespan.h ChargeFanoutOverlap).
Result<Relation> TaavScanTable(const Cluster& cluster,
                               const TableSchema& schema,
                               const std::string& alias, QueryMetrics* m,
                               ThreadPool* pool, int workers,
                               FanoutMode fanout);

/// Point lookup of one tuple by primary key (used by KV-workload benches):
/// a one-key Cluster::MultiGet of the tuple's TaaV key. NotFound when no
/// tuple has that key; an unreachable key fails with kUnavailable.
Result<Tuple> TaavGetTuple(const Cluster& cluster, const TableSchema& schema,
                           const Tuple& pk_values, QueryMetrics* m);

/// How the baseline executor maps `workers` onto execution resources —
/// the TaaV counterpart of KbaExecOptions, so the paper's KBA-vs-TaaV
/// comparisons run treatment and control on the same substrate.
struct TaavExecOptions {
  int workers = 1;
  /// The threads that run each region's chunks beside the calling thread
  /// (e.g. the Connection-shared pool). Null runs every chunk on the
  /// calling thread. Rows and CountersEqual metrics are invariant.
  ThreadPool* pool = nullptr;
  /// Per-worker stall schedule for the scans' per-tuple gets (see
  /// TaavScanTable); kOverlapped by default, kSerial the control arm.
  /// Rows and CountersEqual metrics are invariant.
  FanoutMode fanout = FanoutMode::kOverlapped;
};

/// Baseline executor: evaluates a bound query directly over TaaV storage.
class TaavExecutor {
 public:
  TaavExecutor(const Catalog* catalog, Cluster* cluster)
      : catalog_(catalog), cluster_(cluster) {}

  /// Executes over `opts.workers` workers. Fills `m` with counts and
  /// per-worker makespans; with a pool the scan, filter, join-probe and
  /// aggregation stages run their chunks on its threads, with the rows
  /// and counters of a run without one.
  Result<Relation> Execute(const QuerySpec& spec,
                           const TaavExecOptions& opts,
                           QueryMetrics* m) const;

 private:
  const Catalog* catalog_;
  Cluster* cluster_;
};

}  // namespace zidian

#endif  // ZIDIAN_RA_TAAV_H_
