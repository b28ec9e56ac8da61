// Simulated KV cluster: N storage nodes behind a DHT that hash-partitions
// keys (§3). Each node is a pluggable KvBackend (LSM tree by default, an
// in-memory hash table, or a custom engine via backend_factory). This is
// the storage layer of the SQL-over-NoSQL architecture; the SQL layer
// (executors in src/ra and src/zidian) talks to it exclusively through
// multi-get / put / delete / prefix scans, and every access is metered into
// QueryMetrics so the experiments can report #get, #data, comm.
//
// An optional metered BlockCache (storage/block_cache.h) sits between the
// SQL layer and the nodes: when ClusterOptions::cache.capacity_bytes > 0,
// MultiGet serves hits from the cache — one logical get, zero round trips,
// zero storage bytes — and Put/Delete invalidate the touched key so
// cached blocks stay coherent under incremental maintenance. Confirmed
// absences are cached too (negative entries): a repeated get of a
// nonexistent key answers from the cache instead of paying a round trip,
// metered as cache_negative_hits and invalidated by Put/Delete like any
// other entry.
//
// When ClusterOptions::network carries any cost, every backend-reaching
// access is priced by the NetworkModel (storage/network_model.h): each
// per-node MultiGet batch pays one round trip (stalling the caller for
// the modeled latency plus any per-node queueing), Put/Delete are metered
// but never stalled, and the net_* QueryMetrics fields record the
// traffic. Cache hits and prefix scans bypass the network: hits are
// middleware-local memory, and scans stream (the paper's per-round-trip
// economics are about point access — the path the network model prices).
//
// MultiGet is the one point-read path (a single key is a one-key
// MultiGet), and its stall schedule (FanoutMode) is its only parameter.
// kSerial issues each per-node batch when the one before it has
// completed, so a fan-out over k nodes pays the SUM of per-node
// latencies. kOverlapped issues every touched node's batch at one
// common modeled instant and stalls once, to the latest completion, so
// independent latencies overlap and the fan-out costs about the slowest
// node. The schedules meter bit-identically: rows, fault counters and
// every CountersEqual field are invariant across schedule, parallel mode
// and worker count; only the schedule-shape fields (net_overlap_ns /
// net_inflight_max), the modeled makespan and the wall clock may differ.
//
// Thread safety: the Cluster owns the storage gate, a reader/writer lock
// held only while storage is touched. A read (MultiGet, ScanPrefix) holds
// the shared side across its cache probe, backend reads, recovery pricing
// and cache fills, and releases it before every modeled stall: kOverlapped
// stalls once after its last node batch, kSerial before each next one. A
// commit (Write, and Put / Delete as one-op writes) holds the exclusive
// side while it writes and then advances the commit epoch; FlushAll and
// LoadFromDir hold it too. So reads run beside each other from any number
// of threads, each metering into its own QueryMetrics, a commit waits only
// for storage accesses in flight, never for a stall, and a cache fill
// never lands after a commit's invalidation. Every read records the epoch
// it ran under in its QueryMetrics (read_epoch_lo / read_epoch_hi): a
// query whose reads saw two epochs straddled a commit, and
// PreparedQuery::Execute runs it again (docs/ARCHITECTURE.md "Concurrency
// contract"). No gate-taking Cluster call may run inside a ScanPrefix
// callback: the scan holds the shared side, and a nested acquisition is
// undefined. The other locked seams a read crosses — the BlockCache's
// per-shard mutexes and the NetworkModel's atomic clocks — carry their
// own contracts.
#ifndef ZIDIAN_STORAGE_CLUSTER_H_
#define ZIDIAN_STORAGE_CLUSTER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/block_cache.h"
#include "storage/kv_backend.h"
#include "storage/lsm_store.h"
#include "storage/network_model.h"

namespace zidian {

/// Which KvBackend engine each storage node runs.
enum class BackendKind {
  kLsm,  ///< LsmStore: write-buffered, bloom-filtered, scan-friendly
  kMem,  ///< MemBackend: hash table, fastest point/MultiGet path
};

std::string_view BackendKindName(BackendKind kind);

/// Whether a read may populate the BlockCache on a miss. Header-only
/// (stats) fetches pass kNoFill: they are metered as shipping only
/// header-sized payloads, so letting their misses insert the full block
/// would hand later full reads the block's bytes without any query ever
/// having been charged them. Lookups are allowed either way — serving a
/// header from a block some full read already paid for is coherent.
enum class CacheFill {
  kFill,    ///< normal reads: misses insert the fetched value
  kNoFill,  ///< partially-metered reads: misses never insert
};

/// How a MultiGet issues its per-node batches. Orthogonal to
/// ParallelMode: either schedule runs under either mode, and rows and
/// CountersEqual counters are bit-identical across all four combinations.
enum class FanoutMode {
  kSerial,      ///< each batch issued when the previous one completed (the
                ///< control arm of the overlapped schedule)
  kOverlapped,  ///< every batch issued at one instant, one stall to the
                ///< latest completion (the executors' default)
};

struct ClusterOptions {
  int num_storage_nodes = 4;
  /// Node engine; ignored when `backend_factory` is set.
  BackendKind backend = BackendKind::kLsm;
  LsmOptions lsm;
  /// Escape hatch for custom engines: called once per node when set.
  std::function<std::unique_ptr<KvBackend>()> backend_factory;
  /// BlockCache sizing. capacity_bytes = 0 (the default) disables the
  /// cache; when it is 0 and the environment variable
  /// ZIDIAN_BLOCK_CACHE_BYTES parses to a positive number, that value is
  /// used instead — the switch the cache-enabled CI configuration flips
  /// without touching call sites.
  BlockCacheOptions cache;
  /// The network between the SQL layer and the storage nodes: per-node
  /// queues, per-request RTT, marginal per-key batching cost and
  /// per-byte transfer cost (storage/network_model.h). All-zero (the
  /// default) means no network model — reads answer at memory speed.
  NetworkOptions network;
  /// Availability policy: K-way replica placement, bounded retries with
  /// backoff, per-request timeouts and hedged reads
  /// (storage/network_model.h). Every node batch that reaches a backend
  /// runs the recovery machine; with the default policy and a quiet fault
  /// schedule it plays one round that meters exactly the link's
  /// RequestCost. Requires a network model to act on (faults and recovery
  /// are network behaviors); without one it is inert.
  RecoveryOptions recovery;
};

/// Result of Cluster::MultiGet: the per-key values (aligned with the
/// request, absent keys nullopt) plus a Status distinguishing "key
/// absent" (slot nullopt, status OK) from "key unreachable" (retries
/// exhausted on every replica: slot nullopt, Failed(i) true, status
/// kUnavailable). Indexes like the plain vector it replaced, so existing
/// call sites keep reading values[i] — but callers on the query path must
/// check ok() before treating a nullopt as a proven absence.
struct [[nodiscard]] MultiGetResult {
  Status status;
  std::vector<std::optional<std::string>> values;
  /// Per-slot unreachable flags; empty (nothing failed) when status.ok().
  std::vector<uint8_t> failed;

  [[nodiscard]] bool ok() const { return status.ok(); }
  [[nodiscard]] size_t size() const { return values.size(); }
  [[nodiscard]] bool Failed(size_t i) const {
    return !failed.empty() && failed[i] != 0;
  }
  std::optional<std::string>& operator[](size_t i) { return values[i]; }
  const std::optional<std::string>& operator[](size_t i) const {
    return values[i];
  }
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options = {});

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// DHT routing: which storage node owns `key`. Unmetered.
  int NodeFor(std::string_view key) const {
    return static_cast<int>(Hash64(key) % nodes_.size());
  }

  /// The write half of one commit: the handle Write() passes its body.
  /// It exists only inside Write, under the exclusive side of the gate.
  class Writer {
   public:
    /// Writes a pair — to EVERY replica in the key's chain when
    /// replication is configured (one logical put_call; pair bytes and a
    /// metered network write per replica), so any replica can serve the
    /// read and hedged fetches stay coherent. Always invalidates the key
    /// in the BlockCache, even under cache bypass — coherence is not
    /// optional. With the cache active, a key holding a *negative* entry
    /// gets the new value installed in its place (BlockCache::OnPut): a
    /// write followed by a read hits instead of paying a round trip for a
    /// key the cache had just confirmed absent. Evictions caused by that
    /// install are charged to m->cache_evictions.
    Status Put(std::string_view key, std::string_view value,
               QueryMetrics* m = nullptr);
    /// Deletes a key. Meters: one delete_call and the key bytes into
    /// bytes_to_storage. Always invalidates the key in the BlockCache.
    Status Delete(std::string_view key, QueryMetrics* m = nullptr);

   private:
    friend class Cluster;
    explicit Writer(Cluster* cluster) : cluster_(cluster) {}
    Cluster* cluster_;
  };

  /// Runs `fn(Writer&)` as one commit: under the exclusive side of the
  /// storage gate, so no read touches storage while it writes, then
  /// advances the commit epoch once, whether `fn` failed or not (a failed
  /// body may have written). Returns `fn`'s Status. `fn` must not call
  /// back into this Cluster except through the Writer.
  template <typename Fn>
  Status Write(Fn&& fn) EXCLUDES(gate_) {
    WriterMutexLock gate(gate_);
    Writer writer(this);
    Status st = fn(writer);
    ++epoch_;
    return st;
  }

  /// One-op commits: Write with a single Writer::Put / Writer::Delete.
  Status Put(std::string_view key, std::string_view value,
             QueryMetrics* m = nullptr) EXCLUDES(gate_);
  Status Delete(std::string_view key, QueryMetrics* m = nullptr)
      EXCLUDES(gate_);

  /// Batched point lookup (§7.2's interleaved access idiom), and the
  /// cluster's one read path: a single key is a one-key MultiGet. Returns
  /// one entry per key, aligned with `keys`; absent keys are nullopt.
  /// Meters: one multiget_call, one get_call per key (the paper's logical
  /// #get); cache hits are served first (cache_hits / bytes_from_cache, no
  /// trip; a cached absence is a cache_negative_hit), and only the missed
  /// keys are grouped per owning node — one round trip per touched node,
  /// with pair bytes into bytes_from_storage and a cache_miss each when
  /// the cache is active. A fully cached batch performs zero round trips.
  /// Misses fill the cache unless `fill` is kNoFill — a found value as a
  /// positive entry, a confirmed absence as a negative one; fills that
  /// push entries out are charged to cache_evictions. Each node batch
  /// runs the retry/hedge recovery machine; keys unreachable after the
  /// attempt budget come back nullopt with Failed(i) set and a
  /// kUnavailable overall status — and are never metered as fetched nor
  /// cached (positively or negatively: an unreachable key is not a
  /// proven absence).
  ///
  /// `fanout` picks the stall schedule (see the header comment); every
  /// caller names one, as it names `fill`. The result and every counter
  /// are the same under both, and the call returns only after its
  /// modeled stalls, failed or not. Under
  /// kOverlapped the fan-out's schedule shape is merged into `stats`
  /// (nullable): overlap_ns = summed per-batch modeled service minus the
  /// slowest batch's, inflight_max = per-node batches issued. The caller
  /// folds it into QueryMetrics at its merge point (kba/makespan.h
  /// ChargeFanoutOverlap), never into per-worker deltas. kSerial leaves
  /// `stats` untouched.
  ///
  /// The storage gate is held shared from the cache probe through the
  /// last node batch it issues and released before each stall (once,
  /// after every batch, under kOverlapped; before each next batch under
  /// kSerial). Each hold records its commit epoch into `m`.
  MultiGetResult MultiGet(const std::vector<std::string>& keys,
                          QueryMetrics* m, CacheFill fill, FanoutMode fanout,
                          FanoutStats* stats = nullptr) const EXCLUDES(gate_);

  /// Iterates all pairs whose key starts with `prefix`, in key order per
  /// node. Models the TaaV "blind scan": meters one next_call per visited
  /// pair and the full pair bytes into bytes_from_storage. Scans never
  /// consult or fill the BlockCache (they are the path caching exists to
  /// avoid). Under replication only the primary copy of each pair is
  /// emitted, so scans see every pair exactly once; fault injection does
  /// not apply to scans (they stream — the recovery machine prices the
  /// point-access path the paper's round-trip economics are about). The
  /// whole scan holds the storage gate shared and records its epoch into
  /// `m`, so `fn` must not stall nor call a Cluster method that takes the
  /// gate (a nested shared acquisition is undefined; NodeFor is fine).
  void ScanPrefix(std::string_view prefix, QueryMetrics* m,
                  const std::function<void(std::string_view key,
                                           std::string_view value)>& fn) const
      EXCLUDES(gate_);

  /// Direct node access for tests/tools. Writes through this handle
  /// bypass metering, cache invalidation and the storage gate — prefer
  /// Put/Delete.
  KvBackend& node(int i) { return *nodes_[i]; }
  const KvBackend& node(int i) const { return *nodes_[i]; }

  /// Flushes every node's write buffer, under the exclusive side (the
  /// contents do not change, so the epoch does not advance).
  void FlushAll() EXCLUDES(gate_);

  /// Total live bytes across nodes (storage footprint; unmetered).
  size_t TotalBytes() const EXCLUDES(gate_);

  /// Persists every node to `dir/node-<i>.kv` / restores from it. The node
  /// count must match on load (keys are hash-placed per node count); the
  /// node engine may differ — the file format is backend-independent.
  /// SaveToDir holds the storage gate shared; LoadFromDir is a commit: it
  /// holds the exclusive side, advances the epoch and drops the whole
  /// BlockCache (bulk replacement).
  Status SaveToDir(const std::string& dir) const EXCLUDES(gate_);
  Status LoadFromDir(const std::string& dir) EXCLUDES(gate_);

  // --- BlockCache introspection and control ---------------------------

  /// Whether a cache was configured (capacity > 0). Bypass does not
  /// change this — a bypassed cache is still attached and coherent.
  bool cache_enabled() const { return cache_ != nullptr; }
  size_t cache_capacity_bytes() const {
    return cache_ ? cache_->capacity_bytes() : 0;
  }
  /// The attached cache, or nullptr when disabled. Aggregate counters
  /// live here; per-query counters land in QueryMetrics.
  BlockCache* block_cache() const { return cache_.get(); }

  /// When bypassed, MultiGet neither consults nor fills the cache
  /// (ExecOptions::bypass_cache uses this per execution); Put/Delete
  /// still invalidate. Not a per-query property — callers must restore
  /// the previous value (see PreparedQuery::Execute). The flag is
  /// cluster-global state: atomic so that a session toggling it while
  /// others read is never a data race, but *logically* it still affects
  /// every in-flight query — bypass_cache is a single-session experiment
  /// knob, and the serving layer never sets it (concurrent Executes with
  /// default options perform no write here at all).
  void SetCacheBypass(bool bypass) {
    cache_bypass_.store(bypass, std::memory_order_relaxed);
  }
  bool cache_bypassed() const {
    return cache_bypass_.load(std::memory_order_relaxed);
  }

  /// The attached network model, or nullptr when no network cost is
  /// configured. MultiGets/Puts/Deletes are metered through it (reads
  /// also stall); executors use it to price simulated per-tuple gets.
  const NetworkModel* network() const { return network_.get(); }

  /// The availability policy this cluster runs (Explain()/diagnostics).
  const RecoveryOptions& recovery() const { return recovery_; }
  /// Effective copies per key: min(recovery.replication_factor, nodes).
  int replication() const { return replication_; }
  /// The replica chain of `primary`: [primary, primary+1, ...] mod N,
  /// `replication()` entries. Writes go to every node in it; reads try
  /// it in order (and hedge against entry 1).
  const std::vector<int>& ReplicaChain(int primary) const {
    return replica_chains_[static_cast<size_t>(primary)];
  }

 private:
  bool CacheActive() const { return cache_ != nullptr && !cache_bypassed(); }

  /// Folds the current commit epoch into `m`'s read_epoch_lo/hi.
  void RecordEpoch(QueryMetrics* m) const REQUIRES_SHARED(gate_);
  /// The wait half of a read: stalls until modeled instant `wake_ns`
  /// (no-op without a network). Every Cluster stall goes through here, and
  /// none may hold the storage gate.
  void Stall(int64_t wake_ns) const EXCLUDES(gate_);

  /// Front half of MultiGet over a non-empty `keys`: meters the logical
  /// calls, serves cache hits (both polarities), and counting-sorts the
  /// missed slots by owning node (`batch` grouped per node, node n's
  /// range = [(*offsets)[n], (*offsets)[n+1])). Returns false when no key
  /// needs a backend fetch.
  bool PrepareMultiGet(const std::vector<std::string>& keys, QueryMetrics* m,
                       MultiGetResult* result,
                       std::vector<KvBackend::BatchedKey>* batch,
                       std::vector<uint32_t>* offsets) const
      REQUIRES_SHARED(gate_);
  /// Per-slot bookkeeping of one node batch after the node answered:
  /// failed flags for the slots `reachable` (one flag per batch entry;
  /// empty when no network decided reachability) marks lost,
  /// bytes_from_storage, cache fills in both polarities. Meters into `m`;
  /// bumps `*unreachable` per slot lost.
  void SettleNodeBatch(const std::vector<KvBackend::BatchedKey>& batch,
                       size_t begin, size_t end,
                       const std::vector<uint8_t>& reachable, CacheFill fill,
                       QueryMetrics* m, MultiGetResult* result,
                       uint64_t* unreachable) const REQUIRES_SHARED(gate_);

  std::vector<std::unique_ptr<KvBackend>> nodes_;
  std::unique_ptr<BlockCache> cache_;
  std::atomic<bool> cache_bypass_{false};
  std::unique_ptr<NetworkModel> network_;
  RecoveryOptions recovery_;
  int replication_ = 1;
  /// replica_chains_[p] = the nodes holding a key whose primary is p.
  std::vector<std::vector<int>> replica_chains_;
  /// The storage gate: shared while a read touches the backends and the
  /// cache, exclusive while a commit writes (see the header comment).
  mutable SharedMutex gate_;
  /// The commit epoch: 1 before the first commit, advanced by each one,
  /// so a read's recorded epoch is never 0 (the metrics' "no read").
  uint64_t epoch_ GUARDED_BY(gate_) = 1;
};

}  // namespace zidian

#endif  // ZIDIAN_STORAGE_CLUSTER_H_
