// BaaV store ~D (§4.1, §8.2): the physical realization of a BaaV schema on
// the same KV cluster that holds the TaaV data. Module M4's data plane.
//
// Key layout per KV instance ~R<X,Y>:
//   key   = "B" . ordered(instance name) . ordered(X values) . ordered(seg#)
//   value = [segment 0 only] varint total_segments, then the block encoding
//
// Blocks larger than `block_split_threshold_bytes` are split into segments
// that share the X value and carry consecutive segment numbers; they
// logically behave as a single keyed block (§8.2). A point access costs one
// get per segment (one get for degree-bounded blocks). Every block read
// goes through MultiGetBlocks (or its header-only twin for statistics):
// one round for the first segments, one more only for split blocks.
//
// The store also implements:
//  * the relational->BaaV mapping (BuildInstance / BuildAll, §4.1),
//  * incremental maintenance under insert/delete in O(|Δ| · deg(~D)) (§8.2):
//    mutations stage into a pending Maintenance, each reading only the
//    blocks it does not hold yet in one overlapped round over every
//    derived instance (plus one for split blocks); one install then writes
//    every staged block once,
//  * degree tracking (deg of each instance, §4.1) for boundedness checks,
//  * header-only statistics access for grouped aggregates (§8.2).
#ifndef ZIDIAN_BAAV_BAAV_STORE_H_
#define ZIDIAN_BAAV_BAAV_STORE_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "baav/block.h"
#include "baav/kv_schema.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "storage/cluster.h"

namespace zidian {

struct BaavStoreOptions {
  /// Split threshold per keyed block (paper default 500MB per relation;
  /// scaled to the simulator's data sizes — ablated in bench_ablation).
  size_t block_split_threshold_bytes = 256 << 10;
  BlockOptions block;
};

class BaavStore {
 public:
  BaavStore(Cluster* cluster, BaavSchema schema, const Catalog* catalog,
            BaavStoreOptions options = {});

  const BaavSchema& schema() const { return schema_; }
  const Catalog& catalog() const { return *catalog_; }
  const BaavStoreOptions& options() const { return options_; }

  /// Maps one relation's data (columns matching the relation schema,
  /// unqualified) onto one KV instance: project on XY, group by X, encode.
  /// Afterwards the instance holds exactly `data`'s blocks: the segment
  /// counts of what it held before come from one unmetered ScanPrefix of
  /// the instance (empty on a fresh build), so stale segments and blocks
  /// are deleted without a single read round trip. Seeds the instance's
  /// block-size counts (Degree).
  Status BuildInstance(const KvSchema& kv, const Relation& data)
      EXCLUDES(sizes_mu_);

  /// Maps a whole database: builds every KV instance whose relation appears
  /// in `db` (relation name -> data).
  Status BuildAll(const std::map<std::string, Relation>& db);

  /// One block to fetch: an instance and a key (X values, in key_attrs
  /// order) in it.
  struct BlockRef {
    const KvSchema* kv;
    const Tuple* key;
  };
  /// A fetched block: its rows and the number of segments holding it
  /// (0 when the key is absent), or the cluster's kUnavailable status
  /// when some segment was unreachable (no rows then).
  struct FetchedBlock {
    std::vector<Tuple> rows;
    uint64_t segments = 0;
    Status status;
  };

  /// Batched block fetch (§7.2) over blocks of any number of instances —
  /// the store's one block read; a single block is a one-ref call: all
  /// first segments in one Cluster::MultiGet round, overflow segments in
  /// a second, both under the stall schedule `fanout`. Returns one block
  /// per ref, aligned with `refs` (no rows for absent keys). Meters one
  /// get per segment key, the shipped bytes and the values read, but only
  /// one round trip per touched storage node — the batched path the
  /// interleaved extension rounds and the maintenance read phase run on.
  /// Rows and every CountersEqual field are the same under either
  /// schedule; an overlapped round's hidden network time is merged into
  /// `fanout_stats` (nullable) for the caller's ChargeFanoutOverlap fold.
  /// An unreachable block fails only itself (FetchedBlock::status), so
  /// the caller decides whether it needs that block; its gets and fault
  /// traffic are metered all the same.
  Result<std::vector<FetchedBlock>> MultiGetBlocks(
      const std::vector<BlockRef>& refs, QueryMetrics* m, FanoutMode fanout,
      FanoutStats* fanout_stats) const;

  /// Batched header-only fetch of one instance's blocks: MultiGetBlocks'
  /// counterpart for the stats pushdown path, over the same two rounds.
  /// One BlockStats per key, aligned with `keys` (per-Y-column aggregates;
  /// zero rows when absent). Meters one get per segment but only the
  /// header bytes / one value per column, and its misses never fill the
  /// BlockCache.
  Result<std::vector<BlockStats>> MultiGetBlockStats(
      const KvSchema& kv, const std::vector<Tuple>& keys, QueryMetrics* m,
      FanoutMode fanout, FanoutStats* fanout_stats) const;

  /// Full scan of a KV instance (the non-scan-free path): one next() per
  /// block segment plus the shipped bytes. Key enumeration stays
  /// sequential (it fixes the block order), then block decode is chunked
  /// across `workers` (on `pool` when set, else on the calling thread)
  /// with per-chunk QueryMetrics deltas; `fn` is invoked on the calling
  /// thread in block order, with the same metering at every worker count.
  Status ScanInstance(
      const KvSchema& kv, QueryMetrics* m,
      const std::function<void(const Tuple& key,
                               const std::vector<Tuple>& rows)>& fn,
      ThreadPool* pool = nullptr, int workers = 1) const;

  /// deg(~D) of one instance: max logical block size (tuples). The store
  /// counts each instance's blocks by size; BuildInstance or the first
  /// Degree call (a full instance scan) seeds the counts, and every
  /// Install applies its blocks' old->new size change, so the degree stays
  /// exact as blocks grow, shrink and vanish. A failed scan propagates its
  /// error and caches nothing — it must not poison the counts with a
  /// partial scan (the planner reads this for §6.1 boundedness; a
  /// silently-low degree would claim bounded evaluation for an instance
  /// nobody measured). Safe to call from concurrent readers and beside
  /// commits: the scan runs unlocked, the first finished scan seeds the
  /// counts, and a scan an Install overtook answers without seeding.
  Result<uint64_t> Degree(const KvSchema& kv) const EXCLUDES(sizes_mu_);

  /// One block a pending mutation rewrites: the block of `kv` under `key`
  /// as the read phase found it (size and segment count; 0 segments when
  /// absent) and as the install phase writes it back.
  struct BlockUpdate {
    const KvSchema* kv = nullptr;
    Tuple key;
    uint64_t old_size = 0;
    uint64_t old_segments = 0;
    std::vector<Tuple> rows;
  };
  /// The blocks a batch of mutations rewrites, each once, with every
  /// staged edit applied.
  using Maintenance = std::vector<BlockUpdate>;

  /// Maintenance read phase for one inserted/deleted tuple of `relation`
  /// (values in relation-schema column order), staged into `pending`: the
  /// affected block of every KV instance derived from the relation that
  /// `pending` does not hold yet is fetched in one overlapped MultiGet
  /// fan-out, plus one overflow round only when such a block is split;
  /// then the edit applies to the staged rows, so a mutation sees every
  /// edit staged before it. A block `pending` already holds costs no read.
  /// Unmetered; misses fill the BlockCache like any full read. Writes
  /// nothing; on error `pending` is left as it was. ReadForDelete returns
  /// NotFound when some affected block holds no row equal to the tuple's
  /// Y-projection: the tuple is not stored, and erasing nothing from one
  /// layout while TaaV drops the key by primary key would split them.
  Status ReadForInsert(const std::string& relation, const Tuple& tuple,
                       Maintenance* pending) const;
  Status ReadForDelete(const std::string& relation, const Tuple& tuple,
                       Maintenance* pending) const;
  /// Maintenance install phase: writes every block of `update` through
  /// `writer` (Put / Delete only — no read, no stall) and applies the
  /// size changes to the degree counts. O(deg) per instance.
  /// Zidian::WriteBatch::Commit runs it inside the commit's
  /// Cluster::Write, after the batch's TaaV writes.
  Status Install(const Maintenance& update, Cluster::Writer& writer)
      EXCLUDES(sizes_mu_);

  /// Storage footprint of one instance in bytes (for T2B's budget).
  uint64_t InstanceBytes(const KvSchema& kv) const;

  /// Storage node that owns the (first segment of the) block for `key`;
  /// used by the interleaved parallelizer (§7.2) to route partitions.
  int NodeForBlock(const KvSchema& kv, const Tuple& key) const;

  const Cluster* cluster() const { return cluster_; }

 private:
  std::string InstancePrefix(const KvSchema& kv) const;
  std::string SegmentKey(const KvSchema& kv, const Tuple& key,
                         uint64_t segment) const;
  /// Projects a relation-order tuple onto the given attribute names.
  Result<Tuple> ProjectTuple(const KvSchema& kv, const Tuple& tuple,
                             const std::vector<std::string>& attrs) const;
  /// The two-round fetch every block read runs on: the first segments of
  /// `refs` in one Cluster::MultiGet fan-out, then the overflow segments of
  /// split blocks in a second, both under `fanout`. After each round
  /// returns, `decode(i, body)` runs on every segment of block i that the
  /// round brought back, in slot order, so block i's segments arrive in
  /// segment order. Returns each block's segment count (0 when absent).
  /// An unreachable key fails the fetch when `lost` is null; otherwise
  /// `lost` gets one Status per ref, the round's kUnavailable status for
  /// a block with an unreachable segment (its other segments may have
  /// been decoded) and OK for the rest.
  Result<std::vector<uint64_t>> FetchSegments(
      const std::vector<BlockRef>& refs, QueryMetrics* m, CacheFill fill,
      FanoutMode fanout, FanoutStats* fanout_stats,
      const std::function<Status(size_t, std::string_view)>& decode,
      std::vector<Status>* lost) const;
  /// The shared read phase: fetches the derived instances' blocks for
  /// `tuple` that `pending` lacks, then appends the tuple's Y-projection
  /// to each staged block (`insert`) or erases one equal row from each.
  Status ReadAffected(const std::string& relation, const Tuple& tuple,
                      bool insert, Maintenance* pending) const;
  /// Rewrites the whole block for a key (re-splitting as needed) over
  /// the `old_segments` segments it had, deleting the ones no longer
  /// used, through the commit's `writer`. Never reads: the caller knows
  /// the old segment count.
  Status WriteBlock(const KvSchema& kv, const Tuple& key,
                    const std::vector<Tuple>& rows, uint64_t old_segments,
                    Cluster::Writer& writer) const;

  Cluster* cluster_;
  BaavSchema schema_;
  const Catalog* catalog_;
  BaavStoreOptions options_;
  /// instance -> (block size in tuples -> number of blocks of that size);
  /// an instance is absent until BuildInstance or Degree measures it.
  /// Concurrent prepares read (and may seed) it through Degree.
  mutable Mutex sizes_mu_;
  mutable std::map<std::string, std::map<uint64_t, uint64_t>> block_sizes_
      GUARDED_BY(sizes_mu_);
  /// Installs begun so far: a Degree scan seeds the counts only when no
  /// Install began while it scanned.
  uint64_t installs_ GUARDED_BY(sizes_mu_) = 0;
};

}  // namespace zidian

#endif  // ZIDIAN_BAAV_BAAV_STORE_H_
