// Metered, sharded LRU cache over encoded block segments, placed above
// the KvBackend seam: Cluster consults it in MultiGet before
// touching a storage node, so a hit costs zero round trips and zero
// storage->SQL bytes. Entries are keyed by the full cluster key (for
// BaaV blocks, one entry per segment) and account their byte footprint
// (key + value); capacity is enforced per shard in bytes.
//
// Invalidation contract: the cache never answers stale data as long as
// every mutation flows through Cluster::Put / Cluster::Delete, which
// erase the touched key. BaavStore's incremental maintenance
// (Install -> WriteBlock, from a write batch's commit) writes through
// Cluster::Writer, the same entry points inside one Cluster::Write, so
// maintained blocks stay coherent without any cache-specific hooks in
// the BaaV layer. Reads fill the cache under the Cluster's storage gate,
// shared, and writes invalidate under its exclusive side, so a fill never
// lands after the invalidation of a commit it did not see. Writing
// directly to a node (Cluster::node(i)) bypasses invalidation and is for
// tests/tools only.
//
// Metering: Lookup/Insert update the cache's own aggregate counters;
// the per-query counters (QueryMetrics::cache_hits / cache_misses /
// cache_evictions / bytes_from_cache) are charged by Cluster, which
// keeps #get semantics paper-faithful — a hit still counts one logical
// get, it just saves the round trip.
#ifndef ZIDIAN_STORAGE_BLOCK_CACHE_H_
#define ZIDIAN_STORAGE_BLOCK_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace zidian {

struct BlockCacheOptions {
  /// Total cache budget across all shards; 0 disables the cache.
  size_t capacity_bytes = 0;
  /// Number of independently locked LRU shards (power of two preferred).
  int shards = 8;
};

/// Outcome of a tri-state lookup: a value, a remembered absence, or
/// nothing known.
enum class CacheLookup {
  kMiss,         ///< nothing cached: the caller must ask the backend
  kHit,          ///< value copied out
  kNegativeHit,  ///< the key is confirmed absent — skip the backend
};

/// A sharded LRU over (key, encoded segment value) pairs.
///
/// Thread-safe: each shard serializes its own lookups/inserts behind a
/// mutex; keys are spread across shards by hash so concurrent readers
/// rarely contend. All methods are safe to call through a const Cluster
/// (LRU reordering is interior mutability by design), and safe against
/// each other from any number of threads — the per-worker MultiGet
/// fan-out of the threaded executor hits these shards concurrently.
///
/// Negative caching: a key the backend confirmed absent can be remembered
/// with InsertNegative, so repeated misses on nonexistent keys stop
/// paying a round trip each. Negative entries live in the same LRU as
/// values (footprint = key bytes), are overwritten by a later Insert of a
/// real value, and are invalidated by Erase — i.e. by every Cluster::Put
/// / Delete — exactly like positive entries.
class BlockCache {
 public:
  explicit BlockCache(BlockCacheOptions options);

  /// Copies the cached value for `key` into `*value` and promotes the
  /// entry to most-recently-used. Returns false (and leaves `*value`
  /// alone) on a miss. Updates the aggregate hit/miss counters. A
  /// negative entry reads as a miss here — use Probe to distinguish.
  bool Lookup(std::string_view key, std::string* value);

  /// Tri-state lookup: kHit copies the value out, kNegativeHit means the
  /// key is cached-absent (value untouched), kMiss means nothing known.
  /// Promotes whatever entry it finds; meters hits/misses/negative_hits.
  CacheLookup Probe(std::string_view key, std::string* value);

  /// Inserts or overwrites `key`, evicting least-recently-used entries
  /// until the shard fits its budget. Returns the number of entries
  /// evicted (for QueryMetrics::cache_evictions). Values larger than a
  /// whole shard are not cached (returns 0, nothing evicted).
  size_t Insert(std::string_view key, std::string_view value);

  /// Remembers `key` as confirmed-absent. Same eviction contract as
  /// Insert; overwrites a positive entry if one exists (the caller just
  /// observed the backend disagree with it).
  size_t InsertNegative(std::string_view key);

  /// Drops `key` if cached. The invalidation entry point for writes.
  void Erase(std::string_view key);

  /// Write-path invalidation (Cluster::Put): a *negative* entry for `key`
  /// is replaced by the newly written value — the writer just proved the
  /// key exists, so merely evicting would make an immediate read-back
  /// miss and pay a round trip for bytes the middleware was holding. A
  /// positive entry is erased (conservative: stale bytes never linger),
  /// and an uncached key stays uncached (a write is not a read; it must
  /// not populate the cache). Returns entries evicted by the install, for
  /// QueryMetrics::cache_evictions. An oversized value erases the
  /// negative entry instead of installing (never leave a stale absence).
  size_t OnPut(std::string_view key, std::string_view value);

  /// Drops everything (bulk reload / LoadFromDir).
  void Clear();

  /// Aggregate counters since construction (monotonic except bytes /
  /// entries, which reflect current residency).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t inserts = 0;
    uint64_t negative_hits = 0;  ///< Probe answers served by a negative entry
    size_t bytes = 0;
    size_t entries = 0;           ///< positive + negative residents
    size_t negative_entries = 0;  ///< currently resident negative entries
  };
  Stats GetStats() const;

  size_t capacity_bytes() const { return options_.capacity_bytes; }
  const BlockCacheOptions& options() const { return options_; }

 private:
  struct Entry {
    std::string key;
    std::string value;
    bool negative = false;  // value empty, key confirmed absent
  };
  using LruList = std::list<Entry>;
  using Index = std::unordered_map<std::string_view, LruList::iterator>;

  /// One independently locked LRU. Everything mutable is guarded by `mu`;
  /// `capacity` is written once by the BlockCache constructor before the
  /// cache is shared and is immutable afterwards, so reads need no lock.
  struct Shard {
    mutable Mutex mu;
    LruList lru GUARDED_BY(mu);  // front = most recently used
    Index index GUARDED_BY(mu);
    size_t bytes GUARDED_BY(mu) = 0;
    size_t capacity = 0;
    size_t negative_entries GUARDED_BY(mu) = 0;
    uint64_t hits GUARDED_BY(mu) = 0;
    uint64_t misses GUARDED_BY(mu) = 0;
    uint64_t evictions GUARDED_BY(mu) = 0;
    uint64_t inserts GUARDED_BY(mu) = 0;
    uint64_t negative_hits GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(std::string_view key);
  size_t InsertEntry(std::string_view key, std::string_view value,
                     bool negative);

  // Locked internal helpers (the FooLocked() REQUIRES(mu) discipline):
  // the public methods take the shard lock exactly once, then compose
  // these under it.

  /// Drops the entry `it` points at — LRU node, index slot, byte and
  /// negative-entry accounting.
  void EraseLocked(Shard& shard, Index::iterator it) REQUIRES(shard.mu);
  /// Evicts least-recently-used entries until the shard fits its budget
  /// (never evicting the most-recent entry). Returns entries evicted and
  /// charges them to the shard's eviction counter.
  size_t EvictToFitLocked(Shard& shard) REQUIRES(shard.mu);

  BlockCacheOptions options_;
  std::vector<Shard> shards_;
};

}  // namespace zidian

#endif  // ZIDIAN_STORAGE_BLOCK_CACHE_H_
