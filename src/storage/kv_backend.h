// The pluggable storage-node interface. A Cluster is N KvBackend nodes
// behind a DHT; every SQL-layer access (TaaV scans, BaaV block fetches)
// goes through this seam, so swapping the per-node engine — LSM tree,
// in-memory hash table, or anything a downstream embeds via
// ClusterOptions::backend_factory — never touches the executors.
//
// The interface is deliberately small: point ops (Get / MultiGet / Put /
// Delete), ordered iteration (NewIterator, which Cluster builds prefix
// scans from), lifecycle hooks (Flush / Compact are no-ops for engines
// without a write buffer), and persistence. MultiGet is the batched hot
// path of the interleaved execution strategy (§7.2): one round trip fetches
// every key a worker owns on one node, instead of one trip per key.
//
// Metering: no method in this interface touches a QueryMetrics — engines
// are cost-oblivious by contract. All #get / round-trip / byte accounting
// (and the BlockCache that can absorb reads before they reach a node)
// lives one layer up in Cluster; an engine that counted its own work
// would double-charge it. Keep new engines meter-free.
//
// Concurrency contract: Get / MultiGet / NewIterator must be safe from
// any number of concurrent reader threads when no write is in flight —
// the threaded KBA executor fans per-worker MultiGets out concurrently.
// Writes (Put / Delete / Flush / Compact / Clear / Load) never overlap
// reads or each other: the Cluster's storage gate holds readers shared
// and writers exclusive, so engines need no locking of their own. A
// const method that mutates interior state (caches, counters) must
// synchronize that state itself (see LsmStore's bloom counter): readers
// run it concurrently.
#ifndef ZIDIAN_STORAGE_KV_BACKEND_H_
#define ZIDIAN_STORAGE_KV_BACKEND_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace zidian {

/// Ordered iteration over live (non-deleted) entries.
class KvIterator {
 public:
  virtual ~KvIterator() = default;
  /// Positions at the first key >= target.
  virtual void Seek(std::string_view target) = 0;
  virtual void SeekToFirst() = 0;
  virtual bool Valid() const = 0;
  virtual void Next() = 0;
  virtual std::string_view key() const = 0;
  virtual std::string_view value() const = 0;
};

/// One storage node's key-value engine. Every method is unmetered: the
/// caller (Cluster) charges QueryMetrics and handles cache invalidation
/// before delegating here.
class KvBackend {
 public:
  virtual ~KvBackend() = default;

  /// Engine identifier ("lsm", "mem", ...) for diagnostics.
  virtual std::string_view name() const = 0;

  /// Unmetered upsert. Cluster::Put charges put_calls / bytes_to_storage
  /// and invalidates the BlockCache before calling this.
  virtual Status Put(std::string_view key, std::string_view value) = 0;
  /// Unmetered delete; same division of labor as Put.
  virtual Status Delete(std::string_view key) = 0;
  /// NotFound if the key is absent or tombstoned. Unmetered; a call that
  /// reaches an engine is by definition a cache miss already charged as
  /// one get_call + one round trip by Cluster.
  virtual Result<std::string> Get(std::string_view key) const = 0;

  /// One request of a batched lookup: the key and the slot of the caller's
  /// result vector the value lands in (the request-id idiom of batched KV
  /// protocols — results come back tagged, never reordered by the caller).
  struct BatchedKey {
    std::string_view key;
    uint32_t slot;
  };

  /// Batched point lookup: for each request, writes the value into
  /// (*out)[slot], or leaves the slot untouched (nullopt) when the key is
  /// absent. `out` must be pre-sized past every slot. Keys are views and
  /// results land in place, so batching callers like Cluster::MultiGet
  /// neither copy key bytes nor shuffle results. The base implementation
  /// loops over Get; engines override it to serve a batch cheaper.
  /// Unmetered — Cluster charges one round trip per (node, batch) and only
  /// routes cache-missed keys here.
  virtual void MultiGet(std::span<const BatchedKey> keys,
                        std::vector<std::optional<std::string>>* out) const;

  /// Ordered iteration over live entries (Cluster derives prefix scans and
  /// meters next_calls / bytes per visited pair; iterators themselves are
  /// unmetered and never touch the BlockCache).
  virtual std::unique_ptr<KvIterator> NewIterator() const = 0;

  /// Write-buffer lifecycle; no-ops for engines without one.
  virtual void Flush() {}
  virtual void Compact() {}

  /// Drops every entry (used by LoadFromFile before restoring).
  virtual void Clear() = 0;

  /// Serializes all live entries to `path` / restores from it. All backends
  /// share the flat (count, length-prefixed pairs) file format, so data
  /// saved by one engine loads into another. A save writes `path`.tmp
  /// and renames it over `path` only when every byte reached the file; a
  /// load parses the whole file first and replaces the node's contents
  /// only when it parsed (Corruption otherwise, the node untouched).
  virtual Status SaveToFile(const std::string& path) const;
  virtual Status LoadFromFile(const std::string& path);

  virtual size_t ApproximateBytes() const = 0;
  virtual size_t NumLiveEntries() const = 0;
};

}  // namespace zidian

#endif  // ZIDIAN_STORAGE_KV_BACKEND_H_
