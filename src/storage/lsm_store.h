// An embedded LSM-style key-value store: the "NoSQL storage" substrate of the
// paper (§3) and the default KvBackend engine of a cluster node.
//
// Architecture (RocksDB-lite):
//   writes -> MemTable (ordered map) -> Flush() -> immutable SortedRun
//   SortedRun: sorted (key, entry) vector + Bloom filter for point lookups
//   Get: memtable, then runs newest -> oldest, short-circuited by Bloom
//   Compact(): k-way merges all runs, dropping shadowed entries/tombstones
//   NewIterator(): merging iterator over memtable + runs in key order,
//                  newest version wins, tombstones suppressed
//
// Thread safety: Get / MultiGet / NewIterator are safe from concurrent
// readers (the bloom-negative diagnostic counter is atomic; everything
// else they touch is immutable between writes). Put / Delete / Flush /
// Compact / Clear / Load are single-writer and must not overlap reads;
// the Cluster's storage gate keeps them apart (readers shared, writers
// exclusive). There is no mutex here by design, so clang's capability
// analysis has nothing to check in this file: the gate's contract is
// checked where it lives (storage/cluster.h), and the TSan CI job checks
// it dynamically (docs/ARCHITECTURE.md "Concurrency contract").
#ifndef ZIDIAN_STORAGE_LSM_STORE_H_
#define ZIDIAN_STORAGE_LSM_STORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/bloom_filter.h"
#include "storage/kv_backend.h"

namespace zidian {

struct LsmOptions {
  /// MemTable is flushed to a sorted run once it holds this many bytes.
  size_t memtable_flush_bytes = 4 << 20;
  /// Bloom filter density for flushed runs.
  int bloom_bits_per_key = 10;
  /// Merge all runs into one when their count reaches this threshold.
  int compaction_trigger_runs = 8;
};

class LsmStore : public KvBackend {
 public:
  explicit LsmStore(LsmOptions options = {});

  std::string_view name() const override { return "lsm"; }

  Status Put(std::string_view key, std::string_view value) override;
  Status Delete(std::string_view key) override;
  /// NotFound if the key is absent or tombstoned.
  Result<std::string> Get(std::string_view key) const override;
  void MultiGet(std::span<const BatchedKey> keys,
                std::vector<std::optional<std::string>>* out) const override;

  std::unique_ptr<KvIterator> NewIterator() const override;

  /// Makes the current memtable an immutable sorted run.
  void Flush() override;
  /// Full compaction: merges every run, discards shadowed versions.
  void Compact() override;

  void Clear() override;

  size_t ApproximateBytes() const override { return mem_bytes_ + run_bytes_; }
  size_t NumRuns() const { return runs_.size(); }
  size_t NumLiveEntries() const override;
  uint64_t bloom_negative_count() const {
    return bloom_negatives_.load(std::memory_order_relaxed);
  }

 private:
  enum class EntryType : uint8_t { kPut = 0, kTombstone = 1 };
  struct Entry {
    EntryType type;
    std::string value;
  };
  struct SortedRun {
    std::vector<std::pair<std::string, Entry>> entries;
    std::unique_ptr<BloomFilter> bloom;
    size_t bytes = 0;
  };

  void Insert(std::string_view key, Entry entry);
  void MaybeFlush();
  /// Live value for `key`, or nullptr if absent/tombstoned.
  const std::string* FindValue(std::string_view key) const;

  friend class LsmMergingIterator;

  LsmOptions options_;
  std::map<std::string, Entry, std::less<>> mem_;
  size_t mem_bytes_ = 0;
  size_t run_bytes_ = 0;
  std::vector<SortedRun> runs_;  // oldest first; back() is newest
  // Atomic: bumped inside const Get/MultiGet, which run concurrently.
  mutable std::atomic<uint64_t> bloom_negatives_{0};
};

}  // namespace zidian

#endif  // ZIDIAN_STORAGE_LSM_STORE_H_
