// An in-memory hash-table KvBackend: the fastest point-get engine. Where
// the LSM store pays a memtable probe plus one bloom/binary-search per
// sorted run, MemBackend is a single open-addressed hash lookup — the
// right node engine for workloads dominated by keyed-block fetches
// (scan-free KBA plans issue nothing else).
//
// Ordered iteration is not free on a hash table: NewIterator materializes
// a sorted snapshot of the live keys, so prefix scans cost O(n log n) per
// call. Pick MemBackend when the workload is point/MultiGet heavy and the
// working set fits in memory; pick LsmStore when scans dominate or data
// must spill.
//
// Thread safety: Get / MultiGet / NewIterator only read the table, so
// concurrent readers are safe as long as no write is in flight, which
// the Cluster's storage gate ensures (the KvBackend concurrency
// contract).
#ifndef ZIDIAN_STORAGE_MEM_BACKEND_H_
#define ZIDIAN_STORAGE_MEM_BACKEND_H_

#include <string>
#include <unordered_map>

#include "storage/kv_backend.h"

namespace zidian {

class MemBackend : public KvBackend {
 public:
  MemBackend() = default;

  std::string_view name() const override { return "mem"; }

  Status Put(std::string_view key, std::string_view value) override;
  Status Delete(std::string_view key) override;
  Result<std::string> Get(std::string_view key) const override;
  void MultiGet(std::span<const BatchedKey> keys,
                std::vector<std::optional<std::string>>* out) const override;

  std::unique_ptr<KvIterator> NewIterator() const override;

  void Clear() override;

  size_t ApproximateBytes() const override { return bytes_; }
  size_t NumLiveEntries() const override { return map_.size(); }

 private:
  // Transparent hashing so Get(string_view) never allocates a probe key.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  std::unordered_map<std::string, std::string, Hash, Eq> map_;
  size_t bytes_ = 0;
};

}  // namespace zidian

#endif  // ZIDIAN_STORAGE_MEM_BACKEND_H_
