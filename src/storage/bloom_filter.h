// Bloom filter used by sorted runs to skip point lookups that cannot match.
#ifndef ZIDIAN_STORAGE_BLOOM_FILTER_H_
#define ZIDIAN_STORAGE_BLOOM_FILTER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/hash.h"

namespace zidian {

/// Standard Bloom filter with double hashing (Kirsch-Mitzenmacher).
/// `bits_per_key` trades memory for false-positive rate; 10 bits/key gives
/// roughly a 1% FPR, the RocksDB default.
class BloomFilter {
 public:
  BloomFilter(size_t expected_keys, int bits_per_key = 10);

  void Add(std::string_view key);

  /// False negatives never happen; false positives at the configured rate.
  bool MayContain(std::string_view key) const;

 private:
  uint64_t NumBits() const { return bits_.size(); }

  std::vector<bool> bits_;
  int num_probes_;
};

}  // namespace zidian

#endif  // ZIDIAN_STORAGE_BLOOM_FILTER_H_
