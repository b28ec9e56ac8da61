// BlockCache tests: LRU/eviction/byte accounting at the cache level,
// hit/miss/round-trip metering and write invalidation at the cluster
// level, and end-to-end coherence on both engines — a cached Execute must
// be byte-identical to an uncached one before and after incremental
// maintenance (Zidian::Insert / Delete).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "storage/backend.h"
#include "storage/block_cache.h"
#include "storage/cluster.h"
#include "storage/mem_backend.h"
#include "test_support.h"
#include "workloads/workload.h"
#include "zidian/connection.h"
#include "zidian/zidian.h"

namespace zidian {
namespace {

// Scopes ZIDIAN_BLOCK_CACHE_BYTES manipulation: tests that assert on the
// presence/absence of a default-constructed cache must not inherit the
// value from the environment (the cache-enabled CI configuration exports
// it for the whole suite), and must put it back for the suites that do.
class ScopedCacheEnv {
 public:
  ScopedCacheEnv() {
    const char* prev = std::getenv("ZIDIAN_BLOCK_CACHE_BYTES");
    had_value_ = prev != nullptr;
    if (had_value_) value_ = prev;
    unsetenv("ZIDIAN_BLOCK_CACHE_BYTES");
  }
  ~ScopedCacheEnv() {
    if (had_value_) {
      setenv("ZIDIAN_BLOCK_CACHE_BYTES", value_.c_str(), 1);
    } else {
      unsetenv("ZIDIAN_BLOCK_CACHE_BYTES");
    }
  }

 private:
  bool had_value_ = false;
  std::string value_;
};

// ---------------------------------------------------------- cache unit ---

TEST(BlockCache, HitMissAndByteAccounting) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 1 << 20, .shards = 4});
  std::string value;
  EXPECT_FALSE(cache.Lookup("k1", &value));
  EXPECT_EQ(cache.Insert("k1", "hello"), 0u);
  ASSERT_TRUE(cache.Lookup("k1", &value));
  EXPECT_EQ(value, "hello");

  auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 2u + 5u);  // key + value
}

TEST(BlockCache, LruEvictsLeastRecentlyUsed) {
  // One shard so recency order is global and deterministic. Each entry is
  // 10 bytes (2-byte key + 8-byte value); budget fits exactly three.
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 30, .shards = 1});
  EXPECT_EQ(cache.Insert("k1", "01234567"), 0u);
  EXPECT_EQ(cache.Insert("k2", "01234567"), 0u);
  EXPECT_EQ(cache.Insert("k3", "01234567"), 0u);

  // Touch k1 so k2 becomes the LRU victim.
  std::string value;
  ASSERT_TRUE(cache.Lookup("k1", &value));
  EXPECT_EQ(cache.Insert("k4", "01234567"), 1u);

  EXPECT_FALSE(cache.Lookup("k2", &value));
  EXPECT_TRUE(cache.Lookup("k1", &value));
  EXPECT_TRUE(cache.Lookup("k3", &value));
  EXPECT_TRUE(cache.Lookup("k4", &value));
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_EQ(cache.GetStats().entries, 3u);
}

TEST(BlockCache, OverwriteUpdatesValueAndBytes) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 1 << 10, .shards = 1});
  cache.Insert("k", "short");
  cache.Insert("k", "a longer value");
  std::string value;
  ASSERT_TRUE(cache.Lookup("k", &value));
  EXPECT_EQ(value, "a longer value");
  auto stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 1u + 14u);
  EXPECT_EQ(stats.inserts, 1u);  // overwrite is not a new entry
}

TEST(BlockCache, EraseAndClear) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 1 << 10, .shards = 2});
  cache.Insert("k1", "v1");
  cache.Insert("k2", "v2");
  cache.Erase("k1");
  std::string value;
  EXPECT_FALSE(cache.Lookup("k1", &value));
  EXPECT_TRUE(cache.Lookup("k2", &value));
  cache.Erase("never-inserted");  // no-op
  cache.Clear();
  EXPECT_FALSE(cache.Lookup("k2", &value));
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.GetStats().bytes, 0u);
}

TEST(BlockCache, OversizedValueIsNotCached) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 16, .shards = 1});
  std::string big(64, 'x');
  EXPECT_EQ(cache.Insert("k", big), 0u);
  std::string value;
  EXPECT_FALSE(cache.Lookup("k", &value));
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(BlockCache, NegativeEntriesProbeAsConfirmedAbsent) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 1 << 10, .shards = 2});
  std::string value;
  EXPECT_EQ(cache.Probe("gone", &value), CacheLookup::kMiss);
  cache.InsertNegative("gone");
  EXPECT_EQ(cache.Probe("gone", &value), CacheLookup::kNegativeHit);
  // The bool API reads a negative entry as "no value available".
  EXPECT_FALSE(cache.Lookup("gone", &value));

  auto stats = cache.GetStats();
  EXPECT_EQ(stats.negative_hits, 2u);  // Probe + the Lookup wrapper
  EXPECT_EQ(stats.negative_entries, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 4u);  // key only — negatives carry no value

  // A real value overwrites the remembered absence; Erase drops either.
  cache.Insert("gone", "back");
  EXPECT_EQ(cache.Probe("gone", &value), CacheLookup::kHit);
  EXPECT_EQ(value, "back");
  EXPECT_EQ(cache.GetStats().negative_entries, 0u);
  cache.InsertNegative("gone");
  cache.Erase("gone");
  EXPECT_EQ(cache.Probe("gone", &value), CacheLookup::kMiss);
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.GetStats().bytes, 0u);
}

TEST(BlockCache, NegativeEntriesAreEvictableLikeValues) {
  // 16-byte budget in one shard: a negative ("nk" = 2 bytes) plus an
  // 8-byte value entry fit; the next insert evicts the LRU negative.
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 16, .shards = 1});
  cache.InsertNegative("nk");
  EXPECT_EQ(cache.Insert("k1", "123456"), 0u);  // 2 + 6 bytes; 10 of 16 used
  EXPECT_EQ(cache.Insert("k2", "123456"), 1u);  // evicts the negative (LRU)
  std::string value;
  EXPECT_EQ(cache.Probe("nk", &value), CacheLookup::kMiss);
  EXPECT_EQ(cache.Probe("k1", &value), CacheLookup::kHit);
  EXPECT_EQ(cache.GetStats().negative_entries, 0u);
}

// ------------------------------------------------------- cluster level ---

ClusterOptions CachedOptions(BackendKind backend = BackendKind::kLsm) {
  return ClusterOptions{
      .num_storage_nodes = 4,
      .backend = backend,
      .cache = {.capacity_bytes = 4 << 20, .shards = 4}};
}

TEST(ClusterCache, FullyCachedMultiGetPerformsZeroRoundTrips) {
  Cluster cluster(CachedOptions());
  std::vector<std::string> keys;
  for (int i = 0; i < 16; ++i) {
    keys.push_back("key-" + std::to_string(i));
    ASSERT_TRUE(cluster.Put(keys.back(), "value-" + std::to_string(i)).ok());
  }

  QueryMetrics cold;
  auto miss_pass = cluster.MultiGet(keys, &cold, CacheFill::kFill,
                                    FanoutMode::kSerial);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, 16u);
  EXPECT_GT(cold.get_round_trips, 0u);
  EXPECT_GT(cold.bytes_from_storage, 0u);

  QueryMetrics warm;
  auto hit_pass = cluster.MultiGet(keys, &warm, CacheFill::kFill,
                                   FanoutMode::kSerial);
  EXPECT_EQ(warm.cache_hits, 16u);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.get_round_trips, 0u);  // backend skipped entirely
  EXPECT_EQ(warm.get_calls, 16u);
  EXPECT_EQ(warm.bytes_from_storage, 0u);
  EXPECT_EQ(warm.bytes_from_cache, cold.bytes_from_storage);
  ASSERT_EQ(hit_pass.size(), miss_pass.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(hit_pass[i].has_value());
    EXPECT_EQ(*hit_pass[i], *miss_pass[i]);
  }
}

TEST(ClusterCache, PartiallyCachedMultiGetFetchesOnlyMisses) {
  Cluster cluster(CachedOptions());
  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back("key-" + std::to_string(i));
    ASSERT_TRUE(cluster.Put(keys.back(), "value-" + std::to_string(i)).ok());
  }
  // Warm half the keys.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(GetOne(cluster, keys[i], nullptr).ok());
  }

  QueryMetrics m;
  auto values = cluster.MultiGet(keys, &m, CacheFill::kFill,
                                 FanoutMode::kSerial);
  EXPECT_EQ(m.cache_hits, 4u);
  EXPECT_EQ(m.cache_misses, 4u);
  EXPECT_EQ(m.get_calls, 8u);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(values[i].has_value());
    EXPECT_EQ(*values[i], "value-" + std::to_string(i));
  }
}

TEST(ClusterCache, NoFillReadsNeverPopulateTheCache) {
  Cluster cluster(CachedOptions());
  ASSERT_TRUE(cluster.Put("key", "value").ok());

  // Misses with kNoFill pay the round trip and leave nothing behind.
  QueryMetrics m;
  ASSERT_TRUE(GetOne(cluster, "key", &m, CacheFill::kNoFill).ok());
  ASSERT_TRUE(GetOne(cluster, "key", &m, CacheFill::kNoFill).ok());
  EXPECT_EQ(m.cache_misses, 2u);
  EXPECT_EQ(m.get_round_trips, 2u);
  EXPECT_EQ(cluster.block_cache()->GetStats().entries, 0u);
  // Absences read with kNoFill plant no negative entry: repeats pay too.
  EXPECT_FALSE(GetOne(cluster, "ghost", &m, CacheFill::kNoFill).ok());
  EXPECT_FALSE(GetOne(cluster, "ghost", &m, CacheFill::kNoFill).ok());
  EXPECT_EQ(m.get_round_trips, 4u);
  EXPECT_EQ(cluster.block_cache()->GetStats().entries, 0u);

  // ...but a block a filling read already paid for still serves hits.
  ASSERT_TRUE(GetOne(cluster, "key", &m).ok());  // fill
  QueryMetrics after;
  ASSERT_TRUE(GetOne(cluster, "key", &after, CacheFill::kNoFill).ok());
  EXPECT_EQ(after.cache_hits, 1u);
  EXPECT_EQ(after.get_round_trips, 0u);
}

TEST(ClusterCache, MultiGetServesCachedAbsencesWithoutTrips) {
  Cluster cluster(CachedOptions());
  ASSERT_TRUE(cluster.Put("present-1", "v1").ok());
  ASSERT_TRUE(cluster.Put("present-2", "v2").ok());
  std::vector<std::string> keys{"present-1", "absent-1", "present-2",
                                "absent-2"};
  // The cold pass confirms both absences at the nodes and remembers them.
  QueryMetrics cold;
  auto first = cluster.MultiGet(keys, &cold, CacheFill::kFill,
                                FanoutMode::kSerial);
  EXPECT_TRUE(first[0].has_value());
  EXPECT_FALSE(first[1].has_value());
  EXPECT_GT(cold.get_round_trips, 0u);
  EXPECT_EQ(cold.cache_misses, 4u);
  EXPECT_EQ(cold.cache_negative_hits, 0u);
  EXPECT_EQ(cluster.block_cache()->GetStats().negative_entries, 2u);

  // Warm pass: positives hit, absences negative-hit, nothing travels.
  QueryMetrics warm;
  auto second = cluster.MultiGet(keys, &warm, CacheFill::kFill,
                                 FanoutMode::kSerial);
  EXPECT_EQ(warm.get_calls, 4u);
  EXPECT_EQ(warm.cache_hits, 2u);
  EXPECT_EQ(warm.cache_negative_hits, 2u);
  EXPECT_EQ(warm.get_round_trips, 0u);
  EXPECT_EQ(warm.bytes_from_storage, 0u);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(second[i].has_value(), first[i].has_value()) << i;
  }
}

TEST(ClusterCache, PutOverNegativeEntryInstallsTheValue) {
  Cluster cluster(CachedOptions());
  QueryMetrics m;
  EXPECT_FALSE(GetOne(cluster, "late", &m).ok());    // plants the negative
  ASSERT_TRUE(cluster.Put("late", "arrived").ok());  // upgrades it in place
  auto r = GetOne(cluster, "late", &m);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "arrived");
  EXPECT_EQ(m.cache_negative_hits, 0u);  // never served stale absence
  // The write-then-read hit: the installed value answered without a
  // round trip (1 trip total — the original absent probe).
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.get_round_trips, 1u);
  EXPECT_EQ(cluster.block_cache()->GetStats().negative_entries, 0u);
}

TEST(ClusterCache, PutOverUncachedOrPositiveKeyDoesNotInstall) {
  Cluster cluster(CachedOptions());
  // Uncached key: a write is not a read; nothing may be planted.
  ASSERT_TRUE(cluster.Put("fresh", "v1").ok());
  EXPECT_EQ(cluster.block_cache()->GetStats().entries, 0u);
  // Positive entry: the stale bytes are dropped, not overwritten —
  // metering-wise the next read is a miss that pays its trip.
  ASSERT_TRUE(GetOne(cluster, "fresh", nullptr).ok());  // fill "v1"
  ASSERT_TRUE(cluster.Put("fresh", "v2").ok());
  QueryMetrics m;
  auto r = GetOne(cluster, "fresh", &m);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "v2");
  EXPECT_EQ(m.cache_hits, 0u);
  EXPECT_EQ(m.cache_misses, 1u);
}

TEST(ClusterCache, BypassedPutOverNegativeEvictsWithoutInstalling) {
  Cluster cluster(CachedOptions());
  EXPECT_FALSE(GetOne(cluster, "late", nullptr).ok());  // plants the negative
  cluster.SetCacheBypass(true);
  ASSERT_TRUE(cluster.Put("late", "arrived").ok());  // invalidate only:
  cluster.SetCacheBypass(false);                     // a bypassed write
  EXPECT_EQ(cluster.block_cache()->GetStats().entries, 0u);  // cannot fill
  QueryMetrics m;
  auto r = GetOne(cluster, "late", &m);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "arrived");
  EXPECT_EQ(m.cache_hits, 0u);
  EXPECT_EQ(m.get_round_trips, 1u);
}

TEST(BlockCache, OnPutUpgradesNegativeEntriesInPlace) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 1 << 10, .shards = 1});
  cache.InsertNegative("k");
  EXPECT_EQ(cache.GetStats().negative_entries, 1u);
  EXPECT_EQ(cache.OnPut("k", "value"), 0u);
  std::string value;
  EXPECT_EQ(cache.Probe("k", &value), CacheLookup::kHit);
  EXPECT_EQ(value, "value");
  auto stats = cache.GetStats();
  EXPECT_EQ(stats.negative_entries, 0u);
  EXPECT_EQ(stats.bytes, 1u + 5u);  // footprint grew from key to key+value

  // Positive entries are dropped, unknown keys stay unknown.
  EXPECT_EQ(cache.OnPut("k", "other"), 0u);
  EXPECT_EQ(cache.Probe("k", &value), CacheLookup::kMiss);
  EXPECT_EQ(cache.OnPut("unknown", "x"), 0u);
  EXPECT_EQ(cache.Probe("unknown", &value), CacheLookup::kMiss);
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

/// MemBackend whose writes can be made to fail — the custom-engine seam
/// (ClusterOptions::backend_factory) is exactly where Put's Status return
/// is real, so the cache must never install a value the engine rejected.
class FlakyPutBackend : public MemBackend {
 public:
  static inline bool fail_puts = false;
  Status Put(std::string_view key, std::string_view value) override {
    if (fail_puts) return Status::Internal("injected write failure");
    return MemBackend::Put(key, value);
  }
};

TEST(ClusterCache, FailedPutNeverInstallsIntoTheCache) {
  ClusterOptions options = CachedOptions();
  options.backend_factory = [] { return std::make_unique<FlakyPutBackend>(); };
  Cluster cluster(options);
  FlakyPutBackend::fail_puts = false;

  EXPECT_FALSE(GetOne(cluster, "late", nullptr).ok());  // plants the negative
  FlakyPutBackend::fail_puts = true;
  EXPECT_FALSE(cluster.Put("late", "phantom").ok());  // backend rejects
  FlakyPutBackend::fail_puts = false;
  // The failed write must not have upgraded the entry: the key is still
  // absent in the backend, and the cache must agree (the stale negative
  // was dropped conservatively, not served as a value).
  QueryMetrics m;
  EXPECT_FALSE(GetOne(cluster, "late", &m).ok());
  EXPECT_EQ(m.cache_hits, 0u);
}

TEST(BlockCache, OnPutOversizedValueErasesTheNegativeEntry) {
  // Shard budget 32 bytes: the negative entry (1 byte) fits, the written
  // value does not. The stale absence must be gone, not left to answer
  // "NotFound" for a key that now exists.
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 32, .shards = 1});
  cache.InsertNegative("k");
  EXPECT_EQ(cache.OnPut("k", std::string(64, 'x')), 0u);
  std::string value;
  EXPECT_EQ(cache.Probe("k", &value), CacheLookup::kMiss);
  EXPECT_EQ(cache.GetStats().entries, 0u);
  EXPECT_EQ(cache.GetStats().negative_entries, 0u);
}

TEST(ClusterCache, DeleteInvalidatesCachedKey) {
  Cluster cluster(CachedOptions());
  ASSERT_TRUE(cluster.Put("key", "value").ok());
  ASSERT_TRUE(GetOne(cluster, "key", nullptr).ok());  // fill
  ASSERT_TRUE(cluster.Delete("key").ok());
  // NotFound, not a hit.
  EXPECT_TRUE(GetOne(cluster, "key", nullptr).status().IsNotFound());
}

TEST(ClusterCache, BypassSkipsReadsAndFillsButNotInvalidation) {
  Cluster cluster(CachedOptions());
  ASSERT_TRUE(cluster.Put("key", "value").ok());

  cluster.SetCacheBypass(true);
  QueryMetrics bypassed;
  ASSERT_TRUE(GetOne(cluster, "key", &bypassed).ok());
  ASSERT_TRUE(GetOne(cluster, "key", &bypassed).ok());
  EXPECT_EQ(bypassed.cache_hits, 0u);
  EXPECT_EQ(bypassed.cache_misses, 0u);
  EXPECT_EQ(bypassed.get_round_trips, 2u);  // every read paid a trip

  // Nothing was filled during the bypass...
  cluster.SetCacheBypass(false);
  QueryMetrics m;
  ASSERT_TRUE(GetOne(cluster, "key", &m).ok());
  EXPECT_EQ(m.cache_misses, 1u);
  // ...but a fill followed by a bypassed write still invalidates.
  cluster.SetCacheBypass(true);
  ASSERT_TRUE(cluster.Put("key", "newer").ok());
  cluster.SetCacheBypass(false);
  auto res = GetOne(cluster, "key", &m);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value(), "newer");
}

TEST(ClusterCache, EvictionsAreMeteredPerQuery) {
  ClusterOptions options = CachedOptions();
  // A budget that holds only a few pairs per shard forces evictions.
  options.cache = {.capacity_bytes = 64, .shards = 1};
  Cluster cluster(options);
  QueryMetrics m;
  for (int i = 0; i < 32; ++i) {
    std::string key = "key-" + std::to_string(i);
    ASSERT_TRUE(cluster.Put(key, "0123456789abcdef").ok());
    ASSERT_TRUE(GetOne(cluster, key, &m).ok());
  }
  EXPECT_GT(m.cache_evictions, 0u);
  EXPECT_EQ(cluster.block_cache()->GetStats().evictions, m.cache_evictions);
}

TEST(ClusterCache, EnvVariableEnablesCacheWhenOptionsSilent) {
  ScopedCacheEnv scoped_env;
  ASSERT_EQ(setenv("ZIDIAN_BLOCK_CACHE_BYTES", "65536", 1), 0);
  Cluster enabled{ClusterOptions{.num_storage_nodes = 2}};
  EXPECT_TRUE(enabled.cache_enabled());
  EXPECT_EQ(enabled.cache_capacity_bytes(), 65536u);

  ASSERT_EQ(setenv("ZIDIAN_BLOCK_CACHE_BYTES", "not-a-number", 1), 0);
  Cluster garbage{ClusterOptions{.num_storage_nodes = 2}};
  EXPECT_FALSE(garbage.cache_enabled());

  ASSERT_EQ(unsetenv("ZIDIAN_BLOCK_CACHE_BYTES"), 0);
  Cluster plain{ClusterOptions{.num_storage_nodes = 2}};
  EXPECT_FALSE(plain.cache_enabled());
}

// ------------------------------------------------- end-to-end coherence ---

class CachedExecutionFixture : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    auto w = MakeMot(0.3, 17);
    ASSERT_TRUE(w.ok());
    workload_ = std::move(w).value();
    cluster_ = std::make_unique<Cluster>(CachedOptions(GetParam()));
    zidian_ = std::make_unique<Zidian>(&workload_.catalog, cluster_.get(),
                                       workload_.baav);
    ASSERT_TRUE(zidian_->LoadTaav(workload_.data).ok());
    ASSERT_TRUE(zidian_->BuildBaav(workload_.data).ok());
  }

  static std::string Sorted(Relation r) {
    r.SortRows();
    return r.ToString();
  }

  // A scan-free point-lookup join: the workload every block fetch of which
  // the cache can absorb on a repeat.
  const std::string kSql =
      "SELECT v.make, t.test_result FROM vehicle v, mot_test t "
      "WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = 11";

  Workload workload_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Zidian> zidian_;
};

TEST_P(CachedExecutionFixture, RepeatedExecuteHitsCacheAndSavesRoundTrips) {
  Connection conn = zidian_->Connect();
  auto prepared = conn.Prepare(kSql);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  AnswerInfo cold, warm;
  auto r1 = prepared->Execute(ExecOptions{.workers = 2}, &cold);
  auto r2 = prepared->Execute(ExecOptions{.workers = 2}, &warm);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok());

  // Byte-identical results; identical logical #get; fewer round trips.
  EXPECT_EQ(Sorted(*r1), Sorted(*r2));
  EXPECT_EQ(cold.metrics.get_calls, warm.metrics.get_calls);
  EXPECT_EQ(cold.metrics.cache_hits, 0u);
  EXPECT_GT(warm.metrics.cache_hits, 0u);
  EXPECT_LT(warm.metrics.get_round_trips, cold.metrics.get_round_trips);
  EXPECT_GT(warm.metrics.bytes_from_cache, 0u);
  EXPECT_LT(warm.metrics.bytes_from_storage, cold.metrics.bytes_from_storage);
  // Hits are middleware-local memory in the cost model (makespan_get only
  // counts gets that reached storage), so simulated time drops too.
  EXPECT_LT(SimSeconds(warm.metrics, SoH()), SimSeconds(cold.metrics, SoH()));

  // Explain reports the cache configuration of the run.
  EXPECT_TRUE(prepared->Explain().cache_enabled);
  EXPECT_EQ(prepared->Explain().cache_capacity_bytes, uint64_t{4 << 20});
  EXPECT_FALSE(prepared->Explain().cache_bypassed);
}

TEST_P(CachedExecutionFixture, MaintenanceInvalidatesCachedBlocks) {
  Connection conn = zidian_->Connect();
  auto prepared = conn.Prepare(kSql);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  auto before = prepared->Execute(ExecOptions{.workers = 2});
  ASSERT_TRUE(before.ok());
  std::string before_text = Sorted(*before);

  // Insert a new MOT test for the queried vehicle: the cached mot_test
  // block for vehicle_id 11 must be invalidated by the maintenance write.
  Tuple row{Value(int64_t{999999}), Value(int64_t{11}),
            Value(int64_t{15000}),  Value(std::string("CACHED?")),
            Value(int64_t{123456}), Value(int64_t{1}),
            Value(int64_t{4}),      Value(std::string("NORMAL")),
            Value(49.99),           Value(int64_t{30}),
            Value(int64_t{7}),      Value(int64_t{0}),
            Value(int64_t{1}),      Value(int64_t{2})};
  ASSERT_TRUE(zidian_->Insert("mot_test", row).ok());

  AnswerInfo cached_info, uncached_info;
  auto cached = prepared->Execute(ExecOptions{.workers = 2}, &cached_info);
  auto uncached = prepared->Execute(
      ExecOptions{.workers = 2, .bypass_cache = true}, &uncached_info);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(uncached.ok());

  // The cached read reflects the insert and equals the uncached read.
  EXPECT_NE(Sorted(*cached), before_text);
  EXPECT_EQ(Sorted(*cached), Sorted(*uncached));
  bool found = false;
  for (const auto& r : cached->rows()) {
    for (const auto& v : r) found |= (v == Value(std::string("CACHED?")));
  }
  EXPECT_TRUE(found);

  // Deleting the tuple restores the original answer, again through the
  // cache-coherent path.
  ASSERT_TRUE(zidian_->Delete("mot_test", row).ok());
  auto after = prepared->Execute(ExecOptions{.workers = 2});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Sorted(*after), before_text);
}

TEST_P(CachedExecutionFixture, BypassedExecutionRecordsNoCacheTraffic) {
  Connection conn = zidian_->Connect();
  auto prepared = conn.Prepare(kSql);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Execute(ExecOptions{.workers = 2}).ok());  // warm

  AnswerInfo info;
  auto r = prepared->Execute(
      ExecOptions{.workers = 2, .bypass_cache = true}, &info);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(info.metrics.cache_hits, 0u);
  EXPECT_EQ(info.metrics.cache_misses, 0u);
  EXPECT_EQ(info.metrics.bytes_from_cache, 0u);
  EXPECT_TRUE(info.cache_bypassed);
  // The bypass is per execution: the cluster state is restored after.
  EXPECT_FALSE(cluster_->cache_bypassed());

  AnswerInfo again;
  ASSERT_TRUE(prepared->Execute(ExecOptions{.workers = 2}, &again).ok());
  EXPECT_GT(again.metrics.cache_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Engines, CachedExecutionFixture,
                         ::testing::Values(BackendKind::kLsm,
                                           BackendKind::kMem),
                         [](const auto& info) {
                           return std::string(BackendKindName(info.param));
                         });

TEST(UncachedCluster, RecordsNoCacheCounters) {
  ScopedCacheEnv scoped_env;  // a default cluster must really be cache-free
  auto w = MakeMot(0.2, 9);
  ASSERT_TRUE(w.ok());
  Cluster cluster(ClusterOptions{.num_storage_nodes = 2});
  ASSERT_FALSE(cluster.cache_enabled());
  Zidian z(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(z.LoadTaav(w->data).ok());
  ASSERT_TRUE(z.BuildBaav(w->data).ok());

  AnswerInfo info;
  auto r = z.Connect().Execute(w->queries[0].sql, ExecOptions{.workers = 2},
                               &info);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(info.cache_enabled);
  EXPECT_EQ(info.metrics.cache_hits, 0u);
  EXPECT_EQ(info.metrics.cache_misses, 0u);
  EXPECT_EQ(info.metrics.bytes_from_cache, 0u);
}

}  // namespace
}  // namespace zidian
