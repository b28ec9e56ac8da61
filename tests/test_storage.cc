// Storage substrate tests: Bloom filter FPR, LSM store semantics (randomized
// differential test against std::map), iterators, compaction, persistence,
// the pluggable KvBackend seam (every engine must pass the same contract
// suite), and the DHT cluster's routing + metering (test_network_model
// covers MultiGet's per-node round-trip accounting).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "common/rng.h"
#include "storage/backend.h"
#include "storage/bloom_filter.h"
#include "storage/cluster.h"
#include "storage/lsm_store.h"
#include "storage/mem_backend.h"
#include "test_support.h"

namespace zidian {
namespace {

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter bf(1000, 10);
  for (int i = 0; i < 1000; ++i) bf.Add("key" + std::to_string(i));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bf.MayContain("key" + std::to_string(i)));
  }
}

TEST(BloomFilter, LowFalsePositiveRate) {
  BloomFilter bf(1000, 10);
  for (int i = 0; i < 1000; ++i) bf.Add("key" + std::to_string(i));
  int fp = 0;
  for (int i = 0; i < 10000; ++i) {
    if (bf.MayContain("absent" + std::to_string(i))) ++fp;
  }
  EXPECT_LT(fp, 400);  // ~1% expected at 10 bits/key; generous bound
}

TEST(LsmStore, BasicPutGetDelete) {
  LsmStore store;
  ASSERT_TRUE(store.Put("a", "1").ok());
  ASSERT_TRUE(store.Put("b", "2").ok());
  EXPECT_EQ(store.Get("a").value(), "1");
  ASSERT_TRUE(store.Put("a", "updated").ok());
  EXPECT_EQ(store.Get("a").value(), "updated");
  ASSERT_TRUE(store.Delete("a").ok());
  EXPECT_TRUE(store.Get("a").status().IsNotFound());
  EXPECT_EQ(store.Get("b").value(), "2");
  EXPECT_TRUE(store.Get("missing").status().IsNotFound());
}

TEST(LsmStore, GetReadsThroughFlushedRuns) {
  LsmStore store;
  ASSERT_TRUE(store.Put("k1", "old").ok());
  store.Flush();
  ASSERT_TRUE(store.Put("k1", "new").ok());  // memtable shadows the run
  EXPECT_EQ(store.Get("k1").value(), "new");
  store.Flush();
  EXPECT_EQ(store.Get("k1").value(), "new");  // newest run wins
  EXPECT_EQ(store.NumRuns(), 2u);
  store.Compact();
  EXPECT_EQ(store.NumRuns(), 1u);
  EXPECT_EQ(store.Get("k1").value(), "new");
}

TEST(LsmStore, TombstoneSurvivesFlushAndDropsOnCompaction) {
  LsmStore store;
  ASSERT_TRUE(store.Put("k", "v").ok());
  store.Flush();
  ASSERT_TRUE(store.Delete("k").ok());
  store.Flush();
  EXPECT_TRUE(store.Get("k").status().IsNotFound());
  store.Compact();
  EXPECT_TRUE(store.Get("k").status().IsNotFound());
  EXPECT_EQ(store.NumLiveEntries(), 0u);
}

TEST(LsmStore, IteratorMergesSourcesInOrder) {
  LsmStore store;
  ASSERT_TRUE(store.Put("b", "2").ok());
  store.Flush();
  ASSERT_TRUE(store.Put("a", "1").ok());
  ASSERT_TRUE(store.Put("c", "3").ok());
  store.Flush();
  ASSERT_TRUE(store.Put("b", "2v2").ok());  // shadow in memtable
  ASSERT_TRUE(store.Delete("c").ok());

  std::vector<std::pair<std::string, std::string>> seen;
  for (auto it = store.NewIterator(); it->Valid(); it->Next()) {
    seen.emplace_back(it->key(), it->value());
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<std::string, std::string>{"a", "1"}));
  EXPECT_EQ(seen[1], (std::pair<std::string, std::string>{"b", "2v2"}));
}

TEST(LsmStore, IteratorSeek) {
  LsmStore store;
  for (int i = 0; i < 20; i += 2) {
    ASSERT_TRUE(store.Put("k" + std::to_string(10 + i), "v").ok());
  }
  auto it = store.NewIterator();
  it->Seek("k15");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "k16");
}

/// Differential property: a random op sequence against std::map.
class LsmDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LsmDifferential, MatchesReferenceModel) {
  Rng rng(GetParam());
  LsmOptions opts;
  opts.memtable_flush_bytes = 512;  // force frequent flushes
  opts.compaction_trigger_runs = 3;
  LsmStore store(opts);
  std::map<std::string, std::string> model;

  for (int op = 0; op < 2000; ++op) {
    std::string key = "k" + std::to_string(rng.Uniform(0, 150));
    double dice = rng.NextDouble();
    if (dice < 0.55) {
      std::string value = rng.NextString(rng.Uniform(1, 20));
      ASSERT_TRUE(store.Put(key, value).ok());
      model[key] = value;
    } else if (dice < 0.75) {
      ASSERT_TRUE(store.Delete(key).ok());
      model.erase(key);
    } else if (dice < 0.8) {
      store.Flush();
    } else if (dice < 0.83) {
      store.Compact();
    } else {
      auto got = store.Get(key);
      auto want = model.find(key);
      if (want == model.end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << key;
      } else {
        ASSERT_TRUE(got.ok()) << key;
        EXPECT_EQ(*got, want->second);
      }
    }
  }
  // Final: full iteration equals the model.
  std::map<std::string, std::string> dumped;
  for (auto it = store.NewIterator(); it->Valid(); it->Next()) {
    dumped.emplace(std::string(it->key()), std::string(it->value()));
  }
  EXPECT_EQ(dumped, model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsmDifferential,
                         ::testing::Values(1, 7, 23, 99, 1234, 5555));

TEST(LsmStore, SaveAndLoadRoundTrip) {
  std::string path = ::testing::TempDir() + "/lsm_roundtrip.dat";
  LsmStore store;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        store.Put("key" + std::to_string(i), "val" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(store.Delete("key50").ok());
  ASSERT_TRUE(store.SaveToFile(path).ok());

  LsmStore restored;
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  EXPECT_EQ(restored.NumLiveEntries(), 99u);
  EXPECT_EQ(restored.Get("key7").value(), "val7");
  EXPECT_TRUE(restored.Get("key50").status().IsNotFound());
  std::remove(path.c_str());
}

// ------------------------------------------------- KvBackend contract ----
// Every node engine must satisfy the same observable semantics; the suite
// runs once per registered backend, through the interface only.
class KvBackendContract
    : public ::testing::TestWithParam<
          std::pair<const char*,
                    std::function<std::unique_ptr<KvBackend>()>>> {
 protected:
  void SetUp() override { backend_ = GetParam().second(); }
  std::unique_ptr<KvBackend> backend_;
};

TEST_P(KvBackendContract, PutGetDeleteOverwrite) {
  KvBackend& kv = *backend_;
  ASSERT_TRUE(kv.Put("a", "1").ok());
  ASSERT_TRUE(kv.Put("b", "2").ok());
  EXPECT_EQ(kv.Get("a").value(), "1");
  ASSERT_TRUE(kv.Put("a", "updated").ok());
  EXPECT_EQ(kv.Get("a").value(), "updated");
  ASSERT_TRUE(kv.Delete("a").ok());
  EXPECT_TRUE(kv.Get("a").status().IsNotFound());
  EXPECT_EQ(kv.Get("b").value(), "2");
  EXPECT_TRUE(kv.Get("missing").status().IsNotFound());
  EXPECT_EQ(kv.NumLiveEntries(), 1u);
}

TEST_P(KvBackendContract, MultiGetMatchesSingleGets) {
  KvBackend& kv = *backend_;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(kv.Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(kv.Delete("k7").ok());
  std::vector<std::string_view> keys{"k3", "k7", "absent", "k3", "k49"};
  std::vector<KvBackend::BatchedKey> requests;
  for (size_t i = 0; i < keys.size(); ++i) {
    requests.push_back({keys[i], static_cast<uint32_t>(i)});
  }
  std::vector<std::optional<std::string>> batched(keys.size());
  kv.MultiGet(requests, &batched);
  for (size_t i = 0; i < keys.size(); ++i) {
    auto single = kv.Get(keys[i]);
    EXPECT_EQ(batched[i].has_value(), single.ok()) << keys[i];
    if (single.ok()) {
      EXPECT_EQ(*batched[i], single.value()) << keys[i];
    }
  }
}

TEST_P(KvBackendContract, IteratorIsOrderedAndSkipsDeleted) {
  KvBackend& kv = *backend_;
  ASSERT_TRUE(kv.Put("c", "3").ok());
  ASSERT_TRUE(kv.Put("a", "1").ok());
  kv.Flush();  // no-op on engines without a write buffer
  ASSERT_TRUE(kv.Put("b", "2").ok());
  ASSERT_TRUE(kv.Delete("c").ok());
  std::vector<std::string> seen;
  for (auto it = kv.NewIterator(); it->Valid(); it->Next()) {
    seen.emplace_back(it->key());
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
  auto it = kv.NewIterator();
  it->Seek("aa");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "b");
}

TEST_P(KvBackendContract, SaveLoadRoundTripAndClear) {
  std::string path = ::testing::TempDir() + "/backend_roundtrip_" +
                     std::string(backend_->name()) + ".kv";
  KvBackend& kv = *backend_;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(kv.Put("key" + std::to_string(i), "val").ok());
  }
  ASSERT_TRUE(kv.Delete("key11").ok());
  ASSERT_TRUE(kv.SaveToFile(path).ok());
  ASSERT_TRUE(kv.Put("extra", "x").ok());
  ASSERT_TRUE(kv.LoadFromFile(path).ok());  // restores the saved snapshot
  EXPECT_EQ(kv.NumLiveEntries(), 39u);
  EXPECT_TRUE(kv.Get("extra").status().IsNotFound());
  EXPECT_TRUE(kv.Get("key11").status().IsNotFound());
  EXPECT_EQ(kv.Get("key7").value(), "val");
  kv.Clear();
  EXPECT_EQ(kv.NumLiveEntries(), 0u);
  std::remove(path.c_str());
}

TEST_P(KvBackendContract, TruncatedFileFailsToLoadAndLeavesTheNode) {
  ScopedDir dir(std::string("truncated-") + std::string(backend_->name()));
  const std::string path = dir.path() + "/node.kv";
  KvBackend& kv = *backend_;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(kv.Put("key" + std::to_string(i), "val" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(kv.SaveToFile(path).ok());
  // The save renamed its temporary file over the target.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 1);

  Status st = kv.LoadFromFile(path);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_EQ(kv.NumLiveEntries(), 30u);
  for (int i = 0; i < 30; ++i) {
    auto got = kv.Get("key" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(*got, "val" + std::to_string(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, KvBackendContract,
    ::testing::Values(
        std::pair<const char*, std::function<std::unique_ptr<KvBackend>()>>{
            "lsm", [] { return std::make_unique<LsmStore>(); }},
        std::pair<const char*, std::function<std::unique_ptr<KvBackend>()>>{
            "mem", [] { return std::make_unique<MemBackend>(); }}),
    [](const auto& info) { return std::string(info.param.first); });

TEST(KvBackend, FilesLoadAcrossEngines) {
  // The flat persistence format is backend-independent: a snapshot written
  // by the LSM engine restores into the hash-table engine and vice versa.
  std::string path = ::testing::TempDir() + "/cross_engine.kv";
  LsmStore lsm;
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(lsm.Put("key" + std::to_string(i), "v").ok());
  }
  lsm.Flush();
  ASSERT_TRUE(lsm.SaveToFile(path).ok());
  MemBackend mem;
  ASSERT_TRUE(mem.LoadFromFile(path).ok());
  EXPECT_EQ(mem.NumLiveEntries(), 25u);
  EXPECT_EQ(mem.Get("key13").value(), "v");
  std::remove(path.c_str());
}

TEST(Cluster, RoutesByHashAndMeters) {
  Cluster cluster(ClusterOptions{.num_storage_nodes = 4});
  QueryMetrics m;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster.Put("key" + std::to_string(i), "v", &m).ok());
  }
  EXPECT_EQ(m.put_calls, 200u);
  // Every node should own some keys.
  for (int n = 0; n < 4; ++n) {
    EXPECT_GT(cluster.node(n).NumLiveEntries(), 10u) << "node " << n;
  }
  auto got = GetOne(cluster, "key5", &m);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(m.get_calls, 1u);
  EXPECT_GT(m.bytes_from_storage, 0u);
}

TEST(Cluster, PrefixScanVisitsAllNodesAndCounts) {
  Cluster cluster(ClusterOptions{.num_storage_nodes = 3});
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cluster.Put("A:" + std::to_string(i), "v", nullptr).ok());
    ASSERT_TRUE(cluster.Put("B:" + std::to_string(i), "v", nullptr).ok());
  }
  QueryMetrics m;
  int seen = 0;
  cluster.ScanPrefix("A:", &m, [&](std::string_view k, std::string_view) {
    EXPECT_EQ(k.substr(0, 2), "A:");
    ++seen;
  });
  EXPECT_EQ(seen, 50);
  EXPECT_EQ(m.next_calls, 50u);
  int seen_b = 0;
  cluster.ScanPrefix("B:", nullptr,
                     [&](std::string_view, std::string_view) { ++seen_b; });
  EXPECT_EQ(seen_b, 50);
}

TEST(Cluster, DeleteIsMetered) {
  Cluster cluster(ClusterOptions{.num_storage_nodes = 2});
  ASSERT_TRUE(cluster.Put("doomed-key", "v", nullptr).ok());
  QueryMetrics m;
  ASSERT_TRUE(cluster.Delete("doomed-key", &m).ok());
  EXPECT_EQ(m.delete_calls, 1u);
  EXPECT_EQ(m.bytes_to_storage, std::string("doomed-key").size());
  EXPECT_TRUE(GetOne(cluster, "doomed-key", nullptr).status().IsNotFound());
}

TEST(Cluster, MemBackendServesTheSameInterface) {
  // The same workload behind ClusterOptions{.backend = kMem}: identical
  // results and metering, different node engine.
  ClusterOptions mem_opts;
  mem_opts.num_storage_nodes = 3;
  mem_opts.backend = BackendKind::kMem;
  Cluster cluster(mem_opts);
  EXPECT_EQ(cluster.node(0).name(), "mem");
  QueryMetrics m;
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(cluster.Put("A:" + std::to_string(i), "v", &m).ok());
  }
  EXPECT_EQ(m.put_calls, 120u);
  for (int n = 0; n < 3; ++n) {
    EXPECT_GT(cluster.node(n).NumLiveEntries(), 10u) << "node " << n;
  }
  auto got = GetOne(cluster, "A:5", &m);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(m.get_calls, 1u);
  int seen = 0;
  cluster.ScanPrefix("A:", nullptr,
                     [&](std::string_view, std::string_view) { ++seen; });
  EXPECT_EQ(seen, 120);
}

TEST(Cluster, CustomBackendFactoryWins) {
  ClusterOptions opts;
  opts.num_storage_nodes = 2;
  opts.backend = BackendKind::kLsm;  // overridden by the factory below
  opts.backend_factory = [] { return std::make_unique<MemBackend>(); };
  Cluster cluster(opts);
  EXPECT_EQ(cluster.node(0).name(), "mem");
  EXPECT_EQ(cluster.node(1).name(), "mem");
}

TEST(Backend, ProfilesOrderAsInPaper) {
  // §9: Kudu's scans are fastest, HBase slowest, Cassandra between.
  EXPECT_LT(SoK().get_us, SoC().get_us);
  EXPECT_LT(SoC().get_us, SoH().get_us);
  QueryMetrics m;
  m.makespan_get = 1e6;
  EXPECT_LT(SimSeconds(m, SoK()), SimSeconds(m, SoC()));
  EXPECT_LT(SimSeconds(m, SoC()), SimSeconds(m, SoH()));
}

}  // namespace
}  // namespace zidian
