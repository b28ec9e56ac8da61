// Micro-benchmarks (google-benchmark) of the substrates: LSM store point
// ops, order-preserving codec, block codec, bloom filter, and the KBA
// extension ∝ vs a scan+join on the same data.
#include <benchmark/benchmark.h>

#include "baav/baav_store.h"
#include "baav/block.h"
#include "common/coding.h"
#include "common/rng.h"
#include "kba/kba_executor.h"
#include "storage/bloom_filter.h"
#include "storage/cluster.h"
#include "storage/lsm_store.h"
#include "storage/mem_backend.h"

namespace zidian {
namespace {

void BM_LsmPut(benchmark::State& state) {
  LsmStore store;
  Rng rng(1);
  int64_t i = 0;
  for (auto _ : state) {
    std::string key = "key" + std::to_string(i++ % 100000);
    benchmark::DoNotOptimize(store.Put(key, "value-payload-0123456789"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LsmPut);

void BM_LsmGet(benchmark::State& state) {
  LsmStore store;
  for (int i = 0; i < 20000; ++i) {
    ZIDIAN_CHECK_OK(store.Put("key" + std::to_string(i), "value" + std::to_string(i)));
  }
  store.Flush();
  store.Compact();
  Rng rng(2);
  for (auto _ : state) {
    std::string key = "key" + std::to_string(rng.Uniform(0, 19999));
    benchmark::DoNotOptimize(store.Get(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LsmGet);

void BM_LsmGetAbsentWithBloom(benchmark::State& state) {
  LsmStore store;
  for (int i = 0; i < 20000; ++i) {
    ZIDIAN_CHECK_OK(store.Put("key" + std::to_string(i), "v"));
  }
  store.Flush();
  Rng rng(3);
  for (auto _ : state) {
    std::string key = "absent" + std::to_string(rng.Next() % 100000);
    benchmark::DoNotOptimize(store.Get(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LsmGetAbsentWithBloom);

void BM_MemBackendGet(benchmark::State& state) {
  MemBackend store;
  for (int i = 0; i < 20000; ++i) {
    ZIDIAN_CHECK_OK(store.Put("key" + std::to_string(i), "value" + std::to_string(i)));
  }
  Rng rng(2);
  for (auto _ : state) {
    std::string key = "key" + std::to_string(rng.Uniform(0, 19999));
    benchmark::DoNotOptimize(store.Get(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemBackendGet);

/// Batched vs single-key point access against the cluster: the §7.2 claim
/// that one MultiGet per (worker, node) is never slower than a loop of
/// one-key MultiGets.
class ClusterPointFixture {
 public:
  explicit ClusterPointFixture(BackendKind kind) {
    ClusterOptions opts;
    opts.num_storage_nodes = 8;
    opts.backend = kind;
    cluster_ = std::make_unique<Cluster>(opts);
    for (int i = 0; i < 50000; ++i) {
      ZIDIAN_CHECK_OK(cluster_->Put("key" + std::to_string(i),
                                  "value-payload-0123456789", nullptr));
    }
    cluster_->FlushAll();
    Rng rng(9);
    for (int i = 0; i < 256; ++i) {
      probe_.push_back("key" + std::to_string(rng.Uniform(0, 49999)));
    }
  }
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::string> probe_;
};

void BM_ClusterSingleGetLoop(benchmark::State& state) {
  ClusterPointFixture fixture(static_cast<BackendKind>(state.range(0)));
  for (auto _ : state) {
    QueryMetrics m;
    // Materialize the fetched values, as the batched call does (and as any
    // real consumer of a point-get fan-out must).
    std::vector<std::optional<std::string>> results;
    results.reserve(fixture.probe_.size());
    for (const auto& k : fixture.probe_) {
      results.push_back(std::move(
          fixture.cluster_
              ->MultiGet({k}, &m, CacheFill::kFill, FanoutMode::kSerial)
              .values[0]));
    }
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixture.probe_.size()));
}
BENCHMARK(BM_ClusterSingleGetLoop)
    ->Arg(static_cast<int>(BackendKind::kLsm))
    ->Arg(static_cast<int>(BackendKind::kMem));

void BM_ClusterMultiGet(benchmark::State& state) {
  ClusterPointFixture fixture(static_cast<BackendKind>(state.range(0)));
  for (auto _ : state) {
    QueryMetrics m;
    benchmark::DoNotOptimize(fixture.cluster_->MultiGet(
        fixture.probe_, &m, CacheFill::kFill, FanoutMode::kSerial));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixture.probe_.size()));
}
BENCHMARK(BM_ClusterMultiGet)
    ->Arg(static_cast<int>(BackendKind::kLsm))
    ->Arg(static_cast<int>(BackendKind::kMem));

void BM_OrderedKeyEncode(benchmark::State& state) {
  Rng rng(4);
  Tuple t{Value(int64_t{123456}), Value("some-key-part"), Value(3.25)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeKeyTuple(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OrderedKeyEncode);

void BM_BlockCodec(benchmark::State& state) {
  Rng rng(5);
  std::vector<Tuple> rows;
  for (int i = 0; i < int(state.range(0)); ++i) {
    rows.push_back({Value(rng.Uniform(0, 9)), Value(rng.NextDouble() * 100)});
  }
  for (auto _ : state) {
    std::string data = EncodeBlock(rows, 2, {});
    std::vector<Tuple> back;
    benchmark::DoNotOptimize(DecodeBlock(data, 2, &back));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BlockCodec)->Arg(16)->Arg(256);

void BM_BlockStatsOnlyDecode(benchmark::State& state) {
  Rng rng(6);
  std::vector<Tuple> rows;
  for (int i = 0; i < 4096; ++i) {
    rows.push_back({Value(rng.Uniform(0, 9)), Value(rng.NextDouble() * 100)});
  }
  std::string data = EncodeBlock(rows, 2, {});
  for (auto _ : state) {
    BlockStats stats;
    benchmark::DoNotOptimize(DecodeBlockStats(data, 2, &stats));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockStatsOnlyDecode);

void BM_Bloom(benchmark::State& state) {
  BloomFilter bf(100000, 10);
  for (int i = 0; i < 100000; ++i) bf.Add("key" + std::to_string(i));
  Rng rng(7);
  for (auto _ : state) {
    std::string key = "key" + std::to_string(rng.Next() % 200000);
    benchmark::DoNotOptimize(bf.MayContain(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Bloom);

/// ∝ (point gets) vs scan+hash-join for a selective lookup: the §4.2 claim
/// that extension avoids touching the rest of the instance.
class ExtendVsJoin {
 public:
  ExtendVsJoin() : cluster_(ClusterOptions{.num_storage_nodes = 4}) {
    ZIDIAN_CHECK_OK(catalog_.AddTable(TableSchema("t",
                                                  {{"k", ValueType::kInt},
                                                   {"v", ValueType::kDouble}},
                                                  {"k"})));
    ZIDIAN_CHECK_OK(schema_.Add(MakeKvSchema("t", {"k"}, {"v"})));
    store_ = std::make_unique<BaavStore>(&cluster_, schema_, &catalog_);
    Relation data({"k", "v"});
    Rng rng(8);
    for (int64_t i = 0; i < 20000; ++i) {
      data.Add({Value(i % 5000), Value(rng.NextDouble())});
    }
    ZIDIAN_CHECK_OK(store_->BuildInstance(*schema_.Find("t@k"), data));
  }

  KvInst Probe() const {
    KvInst inst;
    inst.key_cols = {"x"};
    inst.rel = Relation({"x"});
    for (int64_t i = 0; i < 8; ++i) inst.rel.Add({Value(i * 17)});
    return inst;
  }

  Catalog catalog_;
  BaavSchema schema_;
  Cluster cluster_;
  std::unique_ptr<BaavStore> store_;
};

void BM_ExtendPointAccess(benchmark::State& state) {
  ExtendVsJoin fixture;
  KbaExecutor exec(fixture.store_.get());
  auto plan = KbaPlan::Extend(KbaPlan::Const(fixture.Probe()), "t@k", "t",
                              {{"x", "k"}});
  for (auto _ : state) {
    QueryMetrics m;
    benchmark::DoNotOptimize(exec.Execute(*plan, KbaExecOptions{}, &m));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExtendPointAccess);

void BM_ScanJoinSameLookup(benchmark::State& state) {
  ExtendVsJoin fixture;
  KbaExecutor exec(fixture.store_.get());
  auto plan = KbaPlan::Join(KbaPlan::Const(fixture.Probe()),
                            KbaPlan::InstanceScan("t@k", "t"),
                            {{"x", "t.k"}});
  for (auto _ : state) {
    QueryMetrics m;
    benchmark::DoNotOptimize(exec.Execute(*plan, KbaExecOptions{}, &m));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScanJoinSameLookup);

}  // namespace
}  // namespace zidian

BENCHMARK_MAIN();
