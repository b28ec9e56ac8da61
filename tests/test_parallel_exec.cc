// Threaded-execution tests: ThreadPool basics, the determinism contract
// between ParallelMode::kSimulated and kThreads (identical rows in
// identical order, identical QueryMetrics counters, across repeated
// threaded runs at workers = 8), and concurrent-reader stress on
// Cluster::MultiGet and BlockCache for both KvBackend engines — the
// suites the ThreadSanitizer CI job runs.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "storage/backend.h"
#include "storage/block_cache.h"
#include "storage/cluster.h"
#include "workloads/workload.h"
#include "zidian/connection.h"
#include "zidian/zidian.h"

namespace zidian {
namespace {

// ------------------------------------------------------------ ThreadPool ---

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  pool.ParallelFor(kN, [&](size_t i) { counts[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ThreadPool, ZeroThreadsFallsBackToCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0);
  std::vector<int> hits(16, 0);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, HandlesEmptyAndRepeatedRegions) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [](size_t) { FAIL() << "no index to run"; });
  std::atomic<size_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 400u);
}

TEST(ThreadPool, MoreIndicesThanThreads) {
  ThreadPool pool(2);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(100, [&](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

// ------------------------------------------- simulated vs threads parity ---

class ParallelParityFixture : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    auto w = MakeMot(0.15, 23);
    ASSERT_TRUE(w.ok());
    workload_ = std::move(w).value();
    cluster_ = std::make_unique<Cluster>(ClusterOptions{
        .num_storage_nodes = 4, .backend = GetParam()});
    zidian_ = std::make_unique<Zidian>(&workload_.catalog, cluster_.get(),
                                       workload_.baav);
    ASSERT_TRUE(zidian_->LoadTaav(workload_.data).ok());
    ASSERT_TRUE(zidian_->BuildBaav(workload_.data).ok());
  }

  /// Reference run in kSimulated at `workers`. When a BlockCache is
  /// attached (the *_cached ctest configuration), one warm-up run first
  /// brings the cache to its steady state, so every compared run — any
  /// mode — sees identical cache contents.
  Relation Reference(PreparedQuery* q, int workers, AnswerInfo* info) {
    if (cluster_->cache_enabled()) {
      auto warm = q->Execute(ExecOptions{.workers = workers});
      EXPECT_TRUE(warm.ok()) << warm.status().ToString();
    }
    auto r = q->Execute(ExecOptions{.workers = workers}, info);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  Workload workload_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Zidian> zidian_;
};

TEST_P(ParallelParityFixture, HundredThreadedRunsMatchSimulatedExactly) {
  // The extend-heavy plan: scan vehicle, filter, fan the per-worker
  // MultiGets out into mot_test blocks, aggregate (mot-q8's shape).
  Connection conn = zidian_->Connect();
  auto prepared = conn.Prepare(workload_.queries[7].sql);  // mot-q8
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(prepared->result_preserving());

  AnswerInfo sim;
  Relation reference = Reference(&*prepared, 8, &sim);
  EXPECT_EQ(sim.parallel_mode, ParallelMode::kSimulated);
  std::string reference_text = reference.ToString(1u << 20);

  for (int run = 0; run < 100; ++run) {
    AnswerInfo thr;
    auto r = prepared->Execute(
        ExecOptions{.workers = 8, .parallel_mode = ParallelMode::kThreads},
        &thr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Byte-identical rows in identical order, identical counters — on
    // every one of the 100 runs, whatever the scheduler did.
    ASSERT_EQ(r->ToString(1u << 20), reference_text) << "run " << run;
    ASSERT_TRUE(CountersEqual(thr.metrics, sim.metrics))
        << "run " << run << "\n  sim: " << sim.metrics.ToString()
        << "\n  thr: " << thr.metrics.ToString();
    EXPECT_EQ(thr.parallel_mode, ParallelMode::kThreads);
    EXPECT_GT(thr.metrics.wall_seconds, 0.0);
  }
}

TEST_P(ParallelParityFixture, ParityHoldsAcrossQueryShapes) {
  // Point lookups, stats pushdown, scans-with-aggregates: every MOT query
  // must agree between the modes at every worker count.
  Connection conn = zidian_->Connect();
  for (const auto& q : workload_.queries) {
    auto prepared = conn.Prepare(q.sql);
    ASSERT_TRUE(prepared.ok()) << q.name << ": "
                               << prepared.status().ToString();
    for (int workers : {1, 2, 8}) {
      AnswerInfo sim;
      Relation reference = Reference(&*prepared, workers, &sim);
      AnswerInfo thr;
      auto r = prepared->Execute(
          ExecOptions{.workers = workers,
                      .parallel_mode = ParallelMode::kThreads},
          &thr);
      ASSERT_TRUE(r.ok()) << q.name << ": " << r.status().ToString();
      EXPECT_EQ(r->ToString(1u << 20), reference.ToString(1u << 20))
          << q.name << " workers=" << workers;
      EXPECT_TRUE(CountersEqual(thr.metrics, sim.metrics))
          << q.name << " workers=" << workers
          << "\n  sim: " << sim.metrics.ToString()
          << "\n  thr: " << thr.metrics.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, ParallelParityFixture,
                         ::testing::Values(BackendKind::kLsm,
                                           BackendKind::kMem),
                         [](const auto& info) {
                           return std::string(BackendKindName(info.param));
                         });

// --------------------------------------------- concurrent-reader stress ---

class ConcurrentStorageFixture : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(ClusterOptions{
        .num_storage_nodes = 4,
        .backend = GetParam(),
        .cache = {.capacity_bytes = 1 << 20, .shards = 4}});
    for (int i = 0; i < 256; ++i) {
      ASSERT_TRUE(cluster_->Put(Key(i), Val(i)).ok());
    }
  }

  static std::string Key(int i) { return "key-" + std::to_string(i); }
  static std::string Val(int i) { return "value-" + std::to_string(i); }

  std::unique_ptr<Cluster> cluster_;
};

TEST_P(ConcurrentStorageFixture, MultiGetFromManyThreadsStaysCorrect) {
  // 8 reader threads × repeated batches of present and absent keys, each
  // metering into its own QueryMetrics — the executor's fan-out contract.
  ThreadPool pool(7);
  constexpr int kThreads = 8;
  constexpr int kReps = 40;
  std::vector<QueryMetrics> metrics(kThreads);
  std::vector<int> failures(kThreads, 0);
  pool.ParallelFor(kThreads, [&](size_t t) {
    for (int rep = 0; rep < kReps; ++rep) {
      std::vector<std::string> keys;
      for (int i = 0; i < 64; ++i) {
        int k = (static_cast<int>(t) * 31 + rep * 17 + i * 5) % 320;
        keys.push_back(Key(k));  // k >= 256 is absent
      }
      auto values = cluster_->MultiGet(keys, &metrics[t], CacheFill::kFill,
                                       FanoutMode::kSerial);
      for (size_t i = 0; i < keys.size(); ++i) {
        int k = (static_cast<int>(t) * 31 + rep * 17 +
                 static_cast<int>(i) * 5) % 320;
        bool want_present = k < 256;
        if (values[i].has_value() != want_present ||
            (want_present && *values[i] != Val(k))) {
          ++failures[t];
        }
      }
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
    EXPECT_EQ(metrics[t].get_calls, uint64_t{64} * kReps);
  }
  // Logical gets across threads must sum exactly (no lost updates in any
  // per-thread meter); cache state must be coherent afterwards.
  QueryMetrics after;
  auto check = cluster_->MultiGet({Key(0), Key(300)}, &after, CacheFill::kFill,
                                  FanoutMode::kSerial);
  ASSERT_TRUE(check[0].has_value());
  EXPECT_EQ(*check[0], Val(0));
  EXPECT_FALSE(check[1].has_value());
}

INSTANTIATE_TEST_SUITE_P(Engines, ConcurrentStorageFixture,
                         ::testing::Values(BackendKind::kLsm,
                                           BackendKind::kMem),
                         [](const auto& info) {
                           return std::string(BackendKindName(info.param));
                         });

TEST(BlockCacheConcurrency, MixedProbeInsertEraseFromManyThreads) {
  BlockCache cache(BlockCacheOptions{.capacity_bytes = 64 << 10, .shards = 8});
  ThreadPool pool(7);
  pool.ParallelFor(8, [&](size_t t) {
    std::string value;
    for (int i = 0; i < 4000; ++i) {
      int k = (static_cast<int>(t) * 13 + i) % 512;
      std::string key = "k" + std::to_string(k);
      switch (i % 4) {
        case 0:
          cache.Insert(key, "value-" + std::to_string(k));
          break;
        case 1: {
          auto r = cache.Probe(key, &value);
          // A positive hit must carry the one value ever written for k.
          if (r == CacheLookup::kHit) {
            ASSERT_EQ(value, "value-" + std::to_string(k));
          }
          break;
        }
        case 2:
          cache.InsertNegative("absent-" + std::to_string(k));
          break;
        default:
          cache.Erase(key);
          break;
      }
    }
  });
  // The cache survives the storm with a consistent ledger.
  auto stats = cache.GetStats();
  EXPECT_LE(stats.bytes, size_t{64} << 10);
  EXPECT_GE(stats.entries, stats.negative_entries);

  // ...and still behaves after it: fresh insert, hit, erase, miss.
  std::string value;
  cache.Insert("post", "storm");
  ASSERT_EQ(cache.Probe("post", &value), CacheLookup::kHit);
  EXPECT_EQ(value, "storm");
  cache.Erase("post");
  EXPECT_EQ(cache.Probe("post", &value), CacheLookup::kMiss);
}

}  // namespace
}  // namespace zidian
