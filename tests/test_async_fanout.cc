// The serial-vs-overlapped fan-out parity battery. Cluster::MultiGet under
// FanoutMode::kOverlapped (and the overlapped per-node request chains on
// the TaaV scan) must be indistinguishable from the serial schedule
// everywhere the determinism contract can look: byte-identical values,
// per-slot failure flags and statuses at the Cluster layer; byte-identical
// rows and CountersEqual metrics at the query layer — across both
// engines, both parallel modes (kSimulated / kThreads), worker counts
// 1/2/4/8, and repeated threaded runs. Only the schedule-shape fields
// (net_overlap_ns / net_inflight_max), which CountersEqual ignores, may
// differ between FanoutMode::kSerial and kOverlapped — and those must
// themselves be deterministic: equal across parallel modes for a fixed
// partition. The last fixture pins the KBA executor's fetch rounds
// (kba/kba_executor.h): which extensions share a round, what a round
// reads, and that it stalls once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "kba/kba_executor.h"
#include "kba/kba_plan.h"
#include "sql/binder.h"
#include "storage/backend.h"
#include "storage/cluster.h"
#include "storage/network_model.h"
#include "test_support.h"
#include "workloads/workload.h"
#include "zidian/connection.h"
#include "zidian/planner.h"
#include "zidian/zidian.h"

namespace zidian {
namespace {

// ----------------------------------------------- cluster-level parity ---

ClusterOptions NetworkedClusterOptions() {
  ClusterOptions co{.num_storage_nodes = 4, .backend = BackendKind::kMem};
  co.network.link =
      NetworkLinkOptions{.rtt_us = 5, .per_key_us = 1, .per_byte_us = 0.01};
  return co;
}

std::vector<std::string> SeedKeys(Cluster* cluster, int count) {
  std::vector<std::string> keys;
  for (int i = 0; i < count; ++i) {
    keys.push_back("fanout-key-" + std::to_string(i));
    EXPECT_TRUE(
        cluster->Put(keys.back(), "value-" + std::to_string(i), nullptr).ok());
  }
  return keys;
}

size_t TouchedNodes(const Cluster& cluster,
                    const std::vector<std::string>& keys) {
  std::set<int> nodes;
  for (const auto& k : keys) nodes.insert(cluster.NodeFor(k));
  return nodes.size();
}

void ExpectSameOutcome(const MultiGetResult& sync_res,
                       const MultiGetResult& async_res, size_t n) {
  EXPECT_EQ(sync_res.ok(), async_res.ok());
  EXPECT_EQ(sync_res.status.ToString(), async_res.status.ToString());
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(sync_res[i].has_value(), async_res[i].has_value()) << i;
    if (sync_res[i].has_value()) {
      EXPECT_EQ(*sync_res[i], *async_res[i]) << i;
    }
    EXPECT_EQ(sync_res.Failed(i), async_res.Failed(i)) << i;
  }
}

TEST(AsyncMultiGetTest, FinishMatchesSyncByteForByte) {
  Cluster cluster(NetworkedClusterOptions());
  std::vector<std::string> keys = SeedKeys(&cluster, 60);
  keys.push_back("never-written-a");  // absent slots take the same path
  keys.push_back("never-written-b");

  // kNoFill keeps both runs cold even under the cache-enabled ctest
  // configuration — the sync run must not warm the async one's keys.
  QueryMetrics ms;
  MultiGetResult sync_res = cluster.MultiGet(keys, &ms, CacheFill::kNoFill,
                                             FanoutMode::kSerial);
  ASSERT_TRUE(sync_res.ok()) << sync_res.status.ToString();

  QueryMetrics ma;
  FanoutStats fs;
  MultiGetResult async_res = cluster.MultiGet(
      keys, &ma, CacheFill::kNoFill, FanoutMode::kOverlapped, &fs);

  ExpectSameOutcome(sync_res, async_res, keys.size());
  // Identical logical work: CountersEqual cannot tell the fan-outs apart.
  EXPECT_TRUE(CountersEqual(ms, ma))
      << "sync: " << ms.ToString() << "\nasync: " << ma.ToString();
  // The schedule shape is where they differ: with 4 healthy nodes in
  // flight together, all but the slowest batch's latency is hidden.
  EXPECT_GT(fs.overlap_ns, 0u);
  EXPECT_EQ(fs.inflight_max, TouchedNodes(cluster, keys));
}

TEST(AsyncMultiGetTest, NoNetworkModelCompletesAtIssue) {
  // Without a NetworkModel there is no modeled time to overlap, and the
  // result still matches the sync path exactly.
  Cluster cluster(
      ClusterOptions{.num_storage_nodes = 4, .backend = BackendKind::kMem});
  std::vector<std::string> keys = SeedKeys(&cluster, 40);

  QueryMetrics ms;
  MultiGetResult sync_res = cluster.MultiGet(keys, &ms, CacheFill::kNoFill,
                                             FanoutMode::kSerial);

  QueryMetrics ma;
  FanoutStats fs;
  MultiGetResult async_res = cluster.MultiGet(
      keys, &ma, CacheFill::kNoFill, FanoutMode::kOverlapped, &fs);
  ExpectSameOutcome(sync_res, async_res, keys.size());
  EXPECT_TRUE(CountersEqual(ms, ma))
      << "sync: " << ms.ToString() << "\nasync: " << ma.ToString();
  EXPECT_EQ(fs.overlap_ns, 0u);
}

TEST(AsyncMultiGetTest, FullyCachedBatchIssuesNoBatches) {
  // A cache hit never left the middleware, so it has nothing to overlap:
  // a fully warmed batch issues no batch and zero round trips — under
  // the overlapped schedule exactly as under the serial one.
  ClusterOptions co = NetworkedClusterOptions();
  co.cache = {.capacity_bytes = 1 << 20, .shards = 4};
  Cluster cluster(co);
  std::vector<std::string> keys = SeedKeys(&cluster, 40);

  QueryMetrics warm;
  // Bring every key into the cache.
  (void)cluster.MultiGet(keys, &warm, CacheFill::kFill, FanoutMode::kSerial);

  QueryMetrics ms;
  MultiGetResult sync_res = cluster.MultiGet(keys, &ms, CacheFill::kFill,
                                             FanoutMode::kSerial);
  QueryMetrics ma;
  FanoutStats fs;
  MultiGetResult async_res = cluster.MultiGet(
      keys, &ma, CacheFill::kFill, FanoutMode::kOverlapped, &fs);
  ExpectSameOutcome(sync_res, async_res, keys.size());
  EXPECT_TRUE(CountersEqual(ms, ma))
      << "sync: " << ms.ToString() << "\nasync: " << ma.ToString();
  EXPECT_EQ(ma.cache_hits, keys.size());
  EXPECT_EQ(ma.get_round_trips, 0u);
  EXPECT_EQ(fs.overlap_ns, 0u);
  EXPECT_EQ(fs.inflight_max, 0u);
}

// ------------------------------------------------- query-level parity ---

// The full sweep: for each engine and each route, the FanoutMode::kSerial
// kSimulated run at each worker count is the reference; the kOverlapped
// runs — simulated and 30 repeated threaded runs per worker count — must
// reproduce its rows and CountersEqual counters exactly, while their
// schedule-shape fields agree with each other across parallel modes.
class AsyncParityFixture : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    auto w = MakeMot(0.15, 23);
    ASSERT_TRUE(w.ok());
    workload_ = std::move(w).value();
    ClusterOptions co{.num_storage_nodes = 4, .backend = GetParam()};
    co.network.link =
        NetworkLinkOptions{.rtt_us = 5, .per_key_us = 1, .per_byte_us = 0.01};
    cluster_ = std::make_unique<Cluster>(co);
    zidian_ = std::make_unique<Zidian>(&workload_.catalog, cluster_.get(),
                                       workload_.baav);
    ASSERT_TRUE(zidian_->LoadTaav(workload_.data).ok());
    ASSERT_TRUE(zidian_->BuildBaav(workload_.data).ok());
  }

  void SweepRoute(RoutePolicy policy, size_t query_index, int repeats,
                  bool expect_overlap) {
    Connection conn = zidian_->Connect();
    auto prepared = conn.Prepare(workload_.queries[query_index].sql);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

    // Under the cache-enabled ctest configuration, warm once so every
    // compared run sees identical residency (a warm cache legitimately
    // removes round trips — and with them any overlap).
    if (cluster_->cache_enabled()) {
      auto warm = prepared->Execute(
          ExecOptions{.workers = 8, .route_policy = policy});
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    }

    uint64_t overlap_seen = 0;
    for (int workers : {1, 2, 4, 8}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      AnswerInfo serial;
      auto ref = prepared->Execute(ExecOptions{.workers = workers,
                                               .route_policy = policy,
                                               .fanout = FanoutMode::kSerial},
                                   &serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      std::string reference_rows = ref->ToString(1u << 20);
      // The serial fan-out never reports schedule shape.
      EXPECT_EQ(serial.metrics.net_overlap_ns, 0u);
      EXPECT_EQ(serial.metrics.net_inflight_max, 0u);

      AnswerInfo over_sim;
      auto os = prepared->Execute(
          ExecOptions{.workers = workers,
                      .route_policy = policy,
                      .fanout = FanoutMode::kOverlapped},
          &over_sim);
      ASSERT_TRUE(os.ok()) << os.status().ToString();
      ASSERT_EQ(os->ToString(1u << 20), reference_rows);
      ASSERT_TRUE(CountersEqual(over_sim.metrics, serial.metrics))
          << "serial: " << serial.metrics.ToString()
          << "\noverlapped: " << over_sim.metrics.ToString();
      overlap_seen = std::max(overlap_seen, over_sim.metrics.net_overlap_ns);

      for (int run = 0; run < repeats; ++run) {
        // Alternate threaded-serial and threaded-overlapped runs: every
        // combination of (FanoutMode, ParallelMode) lands on the same
        // rows and counters, whatever the scheduler did.
        const bool overlapped = (run % 2) == 1;
        AnswerInfo thr;
        auto r = prepared->Execute(
            ExecOptions{.workers = workers,
                        .route_policy = policy,
                        .parallel_mode = ParallelMode::kThreads,
                        .fanout = overlapped ? FanoutMode::kOverlapped
                                             : FanoutMode::kSerial},
            &thr);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ASSERT_EQ(r->ToString(1u << 20), reference_rows) << "run " << run;
        ASSERT_TRUE(CountersEqual(thr.metrics, serial.metrics))
            << "run " << run << "\n  serial: " << serial.metrics.ToString()
            << "\n  threaded: " << thr.metrics.ToString();
        // Schedule shape is deterministic too: a fixed partition yields
        // the same overlap in kThreads as in kSimulated, run after run.
        if (overlapped) {
          ASSERT_EQ(thr.metrics.net_overlap_ns, over_sim.metrics.net_overlap_ns)
              << "run " << run;
          ASSERT_EQ(thr.metrics.net_inflight_max,
                    over_sim.metrics.net_inflight_max)
              << "run " << run;
        } else {
          ASSERT_EQ(thr.metrics.net_overlap_ns, 0u) << "run " << run;
        }
      }
    }
    if (expect_overlap && !cluster_->cache_enabled()) {
      // Somewhere in the sweep a worker's partition spanned several nodes
      // and hid modeled time. (Cells at workers >= nodes may legitimately
      // overlap nothing: the executor partitions keys node-aligned, so
      // each batch collapses onto a single node there.)
      EXPECT_GT(overlap_seen, 0u);
    }
  }

  Workload workload_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Zidian> zidian_;
};

TEST_P(AsyncParityFixture, KbaRouteSyncVsAsyncSweep) {
  // mot-q1 and mot-q6 (the deepest extension chain in the sweep): every
  // extension is keyed by the constant, so each query is one fetch round
  // of per-worker batched MultiGets through BaavStore::MultiGetBlocks,
  // under both schedules. The MOT seed queries extend from a single seed
  // block, so each batch touches few nodes; positive overlap is asserted
  // by the wide direct-plan sweep below, parity here.
  for (size_t query_index : {0, 5}) {
    SCOPED_TRACE(workload_.queries[query_index].name);
    SweepRoute(RoutePolicy::kAuto, query_index, /*repeats=*/30,
               /*expect_overlap=*/false);
  }
}

TEST_P(AsyncParityFixture, BaselineRouteSyncVsAsyncSweep) {
  // The TaaV per-tuple scan: overlapped per-node request chains instead
  // of one stall per tuple. Fewer repeats — the blind scan pays a modeled
  // stall per tuple, so each run costs more wall-clock than a KBA run.
  SweepRoute(RoutePolicy::kForceBaseline, /*query_index=*/7, /*repeats=*/10,
             /*expect_overlap=*/true);
}

TEST_P(AsyncParityFixture, ExtendHeavyPlanSyncVsAsyncSweep) {
  // The §7.2 fan-out at its widest, driven straight through the executor
  // (the SQL seed queries extend from one seed block; this plan extends a
  // constant block of EVERY vehicle id into mot_test@vehicle_id, so each
  // worker's batch spans all four storage nodes): both the block route
  // and the stats-header route, kSerial reference vs kOverlapped across
  // both parallel modes, workers 1/2/4/8, 30 repeats.
  KvInst seeds;
  seeds.key_cols = {"d"};
  seeds.rel = Relation(seeds.key_cols);
  for (int64_t v = 1; v <= 64; ++v) seeds.rel.Add({Value(v)});
  KbaExecutor exec(&zidian_->store());

  for (bool stats_only : {false, true}) {
    SCOPED_TRACE(stats_only ? "stats" : "blocks");
    auto plan = KbaPlan::Extend(KbaPlan::Const(seeds), "mot_test@vehicle_id",
                                "t", {{"d", "vehicle_id"}}, stats_only);
    if (cluster_->cache_enabled()) {
      QueryMetrics warm;
      auto r = exec.Execute(*plan, KbaExecOptions{.workers = 8}, &warm);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    uint64_t overlap_seen = 0;
    uint64_t inflight_seen = 0;
    for (int workers : {1, 2, 4, 8}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      QueryMetrics serial;
      auto ref = exec.Execute(
          *plan,
          KbaExecOptions{.workers = workers, .fanout = FanoutMode::kSerial},
          &serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      EXPECT_EQ(serial.net_overlap_ns, 0u);

      QueryMetrics over_sim;
      auto os = exec.Execute(*plan,
                             KbaExecOptions{.workers = workers,
                                            .fanout = FanoutMode::kOverlapped},
                             &over_sim);
      ASSERT_TRUE(os.ok()) << os.status().ToString();
      ASSERT_EQ(os->rel.rows(), ref->rel.rows());
      ASSERT_TRUE(CountersEqual(over_sim, serial))
          << "serial: " << serial.ToString()
          << "\noverlapped: " << over_sim.ToString();
      overlap_seen = std::max(overlap_seen, over_sim.net_overlap_ns);
      inflight_seen = std::max(inflight_seen, over_sim.net_inflight_max);

      ThreadPool pool(workers - 1);
      for (int run = 0; run < 30; ++run) {
        const bool overlapped = (run % 2) == 1;
        QueryMetrics thr;
        auto r = exec.Execute(
            *plan,
            KbaExecOptions{.workers = workers,
                           .pool = &pool,
                           .fanout = overlapped ? FanoutMode::kOverlapped
                                                : FanoutMode::kSerial},
            &thr);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        ASSERT_EQ(r->rel.rows(), ref->rel.rows()) << "run " << run;
        ASSERT_TRUE(CountersEqual(thr, serial))
            << "run " << run << "\n  serial: " << serial.ToString()
            << "\n  threaded: " << thr.ToString();
        if (overlapped) {
          ASSERT_EQ(thr.net_overlap_ns, over_sim.net_overlap_ns)
              << "run " << run;
          ASSERT_EQ(thr.net_inflight_max, over_sim.net_inflight_max)
              << "run " << run;
        } else {
          ASSERT_EQ(thr.net_overlap_ns, 0u) << "run " << run;
        }
      }
    }
    if (!cluster_->cache_enabled()) {
      // At workers < nodes each worker's batch spans several nodes, so
      // the sweep must have hidden time behind concurrent batches; at
      // workers >= nodes the node-aligned partition makes every batch
      // single-node, which is why the check aggregates over the sweep.
      EXPECT_GT(overlap_seen, 0u);
      EXPECT_GT(inflight_seen, 1u);
    }
  }
}

TEST_P(AsyncParityFixture, EveryQueryShapeAgreesAcrossFanoutModes) {
  // Point lookups, stats pushdown, scans-with-aggregates: the whole MOT
  // sweep on the auto route at the interesting worker counts.
  Connection conn = zidian_->Connect();
  for (const auto& q : workload_.queries) {
    SCOPED_TRACE(q.name);
    auto prepared = conn.Prepare(q.sql);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    if (cluster_->cache_enabled()) {
      auto warm = prepared->Execute(ExecOptions{.workers = 8});
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    }
    for (int workers : {1, 8}) {
      AnswerInfo serial;
      auto ref = prepared->Execute(
          ExecOptions{.workers = workers, .fanout = FanoutMode::kSerial},
          &serial);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      for (ParallelMode mode :
           {ParallelMode::kSimulated, ParallelMode::kThreads}) {
        AnswerInfo over;
        auto r = prepared->Execute(
            ExecOptions{.workers = workers,
                        .parallel_mode = mode,
                        .fanout = FanoutMode::kOverlapped},
            &over);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(r->ToString(1u << 20), ref->ToString(1u << 20))
            << "workers=" << workers;
        EXPECT_TRUE(CountersEqual(over.metrics, serial.metrics))
            << "workers=" << workers
            << "\n  serial: " << serial.metrics.ToString()
            << "\n  overlapped: " << over.metrics.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, AsyncParityFixture,
                         ::testing::Values(BackendKind::kLsm,
                                           BackendKind::kMem),
                         [](const auto& info) {
                           return std::string(BackendKindName(info.param));
                         });

// ------------------------------------------------------- fetch rounds ---

// Extensions keyed by columns of their round's input share one fetch
// round (kba/kba_executor.h): each worker fetches their blocks in one
// batched request and stalls once. Default options throughout, except
// that the BlockCache is bypassed so every block read reaches a node
// under the cache-enabled ctest configuration too.
class FetchRoundsFixture : public ::testing::Test {
 protected:
  static constexpr int64_t kVehicle = 3;
  static constexpr uint64_t kRttNs = 5000;  // NetworkedClusterOptions

  void SetUp() override {
    auto w = MakeMot(0.15, 23);
    ASSERT_TRUE(w.ok());
    workload_ = std::move(w).value();
    cluster_ = std::make_unique<Cluster>(NetworkedClusterOptions());
    zidian_ = std::make_unique<Zidian>(&workload_.catalog, cluster_.get(),
                                       workload_.baav);
    ASSERT_TRUE(zidian_->LoadTaav(workload_.data).ok());
    ASSERT_TRUE(zidian_->BuildBaav(workload_.data).ok());
  }

  /// mot-q1 (two extensions keyed by the constant) for one vehicle.
  static std::string Q1(int64_t vehicle, const std::string& extra = "") {
    return "SELECT v.make, v.model, t.test_date, t.test_result, "
           "t.test_mileage FROM vehicle v, mot_test t "
           "WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = " +
           std::to_string(vehicle) + extra;
  }
  /// mot-q6 (three extensions keyed by the constant) for one vehicle.
  static std::string Q6(int64_t vehicle) {
    return "SELECT v.model, SUM(t.cost), COUNT(o.obs_id) "
           "FROM vehicle v, mot_test t, observation o "
           "WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = o.vehicle_id "
           "AND v.vehicle_id = " +
           std::to_string(vehicle) + " GROUP BY v.model";
  }

  Result<Relation> Run(const std::string& sql, ExecOptions opts,
                       AnswerInfo* info) {
    opts.bypass_cache = true;
    return zidian_->Connect().Execute(sql, opts, info);
  }

  /// The gets, values and bytes of reading `instances`' blocks for one
  /// key one at a time — what one extension per round reads.
  QueryMetrics BlockByBlock(const std::vector<std::string>& instances,
                            int64_t vehicle) {
    QueryMetrics m;
    cluster_->SetCacheBypass(true);
    for (const auto& name : instances) {
      const KvSchema* kv = zidian_->store().schema().Find(name);
      EXPECT_NE(kv, nullptr) << name;
      if (kv == nullptr) continue;
      EXPECT_TRUE(ReadBlock(zidian_->store(), *kv, {Value(vehicle)}, &m).ok());
    }
    cluster_->SetCacheBypass(false);
    return m;
  }

  Workload workload_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Zidian> zidian_;
};

TEST_F(FetchRoundsFixture, ConstantKeyedExtensionsShareOneRound) {
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases = {
      {Q1(kVehicle), {"vehicle@vehicle_id", "mot_test@vehicle_id"}},
      {Q6(kVehicle),
       {"vehicle@vehicle_id", "mot_test@vehicle_id", "observation@vehicle_id"}},
  };
  for (const auto& [sql, instances] : cases) {
    SCOPED_TRACE(sql);
    AnswerInfo info;
    auto r = Run(sql, ExecOptions{}, &info);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_GT(r->size(), 0u);
    const QueryMetrics& m = info.metrics;
    EXPECT_EQ(m.multiget_calls, 1u);
    // The same blocks as one extension at a time: one get per block.
    const QueryMetrics ref = BlockByBlock(instances, kVehicle);
    EXPECT_EQ(m.get_calls, instances.size());
    EXPECT_EQ(m.get_calls, ref.get_calls);
    EXPECT_EQ(m.values_accessed, ref.values_accessed);
    EXPECT_EQ(m.bytes_from_storage, ref.bytes_from_storage);
    EXPECT_LE(m.get_round_trips, ref.get_round_trips);

    // One stall: the overlapped round's modeled leg is its slowest node
    // batch — the round trip plus the busiest node's work.
    uint64_t busiest = 0;
    for (uint64_t b : m.net_node_busy_ns) busiest = std::max(busiest, b);
    EXPECT_EQ(uint64_t(std::llround(m.makespan_net_seconds * 1e9)) -
                  m.net_overlap_ns,
              kRttNs + busiest);
    // The serial control arm pays every node batch back to back.
    AnswerInfo serial;
    ASSERT_TRUE(
        Run(sql, ExecOptions{.fanout = FanoutMode::kSerial}, &serial).ok());
    EXPECT_EQ(serial.metrics.net_overlap_ns, 0u);
    EXPECT_EQ(uint64_t(std::llround(serial.metrics.makespan_net_seconds * 1e9)),
              serial.metrics.net_service_ns);
    // Vehicle 3's blocks sit on two nodes, so there is time to hide.
    ASSERT_GT(m.net_inflight_max, 1u);
    EXPECT_GT(m.net_overlap_ns, 0u);
    EXPECT_GT(serial.metrics.makespan_net_seconds,
              m.makespan_net_seconds - double(m.net_overlap_ns) / 1e9);
  }
}

TEST_F(FetchRoundsFixture, ExtensionKeyedByAFetchedColumnStartsANewRound) {
  // mot-q4: the seed is a test id, and the vehicle block's key is the
  // vehicle id that the mot_test block carries.
  const std::string sql =
      "SELECT t.test_date, t.test_result, v.make, v.fuel_type "
      "FROM mot_test t, vehicle v WHERE t.vehicle_id = v.vehicle_id "
      "AND t.test_id = 7";
  auto spec = ParseAndBind(sql, workload_.catalog);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto planned =
      GenerateKbaPlan(*spec, workload_.catalog, zidian_->store(), {});
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  const KbaPlan& top = *planned->plan;
  ASSERT_EQ(top.op, KbaOp::kExtend);
  EXPECT_EQ(top.kv_name, "vehicle@vehicle_id");
  using Bindings = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(top.key_bindings, (Bindings{{"t.vehicle_id", "vehicle_id"}}));
  ASSERT_EQ(top.children[0]->op, KbaOp::kExtend);
  EXPECT_EQ(top.children[0]->kv_name, "mot_test@test_id");

  AnswerInfo info;
  auto r = Run(sql, ExecOptions{}, &info);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 1u);
  EXPECT_EQ(info.metrics.get_calls, 2u);
  EXPECT_EQ(info.metrics.multiget_calls, 2u);  // two dependency levels
  EXPECT_EQ(info.metrics.get_round_trips, 2u);
}

TEST_F(FetchRoundsFixture, SelectionBetweenExtensionsEndsTheRound) {
  // Vehicle 3 has one make; asking for another one selects every row away
  // after the vehicle block, so the mot_test block above the selection is
  // never fetched.
  const Relation& vehicles = workload_.data.at("vehicle");
  const size_t make_col = size_t(vehicles.ColumnIndex("make"));
  const std::string make = vehicles.rows()[kVehicle - 1][make_col].AsString();
  const std::string other = make == "FORD" ? "BMW" : "FORD";
  const std::string sql = Q1(kVehicle, " AND v.make = '" + other + "'");
  AnswerInfo info;
  auto r = Run(sql, ExecOptions{}, &info);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(info.plan_text.find("select"), std::string::npos)
      << info.plan_text;
  EXPECT_EQ(r->size(), 0u);
  EXPECT_EQ(info.metrics.get_calls, 1u);
  EXPECT_EQ(info.metrics.multiget_calls, 1u);

  auto base = Run(sql, ExecOptions{.route_policy = RoutePolicy::kForceBaseline},
                  nullptr);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(base->size(), 0u);
}

TEST_F(FetchRoundsFixture, AbsentSeedKeyFetchesEveryBlockOfItsRound) {
  // The over-fetch rule: a round fetches every block its input keys,
  // before it knows that a lower block is absent. Answering one extension
  // at a time would have stopped after the first absent block: q1 and q6
  // on a vehicle past the data read 1 block that way, and q6 on a vehicle
  // without a test reads 2 (vehicle, mot_test).
  constexpr int64_t kAbsent = 100000;
  // Every generated vehicle has a test: add a copy of vehicle 3 without one.
  constexpr int64_t kUntested = 100001;
  const Relation& vehicles = workload_.data.at("vehicle");
  Tuple untested = vehicles.rows()[kVehicle - 1];
  untested[size_t(vehicles.ColumnIndex("vehicle_id"))] = Value(kUntested);
  ASSERT_TRUE(zidian_->Insert("vehicle", untested).ok());

  const std::vector<std::pair<std::string, uint64_t>> cases = {
      {Q1(kAbsent), 2}, {Q6(kAbsent), 3}, {Q6(kUntested), 3}};
  for (const auto& [sql, gets] : cases) {
    SCOPED_TRACE(sql);
    AnswerInfo info;
    auto r = Run(sql, ExecOptions{}, &info);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->size(), 0u);
    EXPECT_EQ(info.metrics.get_calls, gets);
    EXPECT_EQ(info.metrics.multiget_calls, 1u);

    auto base = Run(
        sql, ExecOptions{.route_policy = RoutePolicy::kForceBaseline}, nullptr);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    EXPECT_EQ(base->size(), 0u);
  }
}

TEST_F(FetchRoundsFixture, UnreachableSpeculativeBlockKeepsTheEmptyAnswer) {
  // An absent vehicle whose seed block (vehicle) sits on another node than
  // its speculative blocks (mot_test, observation): q1 reads one
  // speculative block, q6 two.
  const BaavStore& store = zidian_->store();
  auto node_of = [&](const std::string& instance, int64_t vehicle) {
    const KvSchema* kv = store.schema().Find(instance);
    EXPECT_NE(kv, nullptr) << instance;
    return kv == nullptr ? -1 : store.NodeForBlock(*kv, {Value(vehicle)});
  };
  int64_t absent = 100000;
  for (;; ++absent) {
    const int seed = node_of("vehicle@vehicle_id", absent);
    if (seed != node_of("mot_test@vehicle_id", absent) &&
        seed != node_of("observation@vehicle_id", absent)) {
      break;
    }
  }
  const int seed_node = node_of("vehicle@vehicle_id", absent);
  const std::set<int> speculative_nodes = {
      node_of("mot_test@vehicle_id", absent),
      node_of("observation@vehicle_id", absent)};

  // A cluster whose node `down` fails every attempt of every key (a down
  // window over the whole key-phase axis, one copy per key).
  auto run = [&](int down, const std::string& sql, RoutePolicy route,
                 AnswerInfo* info) {
    ClusterOptions co = NetworkedClusterOptions();
    co.network.faults.seed = 7;
    co.network.faults.node_faults.resize(size_t(co.num_storage_nodes));
    co.network.faults.node_faults[size_t(down)] =
        NodeFaultOptions{.down_from = 0, .down_until = 1};
    Cluster cluster(co);
    Zidian zidian(&workload_.catalog, &cluster, workload_.baav);
    EXPECT_TRUE(zidian.LoadTaav(workload_.data).ok());
    EXPECT_TRUE(zidian.BuildBaav(workload_.data).ok());
    return zidian.Connect().Execute(
        sql, ExecOptions{.route_policy = route, .bypass_cache = true}, info);
  };

  for (const std::string& sql : {Q1(absent), Q6(absent)}) {
    SCOPED_TRACE(sql);
    for (int down : speculative_nodes) {
      SCOPED_TRACE("speculative node " + std::to_string(down) + " down");
      AnswerInfo kba;
      auto r = run(down, sql, RoutePolicy::kForceKba, &kba);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->size(), 0u);
      EXPECT_EQ(kba.metrics.failed_queries, 0u);
      // The dropped block's gets and failed attempts stay metered.
      EXPECT_GT(kba.metrics.net_faults_injected, 0u);
      EXPECT_EQ(kba.metrics.multiget_calls, 1u);
      AnswerInfo base;
      auto b = run(down, sql, RoutePolicy::kForceBaseline, &base);
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(b->size(), 0u);
      EXPECT_EQ(base.metrics.failed_queries, 0u);
    }
    // The seed block itself unreachable: the empty answer is unproven.
    AnswerInfo info;
    auto r = run(seed_node, sql, RoutePolicy::kForceKba, &info);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
    EXPECT_EQ(info.metrics.failed_queries, 1u);
  }
}

}  // namespace
}  // namespace zidian
