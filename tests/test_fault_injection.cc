// Fault-injection coverage: the deterministic per-node fault schedule
// (storage/network_model.h), the retry/hedge recovery machine, and the
// graceful-degradation contract through the whole stack — replicas rescue
// reads from a down node, exhausted retries fail cleanly with
// kUnavailable at the Cluster and with a structured AnswerInfo error at
// the query layer, and every fault counter is a pure function of (seed,
// request stream): bit-identical across ParallelMode::kSimulated /
// kThreads, across worker counts, and under any batch partitioning — and
// across fan-out schedules: the overlapped per-node fan-out
// (Cluster::MultiGet under FanoutMode::kOverlapped) runs the same
// recovery machine with its per-node completions racing, and must land
// on the same rows, per-key outcomes and bit-identical fault counters as
// the serial fan-out.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/backend.h"
#include "storage/cluster.h"
#include "storage/network_model.h"
#include "test_support.h"
#include "workloads/workload.h"
#include "zidian/connection.h"
#include "zidian/zidian.h"

namespace zidian {
namespace {

std::vector<uint64_t> FaultCounters(const QueryMetrics& m) {
  return {m.net_faults_injected, m.net_retries, m.net_timeouts,
          m.net_hedges,          m.net_hedge_wins, m.failed_queries};
}

// ------------------------------------------------ unit: verdict purity ---

TEST(FaultScheduleTest, VerdictsArePureSeededFunctions) {
  NetworkOptions opts;
  opts.faults.seed = 7;
  NodeFaultOptions f0;
  f0.down_from = 0;
  f0.down_until = 0.5;
  f0.fail_probability = 0.5;
  opts.faults.node_faults = {f0};
  NetworkModel net(opts, 2);
  ASSERT_TRUE(net.faults_enabled());

  NetworkOptions other = opts;
  other.faults.seed = 8;
  NetworkModel reseeded(other, 2);

  int phase_moved = 0, rerolled = 0;
  for (int i = 0; i < 200; ++i) {
    std::string key = "key-" + std::to_string(i);
    double phase = net.KeyPhase(key);
    ASSERT_GE(phase, 0.0);
    ASSERT_LT(phase, 1.0);
    // Pure: the same (seed, key) always lands on the same phase, and the
    // down window is exactly the phase interval.
    EXPECT_EQ(phase, net.KeyPhase(key));
    EXPECT_EQ(net.NodeDownForKey(0, key), phase < 0.5);
    EXPECT_FALSE(net.NodeDownForKey(1, key));  // node 1 is quiet
    phase_moved += reseeded.KeyPhase(key) != phase;
    // Losses re-roll per attempt (retryable), and repeat per attempt id.
    EXPECT_EQ(net.AttemptLost(0, key, 1), net.AttemptLost(0, key, 1));
    rerolled += net.AttemptLost(0, key, 1) != net.AttemptLost(0, key, 2);
    EXPECT_FALSE(net.AttemptLost(1, key, 1));  // p = 0 never loses
  }
  EXPECT_GT(phase_moved, 150);  // a new seed is a new schedule
  EXPECT_GT(rerolled, 50);      // at p=0.5 the two attempts often differ
}

// Fault counters are counted per key, so partitioning a batch into
// arbitrary wire requests cannot change their totals — the invariant that
// makes them comparable across worker counts AND parallel modes.
TEST(FaultScheduleTest, CountersInvariantUnderBatchPartitioning) {
  NetworkOptions opts;
  opts.link =
      NetworkLinkOptions{.rtt_us = 10, .per_key_us = 2, .per_byte_us = 0.1};
  opts.faults.seed = 99;
  NodeFaultOptions f0;
  f0.fail_probability = 0.3;
  f0.degraded_from = 0.5;
  f0.degraded_until = 1;
  f0.degrade_factor = 10;
  NodeFaultOptions f1;
  f1.fail_probability = 0.1;
  opts.faults.node_faults = {f0, f1};
  NetworkModel net(opts, 2);

  RecoveryOptions rec{.replication_factor = 2,
                      .max_attempts = 3,
                      .backoff_base_us = 2,
                      .timeout_us = 20,
                      .hedge_after_us = 15};
  std::vector<std::string> keys;
  for (int i = 0; i < 40; ++i) keys.push_back("key-" + std::to_string(i));
  std::vector<NetworkModel::BatchItem> batch;
  for (const auto& k : keys) batch.push_back({k, 16});
  const std::vector<int> replicas = {0, 1};

  QueryMetrics whole;
  std::vector<uint8_t> ok_whole;
  net.SleepUntil(net.FetchWithRecoveryAt(replicas, batch, rec, &whole,
                                         &ok_whole, net.NowNs()));

  QueryMetrics split;
  std::vector<uint8_t> ok_split;
  for (const auto& item : batch) {
    std::vector<uint8_t> one;
    net.SleepUntil(net.FetchWithRecoveryAt(replicas, {item}, rec, &split,
                                           &one, net.NowNs()));
    ok_split.push_back(one[0]);
  }

  // Per-key outcomes and fault counters are partition-invariant; only the
  // wire-level metering (round trips, service time) depends on grouping.
  EXPECT_EQ(ok_whole, ok_split);
  EXPECT_EQ(FaultCounters(whole), FaultCounters(split));
  // The schedule above actually exercises every counter.
  EXPECT_GT(whole.net_faults_injected, 0u);
  EXPECT_GT(whole.net_retries, 0u);
  EXPECT_GT(whole.net_timeouts, 0u);
  EXPECT_GT(whole.net_hedges, 0u);
  EXPECT_GT(whole.net_hedge_wins, 0u);
}

TEST(FaultScheduleTest, RepeatedRunsMeterIdentically) {
  NetworkOptions opts;
  opts.link = NetworkLinkOptions{.rtt_us = 10, .per_key_us = 2};
  opts.faults.seed = 5;
  opts.faults.fault.fail_probability = 0.4;
  NetworkModel net(opts, 3);

  RecoveryOptions rec{.replication_factor = 3, .max_attempts = 4};
  std::vector<NetworkModel::BatchItem> batch;
  std::vector<std::string> keys;
  for (int i = 0; i < 30; ++i) keys.push_back("k" + std::to_string(i));
  for (const auto& k : keys) batch.push_back({k, 8});

  QueryMetrics a, b;
  std::vector<uint8_t> ok_a, ok_b;
  net.SleepUntil(
      net.FetchWithRecoveryAt({0, 1, 2}, batch, rec, &a, &ok_a, net.NowNs()));
  net.SleepUntil(
      net.FetchWithRecoveryAt({0, 1, 2}, batch, rec, &b, &ok_b, net.NowNs()));
  EXPECT_EQ(ok_a, ok_b);
  EXPECT_TRUE(CountersEqual(a, b))
      << "a: " << a.ToString() << "\nb: " << b.ToString();
}

// ------------------------------------------- cluster: recovery behavior ---

std::vector<std::string> SeedKeys(Cluster* cluster, int count) {
  std::vector<std::string> keys;
  for (int i = 0; i < count; ++i) {
    keys.push_back("fault-key-" + std::to_string(i));
    EXPECT_TRUE(
        cluster->Put(keys.back(), "value-" + std::to_string(i), nullptr).ok());
  }
  return keys;
}

TEST(ClusterRecoveryTest, ReplicaRescuesKeysOnDownNode) {
  ClusterOptions co{.num_storage_nodes = 4, .backend = BackendKind::kMem};
  co.network.link.rtt_us = 5;
  co.network.faults.seed = 11;
  NodeFaultOptions down;
  down.down_from = 0;
  down.down_until = 1;  // node 0 rejects every key, every attempt
  co.network.faults.node_faults = {down};
  co.recovery = RecoveryOptions{.replication_factor = 2, .max_attempts = 3};
  Cluster cluster(co);
  ASSERT_EQ(cluster.replication(), 2);

  std::vector<std::string> keys = SeedKeys(&cluster, 60);
  uint64_t on_node0 = 0;
  for (const auto& k : keys) on_node0 += cluster.NodeFor(k) == 0;
  ASSERT_GT(on_node0, 0u);

  // Every key answers: node-0 primaries fail round 0 (sticky down window)
  // and are rescued by the replica on node 1 in round 1.
  QueryMetrics m;
  MultiGetResult res = cluster.MultiGet(keys, &m, CacheFill::kFill,
                                        FanoutMode::kSerial);
  ASSERT_TRUE(res.ok()) << res.status.ToString();
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(res[i].has_value()) << keys[i];
    EXPECT_EQ(*res[i], "value-" + std::to_string(i));
    EXPECT_FALSE(res.Failed(i));
  }
  EXPECT_EQ(m.net_faults_injected, on_node0);
  EXPECT_EQ(m.net_retries, on_node0);
  EXPECT_EQ(m.net_hedges, 0u);  // no hedge policy configured
}

TEST(ClusterRecoveryTest, ExhaustedRetriesFailUnavailable) {
  ClusterOptions co{.num_storage_nodes = 4, .backend = BackendKind::kMem};
  co.network.link.rtt_us = 5;
  co.network.faults.seed = 11;
  NodeFaultOptions down;
  down.down_from = 0;
  down.down_until = 1;
  co.network.faults.node_faults = {down};
  // Single copy: a key whose primary is node 0 has nowhere to go.
  Cluster cluster(co);
  ASSERT_EQ(cluster.replication(), 1);

  std::vector<std::string> keys = SeedKeys(&cluster, 40);
  std::string cursed, healthy;
  for (const auto& k : keys) {
    if (cursed.empty() && cluster.NodeFor(k) == 0) cursed = k;
    if (healthy.empty() && cluster.NodeFor(k) != 0) healthy = k;
  }
  ASSERT_FALSE(cursed.empty());
  ASSERT_FALSE(healthy.empty());

  // Unreachable is not absent: a one-key read fails with kUnavailable
  // (never kNotFound), ships no storage bytes, and caches nothing in
  // either polarity — a second read pays the full failure again.
  QueryMetrics gm;
  auto first = GetOne(cluster, cursed, &gm);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsUnavailable()) << first.status().ToString();
  auto second = GetOne(cluster, cursed, &gm);
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsUnavailable());
  EXPECT_EQ(gm.get_calls, 2u);
  EXPECT_EQ(gm.bytes_from_storage, 0u);
  EXPECT_EQ(gm.cache_hits, 0u);
  EXPECT_EQ(gm.cache_negative_hits, 0u);
  EXPECT_EQ(gm.net_faults_injected, 6u);  // 3 attempts per read, all down
  EXPECT_EQ(gm.net_retries, 4u);

  // A batch distinguishes all three per-key outcomes: served, absent
  // (nullopt under an OK-for-that-slot status), and unreachable
  // (Failed(i) set, overall status kUnavailable).
  std::string absent = healthy + "-never-written";
  ASSERT_NE(cluster.NodeFor(absent), 0);
  std::vector<std::string> probe = keys;
  probe.push_back(absent);
  QueryMetrics bm;
  MultiGetResult res = cluster.MultiGet(probe, &bm, CacheFill::kFill,
                                        FanoutMode::kSerial);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status.IsUnavailable()) << res.status.ToString();
  for (size_t i = 0; i < keys.size(); ++i) {
    if (cluster.NodeFor(keys[i]) == 0) {
      EXPECT_TRUE(res.Failed(i)) << keys[i];
      EXPECT_FALSE(res[i].has_value());
    } else {
      EXPECT_FALSE(res.Failed(i));
      ASSERT_TRUE(res[i].has_value()) << keys[i];
      EXPECT_EQ(*res[i], "value-" + std::to_string(i));
    }
  }
  EXPECT_FALSE(res.Failed(probe.size() - 1));  // absent, not unreachable
  EXPECT_FALSE(res[probe.size() - 1].has_value());
}

TEST(ClusterRecoveryTest, HedgedReadsWinDeterministically) {
  ClusterOptions co{.num_storage_nodes = 4, .backend = BackendKind::kMem};
  co.network.link = NetworkLinkOptions{.rtt_us = 10, .per_key_us = 2};
  co.network.faults.seed = 3;
  NodeFaultOptions degraded;
  degraded.degraded_from = 0;
  degraded.degraded_until = 1;
  degraded.degrade_factor = 50;  // node 0 serves 50x slower
  co.network.faults.node_faults = {degraded};
  co.recovery = RecoveryOptions{.replication_factor = 2,
                                .max_attempts = 3,
                                .hedge_after_us = 20};
  Cluster cluster(co);

  std::vector<std::string> keys = SeedKeys(&cluster, 60);
  uint64_t on_node0 = 0;
  for (const auto& k : keys) on_node0 += cluster.NodeFor(k) == 0;
  ASSERT_GT(on_node0, 0u);

  // Every node-0 primary estimate (~110us) fires the hedge, and the
  // healthy replica (~12us + 20us delay) beats it every time. Nothing
  // actually fails — hedging trades tail latency, not correctness.
  QueryMetrics m1;
  MultiGetResult r1 = cluster.MultiGet(keys, &m1, CacheFill::kFill,
                                       FanoutMode::kSerial);
  ASSERT_TRUE(r1.ok()) << r1.status.ToString();
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(r1[i].has_value()) << keys[i];
    EXPECT_EQ(*r1[i], "value-" + std::to_string(i));
  }
  EXPECT_EQ(m1.net_hedges, on_node0);
  EXPECT_EQ(m1.net_hedge_wins, on_node0);
  EXPECT_EQ(m1.net_faults_injected, 0u);

  // Seeded determinism across cluster instances: an identical cluster
  // (same options, same data, cold cache) meters the identical run.
  Cluster replay(co);
  SeedKeys(&replay, 60);
  QueryMetrics m2;
  MultiGetResult r2 = replay.MultiGet(keys, &m2, CacheFill::kFill,
                                      FanoutMode::kSerial);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(CountersEqual(m1, m2))
      << "m1: " << m1.ToString() << "\nm2: " << m2.ToString();
}

// ----------------------- cluster: recovery through the overlapped fan-out ---

// The overlapped fan-out runs the same recovery machine per node batch,
// with the completions racing each other — and must land on the same
// per-key outcomes and the same bit-identical fault counters as the
// serial fan-out. CacheFill::kNoFill keeps the compared runs cold under
// the cache-enabled ctest configuration.

TEST(ClusterRecoveryAsyncTest, ReplicaRescueMatchesSyncThroughAsyncFanout) {
  ClusterOptions co{.num_storage_nodes = 4, .backend = BackendKind::kMem};
  co.network.link.rtt_us = 5;
  co.network.faults.seed = 11;
  NodeFaultOptions down;
  down.down_from = 0;
  down.down_until = 1;  // node 0 rejects every key, every attempt
  co.network.faults.node_faults = {down};
  co.recovery = RecoveryOptions{.replication_factor = 2, .max_attempts = 3};
  Cluster cluster(co);
  std::vector<std::string> keys = SeedKeys(&cluster, 60);
  uint64_t on_node0 = 0;
  for (const auto& k : keys) on_node0 += cluster.NodeFor(k) == 0;
  ASSERT_GT(on_node0, 0u);

  QueryMetrics ms;
  MultiGetResult sync_res = cluster.MultiGet(keys, &ms, CacheFill::kNoFill,
                                             FanoutMode::kSerial);
  ASSERT_TRUE(sync_res.ok()) << sync_res.status.ToString();

  QueryMetrics ma;
  FanoutStats fs;
  MultiGetResult async_res = cluster.MultiGet(
      keys, &ma, CacheFill::kNoFill, FanoutMode::kOverlapped, &fs);
  ASSERT_TRUE(async_res.ok()) << async_res.status.ToString();
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(async_res[i].has_value()) << keys[i];
    EXPECT_EQ(*async_res[i], *sync_res[i]);
    EXPECT_FALSE(async_res.Failed(i));
  }
  // Rescues metered identically: every node-0 primary failed round 0 and
  // was rescued by the node-1 replica — on the async path exactly as on
  // the sync one, to the bit.
  EXPECT_EQ(ma.net_faults_injected, on_node0);
  EXPECT_EQ(ma.net_retries, on_node0);
  EXPECT_EQ(FaultCounters(ma), FaultCounters(ms));
  EXPECT_TRUE(CountersEqual(ms, ma))
      << "sync: " << ms.ToString() << "\nasync: " << ma.ToString();
  // All four nodes' recovery machines genuinely raced in flight.
  EXPECT_EQ(fs.inflight_max, 4u);
  EXPECT_GT(fs.overlap_ns, 0u);
}

TEST(ClusterRecoveryAsyncTest, CleanExhaustionMatchesSyncThroughAsyncFanout) {
  ClusterOptions co{.num_storage_nodes = 4, .backend = BackendKind::kMem};
  co.network.link.rtt_us = 5;
  co.network.faults.seed = 11;
  NodeFaultOptions down;
  down.down_from = 0;
  down.down_until = 1;
  co.network.faults.node_faults = {down};
  // Single copy: keys whose primary is node 0 have nowhere to go.
  Cluster cluster(co);
  std::vector<std::string> keys = SeedKeys(&cluster, 40);
  keys.push_back("fault-key-absent");  // absent ≠ unreachable, async too

  QueryMetrics ms;
  MultiGetResult sync_res = cluster.MultiGet(keys, &ms, CacheFill::kNoFill,
                                             FanoutMode::kSerial);
  ASSERT_FALSE(sync_res.ok());

  QueryMetrics ma;
  FanoutStats fs;
  MultiGetResult async_res = cluster.MultiGet(
      keys, &ma, CacheFill::kNoFill, FanoutMode::kOverlapped, &fs);
  ASSERT_FALSE(async_res.ok());
  EXPECT_TRUE(async_res.status.IsUnavailable()) << async_res.status.ToString();
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(async_res[i].has_value(), sync_res[i].has_value()) << keys[i];
    if (sync_res[i].has_value()) {
      EXPECT_EQ(*async_res[i], *sync_res[i]);
    }
    EXPECT_EQ(async_res.Failed(i), sync_res.Failed(i)) << keys[i];
    if (cluster.NodeFor(keys[i]) == 0) {
      EXPECT_TRUE(async_res.Failed(i));
    }
  }
  EXPECT_FALSE(async_res.Failed(keys.size() - 1));  // absent, not failed
  EXPECT_EQ(FaultCounters(ma), FaultCounters(ms));
  EXPECT_TRUE(CountersEqual(ms, ma))
      << "sync: " << ms.ToString() << "\nasync: " << ma.ToString();
}

TEST(ClusterRecoveryAsyncTest, HedgeDeterminismHoldsThroughAsyncFanout) {
  ClusterOptions co{.num_storage_nodes = 4, .backend = BackendKind::kMem};
  co.network.link = NetworkLinkOptions{.rtt_us = 10, .per_key_us = 2};
  co.network.faults.seed = 3;
  NodeFaultOptions degraded;
  degraded.degraded_from = 0;
  degraded.degraded_until = 1;
  degraded.degrade_factor = 50;  // node 0 serves 50x slower
  co.network.faults.node_faults = {degraded};
  co.recovery = RecoveryOptions{.replication_factor = 2,
                                .max_attempts = 3,
                                .hedge_after_us = 20};
  Cluster cluster(co);
  std::vector<std::string> keys = SeedKeys(&cluster, 60);
  uint64_t on_node0 = 0;
  for (const auto& k : keys) on_node0 += cluster.NodeFor(k) == 0;
  ASSERT_GT(on_node0, 0u);

  QueryMetrics ms;
  MultiGetResult sync_res = cluster.MultiGet(keys, &ms, CacheFill::kNoFill,
                                             FanoutMode::kSerial);
  ASSERT_TRUE(sync_res.ok());

  // Hedge verdicts are pure functions of (seed, key, estimate) — the
  // racing per-node completions of the async fan-out cannot move them,
  // run after run.
  QueryMetrics first_run;
  for (int run = 0; run < 3; ++run) {
    QueryMetrics ma;
    FanoutStats fs;
    MultiGetResult async_res = cluster.MultiGet(
        keys, &ma, CacheFill::kNoFill, FanoutMode::kOverlapped, &fs);
    ASSERT_TRUE(async_res.ok()) << async_res.status.ToString();
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(async_res[i].has_value()) << keys[i];
      EXPECT_EQ(*async_res[i], *sync_res[i]);
    }
    EXPECT_EQ(ma.net_hedges, on_node0) << "run " << run;
    EXPECT_EQ(ma.net_hedge_wins, on_node0) << "run " << run;
    EXPECT_EQ(ma.net_faults_injected, 0u) << "run " << run;
    EXPECT_EQ(FaultCounters(ma), FaultCounters(ms)) << "run " << run;
    EXPECT_TRUE(CountersEqual(ms, ma))
        << "run " << run << "\nsync: " << ms.ToString()
        << "\nasync: " << ma.ToString();
    if (run == 0) {
      first_run = ma;
    } else {
      EXPECT_TRUE(CountersEqual(first_run, ma)) << "run " << run;
    }
  }
}

// ------------------------------- query layer: determinism under chaos ---

// A recoverable chaos schedule over the full middleware: node 0 rejects a
// quarter of the key space, node 2 serves everything 50x slower (firing
// the timeout and the hedge), two copies of every key. Every read
// resolves — the contract under test is that rows and fault counters are
// bit-identical across parallel modes and worker counts.
class FaultParityFixture : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    auto w = MakeMot(0.1, 31);
    ASSERT_TRUE(w.ok());
    workload_ = std::move(w).value();
    ClusterOptions co{.num_storage_nodes = 4, .backend = GetParam()};
    co.network.link =
        NetworkLinkOptions{.rtt_us = 20, .per_key_us = 1, .per_byte_us = 0.001};
    co.network.faults.seed = 20260808;
    NodeFaultOptions down;
    down.down_from = 0;
    down.down_until = 0.25;
    NodeFaultOptions degraded;
    degraded.degraded_from = 0;
    degraded.degraded_until = 1;
    degraded.degrade_factor = 50;
    co.network.faults.node_faults = {down, {}, degraded, {}};
    co.recovery = RecoveryOptions{.replication_factor = 2,
                                  .max_attempts = 3,
                                  .backoff_base_us = 5,
                                  .timeout_us = 60,
                                  .hedge_after_us = 25};
    cluster_ = std::make_unique<Cluster>(co);
    zidian_ = std::make_unique<Zidian>(&workload_.catalog, cluster_.get(),
                                       workload_.baav);
    // Loads and builds run against the live fault schedule: writes are
    // never faulted and every build-time probe is recoverable.
    ASSERT_TRUE(zidian_->LoadTaav(workload_.data).ok());
    ASSERT_TRUE(zidian_->BuildBaav(workload_.data).ok());
  }

  // Runs one prepared query through every (workers, parallel mode)
  // combination and checks rows and counters never move. Returns the
  // fault counters of the reference run so the sweep can prove the chaos
  // schedule engaged somewhere.
  void ExpectFaultParity(const std::string& sql, uint64_t* hedges_seen) {
    Connection conn = zidian_->Connect();
    auto prepared = conn.Prepare(sql);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

    // Under the cache-enabled configuration, warm first so every run sees
    // the same residency (cache hits legitimately skip the fault machine:
    // a hit is middleware-local memory).
    if (cluster_->cache_enabled()) {
      auto warm = prepared->Execute(ExecOptions{.workers = 4});
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    }

    std::string reference_rows;
    std::vector<uint64_t> reference_faults;
    for (int workers : {1, 4}) {
      AnswerInfo sim;
      auto ref = prepared->Execute(ExecOptions{.workers = workers}, &sim);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      EXPECT_NE(sim.fault_text.find("seed=20260808"), std::string::npos)
          << sim.fault_text;
      EXPECT_NE(sim.replication_text.find("replication=2"), std::string::npos)
          << sim.replication_text;

      if (reference_rows.empty()) {
        reference_rows = ref->ToString(1u << 20);
        reference_faults = FaultCounters(sim.metrics);
        *hedges_seen += sim.metrics.net_hedges;
      } else {
        // Across worker counts the wire grouping changes but rows and the
        // per-key fault counters must not.
        EXPECT_EQ(ref->ToString(1u << 20), reference_rows);
        EXPECT_EQ(FaultCounters(sim.metrics), reference_faults);
      }

      // Both fan-out shapes under both parallel modes: the overlapped
      // fan-out (FanoutMode::kOverlapped) runs every node's recovery
      // machine with the completions racing, and still may not move a
      // row or a fault counter.
      for (FanoutMode fanout : {FanoutMode::kSerial, FanoutMode::kOverlapped}) {
        AnswerInfo osim;
        auto o = prepared->Execute(
            ExecOptions{.workers = workers, .fanout = fanout}, &osim);
        ASSERT_TRUE(o.ok()) << o.status().ToString();
        ASSERT_EQ(o->ToString(1u << 20), reference_rows)
            << "workers " << workers;
        ASSERT_TRUE(CountersEqual(osim.metrics, sim.metrics))
            << "workers " << workers
            << "\n  sim: " << sim.metrics.ToString()
            << "\n  overlapped: " << osim.metrics.ToString();
        for (int run = 0; run < 2; ++run) {
          AnswerInfo thr;
          auto r = prepared->Execute(
              ExecOptions{.workers = workers,
                          .parallel_mode = ParallelMode::kThreads,
                          .fanout = fanout},
              &thr);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          ASSERT_EQ(r->ToString(1u << 20), reference_rows)
              << "workers " << workers << " run " << run;
          ASSERT_TRUE(CountersEqual(thr.metrics, sim.metrics))
              << "workers " << workers << " run " << run
              << "\n  sim: " << sim.metrics.ToString()
              << "\n  thr: " << thr.metrics.ToString();
        }
      }
    }
  }

  Workload workload_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Zidian> zidian_;
};

TEST_P(FaultParityFixture, EveryQuerySurvivesChaosDeterministically) {
  // The whole mot sweep: each query's batched MultiGets run through the
  // recovery machine (scans, and the baseline's simulated per-tuple get
  // pricing, are fault-exempt by design — the machine prices the real
  // point-access path).
  uint64_t hedges_seen = 0;
  for (const auto& q : workload_.queries) {
    SCOPED_TRACE(q.name);
    ExpectFaultParity(q.sql, &hedges_seen);
  }
  // On a cold cluster the schedule demonstrably engaged somewhere in the
  // sweep (a warm cache may serve everything locally — that is its job).
  if (!cluster_->cache_enabled()) {
    EXPECT_GT(hedges_seen, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, FaultParityFixture,
                         ::testing::Values(BackendKind::kLsm,
                                           BackendKind::kMem),
                         [](const auto& info) {
                           return std::string(BackendKindName(info.param));
                         });

// ------------------------------------- query layer: clean failure path ---

TEST(FaultQueryTest, ExhaustedRetriesFailCleanlyAtTheQueryLayer) {
  auto w = MakeMot(0.05, 17);
  ASSERT_TRUE(w.ok());
  std::string dir = ::testing::TempDir();

  // Build on a healthy cluster, then restore the bytes into a cluster
  // whose every read attempt is lost (p = 1, single copy): the storage is
  // intact but no read can prove it.
  {
    Cluster healthy(ClusterOptions{.num_storage_nodes = 3,
                                   .backend = BackendKind::kMem});
    Zidian z(&w->catalog, &healthy, w->baav);
    ASSERT_TRUE(z.LoadTaav(w->data).ok());
    ASSERT_TRUE(z.BuildBaav(w->data).ok());
    ASSERT_TRUE(healthy.SaveToDir(dir).ok());
  }

  ClusterOptions co{.num_storage_nodes = 3, .backend = BackendKind::kMem};
  co.network.faults.seed = 1;
  co.network.faults.fault.fail_probability = 1.0;
  Cluster cluster(co);
  ASSERT_TRUE(cluster.LoadFromDir(dir).ok());
  Zidian zidian(&w->catalog, &cluster, w->baav);  // no rebuild: restored

  Connection conn = zidian.Connect();
  auto prepared = conn.Prepare(w->queries[0].sql);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  AnswerInfo info;
  auto result = prepared->Execute(ExecOptions{.workers = 4}, &info);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
  // Graceful degradation: the failure is structured (AnswerInfo::detail
  // carries the status text), counted (failed_queries), and the metrics
  // still expose the retry traffic the query paid before giving up.
  EXPECT_EQ(info.metrics.failed_queries, 1u);
  EXPECT_NE(info.detail.find("unreachable"), std::string::npos) << info.detail;
  EXPECT_GT(info.metrics.net_faults_injected, 0u);
  EXPECT_GT(info.metrics.net_retries, 0u);
  EXPECT_NE(info.fault_text.find("p=1"), std::string::npos) << info.fault_text;
  EXPECT_NE(info.replication_text.find("replication=1"), std::string::npos)
      << info.replication_text;
}

}  // namespace
}  // namespace zidian
