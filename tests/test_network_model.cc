// NetworkModel coverage: the queueing/batching arithmetic (one round trip
// per per-node MultiGet batch, marginal per-key cost, per-node queue delay
// under concurrent outstanding requests), the TaaV scan's per-tuple
// network totals, and the cluster-level determinism contract — identical
// rows and CountersEqual metrics between ParallelMode::kSimulated and
// kThreads under a non-uniform network, on both routes.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "kba/kba_executor.h"
#include "kba/kba_plan.h"
#include "kba/makespan.h"
#include "ra/taav.h"
#include "storage/backend.h"
#include "storage/cluster.h"
#include "storage/network_model.h"
#include "test_support.h"
#include "workloads/workload.h"
#include "zidian/connection.h"
#include "zidian/zidian.h"

namespace zidian {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ------------------------------------------------------- unit: the math ---

TEST(NetworkModelTest, RequestCostChargesRttSlotKeysAndBytes) {
  NetworkOptions opts;
  opts.link = NetworkLinkOptions{.rtt_us = 100,
                                 .per_key_us = 5,
                                 .per_byte_us = 0.5,
                                 .service_rate = 10000};  // 100us slot
  NetworkModel net(opts, 4);

  // busy = slot 100 + 1 key * 5 + 10 bytes * 0.5 = 110us; latency adds rtt.
  NetworkModel::Cost single = net.RequestCost(0, 1, 10);
  EXPECT_EQ(single.busy_ns, 110'000);
  EXPECT_EQ(single.latency_ns, 210'000);

  // A batch pays the rtt and the slot ONCE plus marginal per-key/byte:
  // busy = 100 + 8*5 + 80*0.5 = 180us; latency = 280us.
  NetworkModel::Cost batch = net.RequestCost(0, 8, 80);
  EXPECT_EQ(batch.latency_ns, 280'000);
  // ...which beats eight single requests by 7 rtts and 7 slots.
  EXPECT_EQ(8 * single.latency_ns - batch.latency_ns, 7 * 200'000);
}

TEST(NetworkModelTest, NodeLinksMakeTheNetworkNonUniform) {
  NetworkOptions opts;
  opts.link.rtt_us = 50;
  opts.node_links = {NetworkLinkOptions{.rtt_us = 500}};
  ASSERT_TRUE(opts.Enabled());
  NetworkModel net(opts, 2);
  EXPECT_EQ(net.RequestCost(0, 1, 0).latency_ns, 500'000);  // override
  EXPECT_EQ(net.RequestCost(1, 1, 0).latency_ns, 50'000);   // default link
}

TEST(NetworkModelTest, DisabledNetworkReportsDisabled) {
  EXPECT_FALSE(NetworkOptions{}.Enabled());
  NetworkOptions with_override;
  with_override.node_links = {NetworkLinkOptions{}, {.per_byte_us = 0.1}};
  EXPECT_TRUE(with_override.Enabled());
}

TEST(NetworkModelTest, OnGetAtMetersHistogramTransferAndServiceTime) {
  NetworkOptions opts;
  opts.link = NetworkLinkOptions{.rtt_us = 10, .per_key_us = 2};
  NetworkModel net(opts, 3);
  // One read: the issue half, then the wait half.
  auto get = [&net](int node, uint64_t keys, uint64_t bytes, QueryMetrics* m) {
    net.SleepUntil(net.OnGetAt(node, keys, bytes, m, net.NowNs()).wake_ns);
  };
  QueryMetrics m;
  get(1, 4, 100, &m);
  get(1, 1, 0, &m);
  get(2, 1, 0, &m);
  ASSERT_EQ(m.net_node_round_trips.size(), 3u);
  EXPECT_EQ(m.net_node_round_trips[0], 0u);
  EXPECT_EQ(m.net_node_round_trips[1], 2u);
  EXPECT_EQ(m.net_node_round_trips[2], 1u);
  EXPECT_EQ(m.net_transfer_bytes, 100u);
  // 4-key batch: 10+8us; two singles: 12us each.
  EXPECT_EQ(m.net_service_ns, 18'000u + 12'000u + 12'000u);
  EXPECT_EQ(m.net_node_busy_ns[1], 8'000u + 2'000u);

  // Deltas merged via += pad the shorter per-node vectors with zeros,
  // and CountersEqual treats missing trailing entries as zero.
  QueryMetrics delta;
  get(0, 1, 0, &delta);
  QueryMetrics total = m;
  total += delta;
  EXPECT_EQ(total.net_node_round_trips[0], 1u);
  QueryMetrics same = total;
  same.net_node_round_trips.resize(8, 0);
  EXPECT_TRUE(CountersEqual(total, same));
}

TEST(NetworkModelTest, QueueDelaySerializesConcurrentRequestsAtOneNode) {
  // One node admitting 250 req/s (4ms slot), no propagation: four
  // concurrent requests must queue behind each other — the last response
  // can't arrive before 4 slots of serialized service.
  NetworkOptions opts;
  opts.link.service_rate = 250;
  NetworkModel net(opts, 1);

  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  std::vector<QueryMetrics> deltas(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&net, &deltas, t] {
      net.SleepUntil(net.OnGetAt(0, 1, 0, &deltas[t], net.NowNs()).wake_ns);
    });
  }
  for (auto& t : threads) t.join();
  double elapsed = SecondsSince(start);
  EXPECT_GE(elapsed, 4 * 0.004 - 0.0005);

  // The metered (deterministic) side is contention-free by design: each
  // request records its own 4ms service time, and the queueing shows up
  // through the node-busy total instead.
  QueryMetrics total;
  for (const auto& d : deltas) total += d;
  EXPECT_EQ(total.net_service_ns, 4u * 4'000'000u);
  EXPECT_EQ(total.net_node_busy_ns[0], 4u * 4'000'000u);
}

TEST(NetworkModelTest, FinalizeNetworkQueueExposesTheBottleneckNode) {
  QueryMetrics m;
  m.makespan_net_seconds = 0.010;
  m.net_node_busy_ns = {2'000'000, 30'000'000};  // node 1 is the bottleneck
  FinalizeNetworkQueue(&m);
  EXPECT_DOUBLE_EQ(m.net_queue_seconds, 0.020);

  // SimSeconds folds both network legs in on top of the profile costs.
  QueryMetrics empty;
  EXPECT_NEAR(SimSeconds(m, SoH()) - SimSeconds(empty, SoH()),
              0.010 + 0.020, 1e-12);

  // A bottleneck below the per-worker makespan adds no queueing.
  m.net_node_busy_ns = {2'000'000};
  FinalizeNetworkQueue(&m);
  EXPECT_DOUBLE_EQ(m.net_queue_seconds, 0.0);
}

// --------------------------------------------------- cluster-level wiring ---

TEST(ClusterNetworkTest, MultiGetPaysOneRoundTripPerNodeSinglesPayPerKey) {
  // Every wire request meters exactly its RequestCost (one per touched
  // node for the batch, one per key for the one-key reads) at whole, at
  // the benchmark's fractional, and at half-nanosecond prices (500 ns
  // slot, 1.5 ns per key, 7 ns per byte: any other summation order
  // rounds these busy times the other way).
  for (const NetworkLinkOptions& link :
       {NetworkLinkOptions{.rtt_us = 50, .per_key_us = 1},
        NetworkLinkOptions{.rtt_us = 2000,
                           .per_key_us = 2,
                           .per_byte_us = 0.01,
                           .service_rate = 7e6},
        NetworkLinkOptions{.rtt_us = 3,
                           .per_key_us = 0.0015,
                           .per_byte_us = 0.007,
                           .service_rate = 2e6}}) {
    SCOPED_TRACE("rtt_us=" + std::to_string(link.rtt_us));
    ClusterOptions co{.num_storage_nodes = 4, .backend = BackendKind::kMem};
    co.network.link = link;
    Cluster cluster(co);
    // The *_cached ctest configuration force-enables the BlockCache via
    // the environment; these assertions count backend round trips, so
    // the cache must stay out of the way.
    cluster.SetCacheBypass(true);
    const NetworkModel& net = *cluster.network();
    // The test's own prices: service ns and per-node busy ns.
    struct Priced {
      uint64_t service_ns = 0;
      std::vector<uint64_t> busy_ns = std::vector<uint64_t>(4, 0);
      void Add(int node, const NetworkModel::Cost& c) {
        service_ns += static_cast<uint64_t>(c.latency_ns);
        busy_ns[static_cast<size_t>(node)] += static_cast<uint64_t>(c.busy_ns);
      }
    } want_batched, want_singles;
    std::vector<std::string> keys;
    std::vector<uint64_t> node_keys(4, 0), node_bytes(4, 0);
    for (int i = 0; i < 32; ++i) {
      keys.push_back("key-" + std::to_string(i));
      const std::string value = "value-" + std::to_string(i);
      ASSERT_TRUE(cluster.Put(keys.back(), value).ok());
      const int node = cluster.NodeFor(keys.back());
      const uint64_t bytes = keys.back().size() + value.size();
      node_keys[static_cast<size_t>(node)] += 1;
      node_bytes[static_cast<size_t>(node)] += bytes;
      want_singles.Add(node, net.RequestCost(node, 1, bytes));
    }
    for (int n = 0; n < 4; ++n) {
      const size_t i = static_cast<size_t>(n);
      if (node_keys[i] > 0) {
        want_batched.Add(n, net.RequestCost(n, node_keys[i], node_bytes[i]));
      }
    }

    QueryMetrics batched;
    auto values = cluster.MultiGet(keys, &batched, CacheFill::kFill,
                                   FanoutMode::kSerial);
    ASSERT_EQ(values.size(), keys.size());
    uint64_t batched_trips = 0;
    for (uint64_t t : batched.net_node_round_trips) batched_trips += t;
    EXPECT_LE(batched_trips, 4u);  // one per touched node
    EXPECT_EQ(batched_trips, batched.get_round_trips);
    EXPECT_EQ(batched.net_service_ns, want_batched.service_ns);
    EXPECT_EQ(batched.net_node_busy_ns, want_batched.busy_ns);

    QueryMetrics singles;
    for (size_t i = 0; i < keys.size(); ++i) {
      auto got = GetOne(cluster, keys[i], &singles);
      ASSERT_TRUE(got.ok() && values[i].has_value());
      EXPECT_EQ(*got, *values[i]);
    }
    uint64_t single_trips = 0;
    for (uint64_t t : singles.net_node_round_trips) single_trips += t;
    EXPECT_EQ(single_trips, 32u);  // one per key
    EXPECT_EQ(singles.net_service_ns, want_singles.service_ns);
    EXPECT_EQ(singles.net_node_busy_ns, want_singles.busy_ns);

    // Same values, #get and payloads either way; the batch saves
    // (32 - nodes) RTTs and, with a service rate, as many slots.
    EXPECT_EQ(singles.get_calls, batched.get_calls);
    EXPECT_EQ(singles.bytes_from_storage, batched.bytes_from_storage);
    EXPECT_EQ(singles.net_transfer_bytes, batched.net_transfer_bytes);
    EXPECT_EQ(batched.multiget_calls, 1u);
    EXPECT_EQ(singles.multiget_calls, keys.size());
    EXPECT_GE(singles.net_service_ns - batched.net_service_ns,
              (single_trips - batched_trips) *
                  static_cast<uint64_t>(link.rtt_us * 1000));
  }
}

TEST(ClusterNetworkTest, WritesAreMeteredButNeverStalled) {
  ClusterOptions co{.num_storage_nodes = 2, .backend = BackendKind::kMem};
  co.network.link.rtt_us = 50000;  // 50ms — a stalled write would be visible
  Cluster cluster(co);
  QueryMetrics m;
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(cluster.Put("k", "vv", &m).ok());
  ASSERT_TRUE(cluster.Delete("k", &m).ok());
  EXPECT_LT(SecondsSince(start), 0.040);
  uint64_t trips = 0;
  for (uint64_t t : m.net_node_round_trips) trips += t;
  EXPECT_EQ(trips, 2u);
  EXPECT_EQ(m.net_transfer_bytes, 3u + 1u);  // put ships k+vv, delete ships k

  // A read over the same link does wait out its round trip.
  cluster.SetCacheBypass(true);  // the *_cached configuration would hit
  ASSERT_TRUE(cluster.Put("a", "1").ok());
  QueryMetrics read;
  start = std::chrono::steady_clock::now();
  ASSERT_TRUE(GetOne(cluster, "a", &read).ok());
  EXPECT_GE(SecondsSince(start), 0.050);
  EXPECT_EQ(read.net_service_ns, 50'000'000u);
  EXPECT_EQ(read.net_transfer_bytes, 2u);  // "a" out, "1" back
}

// ----------------------------- TaaV scan: absolute network accounting ---

// The baseline scan prices one request per tuple against the tuple's
// owning node. Its network totals must equal what the test derives
// itself from the link prices: per-tuple RequestCost latencies in scan
// order, summed over each worker's ChunkRange slice. Checked for every
// worker count, stall schedule and parallel mode, not only as equal
// between them.
TEST(TaavScanNetworkTest, TotalsEqualPerTupleCostsSummedPerChunk) {
  ClusterOptions co{.num_storage_nodes = 4, .backend = BackendKind::kMem};
  co.network.link =
      NetworkLinkOptions{.rtt_us = 3, .per_key_us = 1, .per_byte_us = 0.01};
  co.network.node_links = {
      NetworkLinkOptions{.rtt_us = 30, .per_key_us = 2, .per_byte_us = 0.02},
      co.network.link,
      NetworkLinkOptions{.rtt_us = 7, .per_byte_us = 0.05,
                         .service_rate = 100000},
  };
  Cluster cluster(co);
  const NetworkModel& net = *cluster.network();
  TableSchema schema("pad",
                     {{"id", ValueType::kInt}, {"s", ValueType::kString}},
                     {"id"});
  Relation data({"id", "s"});
  for (int64_t i = 0; i < 37; ++i) {
    data.Add({Value(i), Value(std::string(static_cast<size_t>(i % 7) * 5,
                                          'x'))});
  }
  ASSERT_TRUE(TaavLoadRelation(&cluster, schema, data).ok());

  struct Request {
    int node;
    uint64_t latency_ns;
  };
  std::vector<Request> requests;
  cluster.ScanPrefix(TaavPrefix("pad"), nullptr,
                     [&](std::string_view key, std::string_view value) {
                       int node = cluster.NodeFor(key);
                       requests.push_back(
                           {node, static_cast<uint64_t>(
                                      net.RequestCost(node, 1,
                                                      key.size() + value.size())
                                          .latency_ns)});
                     });
  ASSERT_EQ(requests.size(), 37u);
  uint64_t total_ns = 0;
  for (const auto& r : requests) total_ns += r.latency_ns;

  for (int workers : {1, 2, 4}) {
    const size_t p = static_cast<size_t>(workers);
    uint64_t serial_worst = 0;      // slowest chunk, requests back to back
    uint64_t overlapped_worst = 0;  // slowest chunk, one chain per node
    uint64_t touched_max = 0;       // most nodes one chunk reaches
    for (size_t w = 0; w < p; ++w) {
      auto [begin, end] = ChunkRange(requests.size(), w, p);
      uint64_t chunk_ns = 0;
      std::vector<uint64_t> node_ns(4, 0);
      for (size_t i = begin; i < end; ++i) {
        chunk_ns += requests[i].latency_ns;
        node_ns[static_cast<size_t>(requests[i].node)] +=
            requests[i].latency_ns;
      }
      serial_worst = std::max(serial_worst, chunk_ns);
      overlapped_worst = std::max(
          overlapped_worst, *std::max_element(node_ns.begin(), node_ns.end()));
      touched_max = std::max<uint64_t>(
          touched_max, static_cast<uint64_t>(std::count_if(
                           node_ns.begin(), node_ns.end(),
                           [](uint64_t ns) { return ns > 0; })));
    }
    for (FanoutMode fanout : {FanoutMode::kSerial, FanoutMode::kOverlapped}) {
      for (ParallelMode mode :
           {ParallelMode::kSimulated, ParallelMode::kThreads}) {
        SCOPED_TRACE(
            "workers=" + std::to_string(workers) +
            (fanout == FanoutMode::kSerial ? " serial" : " overlapped") +
            (mode == ParallelMode::kThreads ? " threads" : " simulated"));
        std::unique_ptr<ThreadPool> pool;
        if (mode == ParallelMode::kThreads && workers > 1) {
          pool = std::make_unique<ThreadPool>(workers - 1);
        }
        QueryMetrics m;
        auto rel = TaavScanTable(cluster, schema, "t", &m, pool.get(), workers,
                                 fanout);
        ASSERT_TRUE(rel.ok()) << rel.status().ToString();
        EXPECT_EQ(rel->size(), 37u);
        EXPECT_EQ(m.net_service_ns, total_ns);
        EXPECT_DOUBLE_EQ(m.makespan_net_seconds,
                         static_cast<double>(serial_worst) / 1e9);
        if (fanout == FanoutMode::kOverlapped) {
          EXPECT_EQ(m.net_overlap_ns, serial_worst - overlapped_worst);
          EXPECT_EQ(m.net_inflight_max, touched_max);
        } else {
          EXPECT_EQ(m.net_overlap_ns, 0u);
          EXPECT_EQ(m.net_inflight_max, 0u);
        }
      }
    }
  }
}

// ------------------------------------------ stats reads on the network ---

TEST(StatsReadNetworkTest, StatsOnlyExtendPaysTheFullReadsNetworkCost) {
  // A stats-pushdown read fetches the same segments as a full block read,
  // so it waits on the same round trips; only its charged bytes shrink to
  // the headers. Every network counter must therefore match the full
  // read's, and the overlap it reports cannot exceed what it waited.
  auto w = MakeMot(0.15, 23);
  ASSERT_TRUE(w.ok());
  ClusterOptions co{.num_storage_nodes = 4, .backend = BackendKind::kMem};
  co.network.link = NetworkLinkOptions{.rtt_us = 50};
  Cluster cluster(co);
  // Both reads must reach the nodes, under the cached ctest configuration
  // too: a bypassed cache is neither consulted nor filled.
  cluster.SetCacheBypass(true);
  Zidian z(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(z.BuildBaav(w->data).ok());

  KvInst seeds;
  seeds.key_cols = {"d"};
  seeds.rel = Relation(seeds.key_cols);
  for (int64_t v = 1; v <= 64; ++v) seeds.rel.Add({Value(v)});
  KbaExecutor exec(&z.store());
  for (int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    QueryMetrics full, stats;
    for (bool stats_only : {false, true}) {
      auto plan =
          KbaPlan::Extend(KbaPlan::Const(seeds), "mot_test@vehicle_id", "t",
                          {{"d", "vehicle_id"}}, stats_only);
      auto r = exec.Execute(*plan,
                            KbaExecOptions{.workers = workers,
                                           .fanout = FanoutMode::kOverlapped},
                            stats_only ? &stats : &full);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    EXPECT_GT(full.net_service_ns, 0u);
    EXPECT_EQ(stats.net_service_ns, full.net_service_ns);
    EXPECT_EQ(stats.net_node_round_trips, full.net_node_round_trips);
    EXPECT_EQ(stats.net_node_busy_ns, full.net_node_busy_ns);
    EXPECT_EQ(stats.makespan_net_seconds, full.makespan_net_seconds);
    EXPECT_LT(stats.bytes_from_storage, full.bytes_from_storage);
    EXPECT_LE(stats.net_overlap_ns, stats.net_service_ns);
  }
}

// ------------------------------------- mode parity, non-uniform network ---

class NetworkParityFixture : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    auto w = MakeMot(0.1, 31);
    ASSERT_TRUE(w.ok());
    workload_ = std::move(w).value();
    ClusterOptions co{.num_storage_nodes = 4, .backend = GetParam()};
    // Non-uniform: node 2 is 8x slower than node 1 and rate-limited, so
    // the bottleneck-node queueing term is exercised for real.
    co.network.link =
        NetworkLinkOptions{.rtt_us = 20, .per_key_us = 1, .per_byte_us = 0.001};
    co.network.node_links = {
        NetworkLinkOptions{.rtt_us = 40, .per_key_us = 1},
        NetworkLinkOptions{.rtt_us = 10},
        NetworkLinkOptions{.rtt_us = 80, .per_key_us = 2, .service_rate = 20000},
        NetworkLinkOptions{.rtt_us = 20, .per_byte_us = 0.002},
    };
    cluster_ = std::make_unique<Cluster>(co);
    zidian_ = std::make_unique<Zidian>(&workload_.catalog, cluster_.get(),
                                       workload_.baav);
    ASSERT_TRUE(zidian_->LoadTaav(workload_.data).ok());
    ASSERT_TRUE(zidian_->BuildBaav(workload_.data).ok());
  }

  void ExpectParity(const std::string& sql, RoutePolicy policy) {
    Connection conn = zidian_->Connect();
    auto prepared = conn.Prepare(sql);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    EXPECT_TRUE(prepared->Explain().network_enabled);

    // Under the cache-enabled ctest configuration the first run fills the
    // BlockCache; warm it so the reference and every threaded run see the
    // same residency (the contract test_parallel_exec uses too).
    if (cluster_->cache_enabled()) {
      auto warm = prepared->Execute(
          ExecOptions{.workers = 8, .route_policy = policy});
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    }

    AnswerInfo sim;
    auto ref = prepared->Execute(
        ExecOptions{.workers = 8, .route_policy = policy}, &sim);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    // A warm BlockCache may legitimately serve the whole run without a
    // single network request — that IS the cache's job — so only a
    // cache-less run must show network traffic.
    if (!cluster_->cache_enabled()) {
      EXPECT_GT(sim.metrics.net_service_ns, 0u);
    }
    std::string reference = ref->ToString(1u << 20);

    for (int run = 0; run < 3; ++run) {
      AnswerInfo thr;
      auto r = prepared->Execute(
          ExecOptions{.workers = 8,
                      .route_policy = policy,
                      .parallel_mode = ParallelMode::kThreads},
          &thr);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->ToString(1u << 20), reference) << "run " << run;
      ASSERT_TRUE(CountersEqual(thr.metrics, sim.metrics))
          << "run " << run << "\n  sim: " << sim.metrics.ToString()
          << "\n  thr: " << thr.metrics.ToString();
    }
  }

  Workload workload_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Zidian> zidian_;
};

TEST_P(NetworkParityFixture, KbaRouteCountersMatchAcrossModes) {
  // mot-q1: scan-free extension fan-out — the batched MultiGet hot path.
  ExpectParity(workload_.queries[0].sql, RoutePolicy::kAuto);
}

TEST_P(NetworkParityFixture, BaselineCountersMatchAcrossModes) {
  // mot-q9 via the baseline: per-tuple gets priced by the non-uniform
  // network, chunked across workers under kThreads.
  ExpectParity(workload_.queries[8].sql, RoutePolicy::kForceBaseline);
}

TEST_P(NetworkParityFixture, SimSecondsReflectsTheNetworkLeg) {
  Connection conn = zidian_->Connect();
  auto prepared = conn.Prepare(workload_.queries[0].sql);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  AnswerInfo info;
  auto r = prepared->Execute(ExecOptions{.workers = 4}, &info);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The network contribution is visible in SimSeconds: stripping the
  // net legs from the metrics must strictly lower the estimate.
  QueryMetrics stripped = info.metrics;
  stripped.makespan_net_seconds = 0;
  stripped.net_queue_seconds = 0;
  EXPECT_GT(SimSeconds(info.metrics, SoH()), SimSeconds(stripped, SoH()));
}

INSTANTIATE_TEST_SUITE_P(Engines, NetworkParityFixture,
                         ::testing::Values(BackendKind::kLsm,
                                           BackendKind::kMem),
                         [](const auto& info) {
                           return std::string(BackendKindName(info.param));
                         });

}  // namespace
}  // namespace zidian
