// The concurrency test battery for the serving layer (serve/server.h):
//
//  * load-generator determinism, skew and weighting;
//  * AdmissionQueue MPMC semantics (bounded, close-and-drain) and the
//    ClosedLoopFeed's order and admission instants;
//  * the headline parity contract — M sessions x K queries on ONE shared
//    Zidian/Cluster/BlockCache return rows byte-identical to a serial
//    baseline run with CountersEqual holding per query, however the
//    sessions interleave;
//  * distinct Connections sharing one injected ExecOptions::pool;
//  * the SharedPoolState growth-retires regression (use-after-free when a
//    concurrent Execute raises `workers` mid-flight);
//  * a read/write mix: write templates staging BaaV maintenance alongside
//    readers and committing under the Cluster storage gate's exclusive
//    side, with post-run KBA-vs-baseline agreement;
//  * the benchmark's update shape (a Delete then an Insert of one row)
//    racing COUNT(*) reads, and two-round reads racing an update of both
//    blocks they read: no read sees an update half applied; TaaV-fallback
//    reads beside updates answer intact or fail cleanly, never hang;
//  * reads beside commits, deterministically: a read whose two storage
//    accesses straddle a commit restarts once and answers from after it;
//    a read torn on every attempt fails after kMaxReadRestarts restarts;
//    a commit never waits for a read's stall; a plan prepared before a
//    commit that moved a degree stays correct;
//  * a template whose second mutation fails writes nothing;
//  * concurrent first prepares on a restored cluster, which all seed the
//    store's degree counts (TSan checks the counts' lock);
//  * open-loop rejection accounting on a saturated admission queue.
//
// Registered in the plain, *_cached AND TSan ctest configurations. In the
// cached configuration every compared run happens at the BlockCache's
// steady state (a warm pass first), which is what makes per-query cache
// counters interleaving-invariant.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ra/taav.h"
#include "serve/load_generator.h"
#include "serve/server.h"
#include "storage/cluster.h"
#include "storage/mem_backend.h"
#include "test_support.h"
#include "workloads/workload.h"
#include "zidian/connection.h"
#include "zidian/zidian.h"

namespace zidian {
namespace serve {
namespace {

// ---------------------------------------------------------- load generator ---

ServeTemplate PointTemplate(double weight = 1) {
  ServeTemplate t;
  t.name = "point";
  t.weight = weight;
  t.sql = [](uint64_t key) {
    return "SELECT v.make, v.model, t.test_date, t.test_result, "
           "t.test_mileage FROM vehicle v, mot_test t "
           "WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = " +
           std::to_string(key);
  };
  return t;
}

ServeTemplate AggTemplate(double weight = 1) {
  ServeTemplate t;
  t.name = "agg";
  t.weight = weight;
  t.sql = [](uint64_t key) {
    return "SELECT t.test_result, COUNT(*), MAX(t.test_mileage) "
           "FROM vehicle v, mot_test t "
           "WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = " +
           std::to_string(key) + " GROUP BY t.test_result";
  };
  return t;
}

TEST(LoadGenerator, SchedulesAreDeterministicPerStream) {
  LoadOptions load;
  load.streams = 3;
  load.ops_per_stream = 50;
  load.seed = 9;
  load.zipf_keys = 40;
  load.mix = {PointTemplate(), AggTemplate()};

  auto a = GenerateStream(load, 1);
  auto b = GenerateStream(load, 1);
  ASSERT_EQ(a.size(), 50u);
  ASSERT_EQ(a.size(), b.size());
  bool streams_differ = false;
  auto other = GenerateStream(load, 2);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << i;
    EXPECT_EQ(a[i].template_idx, b[i].template_idx) << i;
    EXPECT_EQ(a[i].arrival_ns, b[i].arrival_ns) << i;
    EXPECT_EQ(a[i].seq, i);
    EXPECT_GE(a[i].key, 1u);
    EXPECT_LE(a[i].key, 40u);
    streams_differ |= (a[i].key != other[i].key);
  }
  // Distinct streams are independent RNG draws, not copies.
  EXPECT_TRUE(streams_differ);
}

TEST(LoadGenerator, OpenLoopFeedIsArrivalOrderedSaturationIsRoundRobin) {
  LoadOptions load;
  load.streams = 4;
  load.ops_per_stream = 30;
  load.offered_load = 5000;
  load.mix = {PointTemplate()};

  auto open = GenerateFeed(load);
  ASSERT_EQ(open.size(), 120u);
  for (size_t i = 1; i < open.size(); ++i) {
    EXPECT_LE(open[i - 1].arrival_ns, open[i].arrival_ns) << i;
  }
  EXPECT_GT(open.back().arrival_ns, 0);

  load.offered_load = 0;  // saturation: no clock, fair interleave
  auto sat = GenerateFeed(load);
  ASSERT_EQ(sat.size(), 120u);
  for (size_t i = 0; i < sat.size(); ++i) {
    EXPECT_EQ(sat[i].arrival_ns, 0) << i;
    EXPECT_EQ(sat[i].stream, i % 4) << i;
    EXPECT_EQ(sat[i].seq, i / 4) << i;
  }
}

TEST(LoadGenerator, ZipfSkewAndZeroWeightTemplates) {
  LoadOptions load;
  load.streams = 1;
  load.ops_per_stream = 3000;
  load.zipf_keys = 50;
  load.zipf_s = 0.99;
  // A zero-weight template must never be sampled.
  load.mix = {PointTemplate(3), AggTemplate(0)};

  auto ops = GenerateStream(load, 0);
  ASSERT_EQ(ops.size(), 3000u);
  uint64_t rank1 = 0, rank_tail = 0;
  for (const ServeOp& op : ops) {
    EXPECT_EQ(op.template_idx, 0u);
    rank1 += op.key == 1;
    rank_tail += op.key == 50;
  }
  // Rank 1 must dominate the tail rank by a wide margin under s = 0.99.
  EXPECT_GT(rank1, 10 * std::max<uint64_t>(1, rank_tail));

  load.mix = {AggTemplate(0)};  // all weights <= 0: empty schedule
  EXPECT_TRUE(GenerateStream(load, 0).empty());
}

// --------------------------------------------------------- admission queue ---

TEST(AdmissionQueue, BoundedTryPushAndCloseDrain) {
  AdmissionQueue q(2);
  EXPECT_TRUE(q.TryPush(AdmittedOp{ServeOp{.seq = 1}, 0}));
  EXPECT_TRUE(q.TryPush(AdmittedOp{ServeOp{.seq = 2}, 0}));
  EXPECT_FALSE(q.TryPush(AdmittedOp{ServeOp{.seq = 3}, 0}));  // at depth
  q.Close();
  EXPECT_FALSE(q.TryPush(AdmittedOp{ServeOp{.seq = 4}, 0}));  // closed

  // Pending ops still drain after Close; then Pop signals shutdown.
  AdmittedOp out;
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out.op.seq, 1u);
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out.op.seq, 2u);
  EXPECT_FALSE(q.Pop(&out));
}

TEST(AdmissionQueue, CloseReleasesABlockedPop) {
  // A consumer waiting on an empty queue returns false once it closes,
  // whether it was already waiting or arrives after the close.
  AdmissionQueue q(1);
  std::thread consumer([&] {
    AdmittedOp out;
    EXPECT_FALSE(q.Pop(&out));
  });
  q.Close();
  consumer.join();
}

TEST(AdmissionQueue, ManyProducersManyConsumersConserveOps) {
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 500;
  AdmissionQueue q(8);
  std::atomic<uint64_t> popped{0}, sum{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      AdmittedOp out;
      while (q.Pop(&out)) {
        popped.fetch_add(1);
        sum.fetch_add(out.op.seq);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        uint64_t seq = uint64_t(p) * kPerProducer + uint64_t(i);
        // Retry a full queue until a consumer frees a slot.
        while (!q.TryPush(
            AdmittedOp{ServeOp{.stream = uint32_t(p), .seq = seq}, 0})) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : threads) t.join();
  constexpr uint64_t kTotal = uint64_t(kProducers) * kPerProducer;
  EXPECT_EQ(popped.load(), kTotal);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);  // each seq exactly once
}

TEST(ClosedLoopFeed, TakesOpsInOrderAdmittedDepthAhead) {
  std::vector<ServeOp> feed;
  for (uint64_t i = 0; i < 6; ++i) feed.push_back(ServeOp{.seq = i});
  // An epoch in the past: every admission instant after the first
  // `depth` ops is then positive.
  const int64_t epoch_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count() -
      1'000'000;
  ClosedLoopFeed f(feed, 2, epoch_ns);
  std::vector<AdmittedOp> got(feed.size());
  for (auto& op : got) ASSERT_TRUE(f.Pop(&op));
  AdmittedOp out;
  EXPECT_FALSE(f.Pop(&out));
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].op.seq, i) << i;
  // The first `depth` ops are admitted at the run start; op i + 2 when
  // op i was taken, so the instants never decrease.
  EXPECT_EQ(got[0].arrival_ns, 0);
  EXPECT_EQ(got[1].arrival_ns, 0);
  for (size_t i = 2; i < got.size(); ++i) {
    EXPECT_GE(got[i].arrival_ns, 1'000'000) << i;
    EXPECT_GE(got[i].arrival_ns, got[i - 1].arrival_ns) << i;
  }
}

TEST(ClosedLoopFeed, ConcurrentSessionsTakeEachOpOnce) {
  constexpr int kSessions = 4;
  constexpr uint64_t kOps = 2000;
  std::vector<ServeOp> feed;
  for (uint64_t i = 0; i < kOps; ++i) feed.push_back(ServeOp{.seq = i});
  ClosedLoopFeed f(feed, 3, 0);
  std::atomic<uint64_t> taken{0}, sum{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&] {
      AdmittedOp out;
      while (f.Pop(&out)) {
        taken.fetch_add(1);
        sum.fetch_add(out.op.seq);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(taken.load(), kOps);
  EXPECT_EQ(sum.load(), kOps * (kOps - 1) / 2);  // each seq exactly once
}

// ------------------------------------------------------------- the battery ---

class ServeConcurrentFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto w = MakeMot(0.2, 91);
    ASSERT_TRUE(w.ok());
    workload_ = std::move(w).value();
    cluster_ = std::make_unique<Cluster>(ClusterOptions{
        .num_storage_nodes = 4});
    zidian_ = std::make_unique<Zidian>(&workload_.catalog, cluster_.get(),
                                       workload_.baav);
    ASSERT_TRUE(zidian_->LoadTaav(workload_.data).ok());
    ASSERT_TRUE(zidian_->BuildBaav(workload_.data).ok());
    n_vehicles_ = static_cast<uint64_t>(workload_.data.at("vehicle").size());
  }

  LoadOptions ReadMix() const {
    LoadOptions load;
    load.ops_per_stream = 40;
    load.seed = 7;
    load.zipf_keys = n_vehicles_;  // every sampled rank is a live vehicle
    load.zipf_s = 0.9;
    load.mix = {PointTemplate(3), AggTemplate(1)};
    return load;
  }

  Workload workload_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Zidian> zidian_;
  uint64_t n_vehicles_ = 0;
};

TEST_F(ServeConcurrentFixture, RunRejectsUnsafeOptions) {
  {
    Server server(zidian_.get(), ServeOptions{});  // empty mix
    auto r = server.Run();
    EXPECT_FALSE(r.ok());
  }
  {
    ServeOptions options;
    options.load = ReadMix();
    options.exec.bypass_cache = true;  // cluster-global toggle: refused
    Server server(zidian_.get(), options);
    auto r = server.Run();
    EXPECT_FALSE(r.ok());
  }
}

// The headline contract: 4 sessions x 160 queries against the one shared
// Cluster/BlockCache return, for EVERY query, rows byte-identical to the
// serial baseline and per-query CountersEqual — whatever the interleaving.
TEST_F(ServeConcurrentFixture, ConcurrentRowsAndCountersMatchSerialBaseline) {
  LoadOptions load = ReadMix();
  load.streams = 4;
  std::vector<ServeOp> feed = GenerateFeed(load);
  ASSERT_EQ(feed.size(), 160u);

  // Serial baseline. Pass 1 warms the BlockCache (when the *_cached
  // configuration attached one) so pass 2 records the steady state every
  // later run — serial or concurrent — must reproduce: all hits, zero
  // evictions. That steadiness is what MAKES the cache counters
  // interleaving-invariant.
  struct Expected {
    std::string rows;
    QueryMetrics metrics;
  };
  std::map<std::string, Expected> expected;
  {
    Connection conn = zidian_->Connect();
    for (int pass = 0; pass < 2; ++pass) {
      for (const ServeOp& op : feed) {
        std::string sql = load.mix[op.template_idx].sql(op.key);
        if (pass == 1 && expected.count(sql)) continue;
        AnswerInfo info;
        auto rows = conn.Execute(sql, ExecOptions{}, &info);
        ASSERT_TRUE(rows.ok()) << sql << "\n" << rows.status().ToString();
        if (pass == 1) {
          EXPECT_EQ(info.metrics.cache_evictions, 0u) << sql;
          expected.emplace(sql,
                           Expected{rows->ToString(1u << 20), info.metrics});
        }
      }
    }
  }

  Mutex check_mu;
  uint64_t checked = 0;  // protected by check_mu
  ServeOptions options;
  options.sessions = 4;
  options.queue_depth = 16;
  options.load = load;
  options.on_result = [&](const ServeOp& op, const Relation& rows,
                          const AnswerInfo& info) {
    std::string sql = load.mix[op.template_idx].sql(op.key);
    std::string text = rows.ToString(1u << 20);
    MutexLock lock(check_mu);
    auto it = expected.find(sql);
    ASSERT_NE(it, expected.end()) << sql;
    EXPECT_EQ(text, it->second.rows) << sql;
    EXPECT_TRUE(CountersEqual(info.metrics, it->second.metrics))
        << sql << "\n  serial:     " << it->second.metrics.ToString()
        << "\n  concurrent: " << info.metrics.ToString();
    ++checked;
  };

  Server server(zidian_.get(), options);
  auto result = server.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->offered, 160u);
  EXPECT_EQ(result->completed, 160u);
  EXPECT_EQ(result->failed, 0u);
  EXPECT_EQ(result->rejected, 0u);  // saturation mode never rejects
  EXPECT_EQ(result->writes_admitted, 0u);
  EXPECT_EQ(result->latency.count(), 160u);
  EXPECT_GT(result->latency.Quantile(0.99), 0);
  EXPECT_GT(result->Throughput(), 0.0);
  ASSERT_EQ(result->per_session.size(), 4u);
  uint64_t per_session_total = 0;
  for (const SessionStats& s : result->per_session) {
    per_session_total += s.completed;
  }
  EXPECT_EQ(per_session_total, 160u);
  {
    MutexLock lock(check_mu);
    EXPECT_EQ(checked, 160u);
  }
}

// Distinct Connections sharing one caller-owned ExecOptions::pool must
// execute concurrently with full row/counter parity: ParallelFor batches
// from different sessions interleave on the same worker threads.
TEST_F(ServeConcurrentFixture, DistinctConnectionsShareOneInjectedPool) {
  const std::string sql = workload_.queries[7].sql;  // mot-q8: extend-heavy
  ThreadPool pool(3);

  AnswerInfo reference_info;
  std::string reference_rows;
  {
    Connection conn = zidian_->Connect();
    auto prepared = conn.Prepare(sql);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    if (cluster_->cache_enabled()) {
      ASSERT_TRUE(prepared->Execute(ExecOptions{.workers = 4}).ok());
    }
    auto rows = prepared->Execute(ExecOptions{.workers = 4}, &reference_info);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    reference_rows = rows->ToString(1u << 20);
  }

  constexpr int kSessions = 4, kRuns = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&] {
      Connection conn = zidian_->Connect();
      auto prepared = conn.Prepare(sql);
      if (!prepared.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int run = 0; run < kRuns; ++run) {
        AnswerInfo info;
        auto rows = prepared->Execute(
            ExecOptions{.workers = 4,
                        .parallel_mode = ParallelMode::kThreads,
                        .pool = &pool},
            &info);
        if (!rows.ok() || rows->ToString(1u << 20) != reference_rows ||
            !CountersEqual(info.metrics, reference_info.metrics)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Regression for SharedPoolState growth-by-replacement: one session
// raising `workers` used to DESTROY (join) the pool another session's
// in-flight Execute still held — a use-after-free. Growth now retires the
// superseded pool; both sessions must stay correct throughout.
TEST_F(ServeConcurrentFixture, SharedPoolGrowthRacingExecutesIsSafe) {
  const std::string sql = workload_.queries[7].sql;
  Connection conn = zidian_->Connect();
  auto steady = conn.Prepare(sql);
  auto grower = conn.Prepare(sql);  // same Connection: shares pool state
  ASSERT_TRUE(steady.ok());
  ASSERT_TRUE(grower.ok());

  std::string reference_rows;
  {
    if (cluster_->cache_enabled()) {
      ASSERT_TRUE(steady->Execute(ExecOptions{.workers = 2}).ok());
    }
    auto rows = steady->Execute(ExecOptions{.workers = 2});
    ASSERT_TRUE(rows.ok());
    reference_rows = rows->ToString(1u << 20);
  }

  std::atomic<int> failures{0};
  std::thread steady_thread([&] {
    for (int run = 0; run < 40; ++run) {
      auto rows = steady->Execute(ExecOptions{
          .workers = 2, .parallel_mode = ParallelMode::kThreads});
      if (!rows.ok() || rows->ToString(1u << 20) != reference_rows) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  std::thread grower_thread([&] {
    for (int workers = 2; workers <= 8; ++workers) {  // each step grows
      auto rows = grower->Execute(ExecOptions{
          .workers = workers, .parallel_mode = ParallelMode::kThreads});
      if (!rows.ok() || rows->ToString(1u << 20) != reference_rows) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  steady_thread.join();
  grower_thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// Write templates racing read sessions: their maintenance reads overlap
// the readers, their commits take the storage gate exclusive. After the run
// both layouts must agree (KBA vs baseline differential) and every
// admitted insert must be visible on both routes.
TEST_F(ServeConcurrentFixture, WriteMixKeepsLayoutsConsistent) {
  ServeTemplate insert_test;
  insert_test.name = "insert_mot_test";
  insert_test.weight = 1;
  insert_test.write = [](Zidian& zidian, const ServeOp& op) {
    // Unique test_id per (stream, seq), far above the loaded id range.
    int64_t tid = 10000000 + int64_t(op.stream) * 100000 + int64_t(op.seq);
    return zidian.Insert(
        "mot_test",
        {Value(tid), Value(int64_t(op.key)), Value(int64_t{15000}),
         Value(std::string("PASS")), Value(int64_t{42000}), Value(int64_t{7}),
         Value(int64_t{4}), Value(std::string("NORMAL")), Value(39.95),
         Value(int64_t{45}), Value(int64_t{11}), Value(int64_t{0}),
         Value(int64_t{1}), Value(int64_t{0})});
  };

  LoadOptions load = ReadMix();
  load.streams = 4;
  load.ops_per_stream = 30;
  load.seed = 13;
  load.mix = {PointTemplate(3), AggTemplate(1), insert_test};
  std::vector<ServeOp> feed = GenerateFeed(load);
  uint64_t expected_writes = 0;
  std::map<uint64_t, uint64_t> inserts_per_vehicle;
  for (const ServeOp& op : feed) {
    if (load.mix[op.template_idx].is_write()) {
      ++expected_writes;
      ++inserts_per_vehicle[op.key];
    }
  }
  ASSERT_GT(expected_writes, 0u);

  ServeOptions options;
  options.sessions = 4;
  options.load = load;
  Server server(zidian_.get(), options);
  auto result = server.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // No write failed, so every admitted write committed.
  EXPECT_EQ(result->writes_admitted, expected_writes);
  EXPECT_EQ(result->completed, result->offered);
  EXPECT_EQ(result->failed, 0u);

  // Differential consistency after the dust settles: the KBA route and
  // the TaaV baseline must agree per vehicle, and the test count must be
  // the 5 loaded rows plus exactly the inserts admitted for that vehicle.
  Connection conn = zidian_->Connect();
  for (uint64_t vid : {uint64_t{1}, uint64_t{2}, uint64_t{5}}) {
    std::string sql = AggTemplate().sql(vid);
    AnswerInfo info;
    auto kba = conn.Execute(sql, ExecOptions{}, &info);
    ASSERT_TRUE(kba.ok()) << sql << "\n" << kba.status().ToString();
    auto base = conn.Execute(
        sql, ExecOptions{.route_policy = RoutePolicy::kForceBaseline});
    ASSERT_TRUE(base.ok()) << sql;
    Relation a = *kba, b = *base;
    a.SortRows();
    b.SortRows();
    EXPECT_EQ(a.ToString(1u << 20), b.ToString(1u << 20)) << sql;

    uint64_t tests = 0;
    for (const auto& row : a.rows()) {
      tests += uint64_t(row[1].Numeric());  // the COUNT(*) column
    }
    EXPECT_EQ(tests, 5u + inserts_per_vehicle[vid]) << "vehicle " << vid;
  }
}

/// `sql`'s rows on the KBA route and on the TaaV baseline, each sorted.
std::pair<std::string, std::string> BothRoutes(Zidian* zidian,
                                               const std::string& sql) {
  Connection conn = zidian->Connect();
  auto kba = conn.Execute(sql, ExecOptions{});
  auto base = conn.Execute(
      sql, ExecOptions{.route_policy = RoutePolicy::kForceBaseline});
  EXPECT_TRUE(kba.ok() && base.ok()) << sql;
  if (!kba.ok() || !base.ok()) return {};
  kba->SortRows();
  base->SortRows();
  return {kba->ToString(1u << 20), base->ToString(1u << 20)};
}

// A template whose second mutation fails must leave both layouts as they
// were: its first mutation, a Delete of an existing row, stays staged and
// is never written.
TEST_F(ServeConcurrentFixture, FailedTemplateLeavesBothLayoutsUnchanged) {
  const Tuple row = workload_.data.at("mot_test").rows()[0];
  const std::string sql = PointTemplate().sql(1);  // the row's vehicle
  const auto answers = BothRoutes(zidian_.get(), sql);
  EXPECT_EQ(answers.first, answers.second);
  const std::vector<Pairs> before = NodePairs(*cluster_);

  Status second;
  ServeTemplate update;
  update.name = "delete_then_bad_insert";
  update.write = [&](Zidian& zidian, const ServeOp&) {
    ZIDIAN_RETURN_NOT_OK(zidian.Delete("mot_test", row));
    second = zidian.Insert("no_such_relation", row);
    return second;
  };
  ServeOptions options;
  options.sessions = 1;
  options.load.streams = 1;
  options.load.ops_per_stream = 1;
  options.load.mix = {update};
  Server server(zidian_.get(), options);
  auto result = server.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(result->failed, 1u);
  EXPECT_EQ(result->completed, 0u);
  EXPECT_EQ(result->metrics.failed_queries, 1u);
  EXPECT_EQ(result->writes_admitted, 1u);
  // Nothing committed: every node holds what it held before.
  EXPECT_TRUE(NodePairs(*cluster_) == before);
  EXPECT_EQ(BothRoutes(zidian_.get(), sql), answers);
}

// The benchmark's update shape, served: a write template deletes a hot
// vehicle's mot_test row, then inserts a copy with one non-key column's
// low bit flipped, racing COUNT(*) point reads of the same vehicles. The
// template's maintenance reads overlap the readers, but its two mutations
// commit together, so no read may count the row deleted and not yet
// re-inserted. Every round trip costs 200 us, which keeps the span
// between the two mutations long enough for readers to land in it, were
// they let in.
TEST(ServeUpdates, ReadsNeverSeeAnUpdateHalfApplied) {
  auto w = MakeMot(0.2, 91);
  ASSERT_TRUE(w.ok());
  ClusterOptions co{.num_storage_nodes = 4};
  co.network.link = NetworkLinkOptions{.rtt_us = 200};
  Cluster cluster(co);
  Zidian zidian(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(zidian.LoadTaav(w->data).ok());
  ASSERT_TRUE(zidian.BuildBaav(w->data).ok());

  constexpr uint64_t kHot = 4;
  const Relation& tests = w->data.at("mot_test");
  const int vid = tests.ColumnIndex("vehicle_id");
  const int mileage = tests.ColumnIndex("test_mileage");
  // Each hot vehicle's current rows; only the (serialised) writer
  // touches them during the run.
  std::map<uint64_t, std::vector<Tuple>> current;
  for (const Tuple& t : tests.rows()) {
    uint64_t v = uint64_t(t[vid].AsInt());
    if (v <= kHot) current[v].push_back(t);
  }
  ASSERT_EQ(current.size(), kHot);
  const size_t loaded = current.at(1).size();

  ServeTemplate count;
  count.name = "count";
  count.weight = 4;
  count.sql = [](uint64_t key) {
    return "SELECT COUNT(*) FROM mot_test t WHERE t.vehicle_id = " +
           std::to_string(key);
  };
  ServeTemplate update;
  update.name = "update";
  update.weight = 1;
  update.write = [&](Zidian& z, const ServeOp& op) {
    std::vector<Tuple>& rows = current.at(op.key);
    Tuple& row = rows[op.seq % rows.size()];
    Tuple changed = row;
    changed[mileage] = Value(int64_t{row[mileage].AsInt() ^ 1});
    ZIDIAN_RETURN_NOT_OK(z.Delete("mot_test", row));
    ZIDIAN_RETURN_NOT_OK(z.Insert("mot_test", changed));
    row = std::move(changed);
    return Status::OK();
  };

  std::atomic<uint64_t> reads{0}, torn{0};
  ServeOptions options;
  options.sessions = 4;
  options.load.streams = 4;
  options.load.ops_per_stream = 60;
  options.load.seed = 5;
  options.load.zipf_keys = kHot;
  options.load.mix = {count, update};
  options.on_result = [&](const ServeOp&, const Relation& rows,
                          const AnswerInfo&) {
    reads.fetch_add(1);
    if (rows.size() != 1 || rows.rows()[0][0].Numeric() != double(loaded)) {
      torn.fetch_add(1);
    }
  };
  Server server(&zidian, options);
  auto result = server.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->failed, 0u);
  EXPECT_EQ(result->completed, result->offered);
  EXPECT_GT(result->writes_admitted, 0u);
  EXPECT_EQ(reads.load() + result->writes_admitted, result->completed);
  EXPECT_EQ(torn.load(), 0u) << "of " << reads.load() << " reads";
  // One storage access per read: a commit never splits one.
  EXPECT_EQ(result->metrics.read_restarts, 0u);
  RecordProperty("read_restarts", int(result->metrics.read_restarts));

  // Both layouts hold every vehicle's latest rows.
  for (uint64_t v = 1; v <= kHot; ++v) {
    const std::string sql =
        "SELECT t.test_id, t.test_mileage FROM mot_test t "
        "WHERE t.vehicle_id = " + std::to_string(v);
    auto [kba, base] = BothRoutes(&zidian, sql);
    EXPECT_EQ(kba, base) << sql;
    Relation expected({"t.test_id", "t.test_mileage"});
    for (const Tuple& t : current.at(v)) {
      expected.Add({t[tests.ColumnIndex("test_id")], t[mileage]});
    }
    expected.SortRows();
    EXPECT_EQ(kba, expected.ToString(1u << 20)) << sql;
  }
}

// ------------------------------------------- reads beside commits ---

/// A storage node that reports the first access reaching it after Arm():
/// the point at which a read holds the Cluster's storage gate shared.
class SignalingBackend : public KvBackend {
 public:
  struct Signal {
    std::atomic<bool> armed{false};
    std::promise<void> fired;
    void Arm() { armed.store(true); }
    /// Whether an access came within 10 s (a test fails, never hangs).
    bool Wait() {
      return fired.get_future().wait_for(std::chrono::seconds(10)) ==
             std::future_status::ready;
    }
  };

  explicit SignalingBackend(Signal* signal) : signal_(signal) {}

  std::string_view name() const override { return "signaling"; }
  Status Put(std::string_view key, std::string_view value) override {
    return inner_.Put(key, value);
  }
  Status Delete(std::string_view key) override { return inner_.Delete(key); }
  Result<std::string> Get(std::string_view key) const override {
    return inner_.Get(key);
  }
  void MultiGet(std::span<const BatchedKey> keys,
                std::vector<std::optional<std::string>>* out) const override {
    Fire();
    inner_.MultiGet(keys, out);
  }
  std::unique_ptr<KvIterator> NewIterator() const override {
    Fire();
    return inner_.NewIterator();
  }
  void Clear() override { inner_.Clear(); }
  size_t ApproximateBytes() const override {
    return inner_.ApproximateBytes();
  }
  size_t NumLiveEntries() const override { return inner_.NumLiveEntries(); }

 private:
  void Fire() const {
    if (signal_->armed.exchange(false)) signal_->fired.set_value();
  }
  Signal* signal_;
  MemBackend inner_;
};

/// `nodes` signaling nodes behind a link of `rtt_us` per round trip.
ClusterOptions SignalingClusterOptions(SignalingBackend::Signal* signal,
                                       double rtt_us, int nodes = 4) {
  ClusterOptions co{.num_storage_nodes = nodes};
  co.backend_factory = [signal] {
    return std::make_unique<SignalingBackend>(signal);
  };
  co.network.link = NetworkLinkOptions{.rtt_us = rtt_us};
  return co;
}

std::string Sorted(Relation rows) {
  rows.SortRows();
  return rows.ToString(1u << 20);
}

/// The parity update: flips the low bit of one mot_test row's mileage and
/// of its vehicle's engine size, as one write batch.
struct ParityUpdate {
  Tuple test, vehicle;  ///< the rows as stored
  size_t mileage_col, engine_col;

  ParityUpdate(const Workload& w, size_t test_row) {
    const Relation& tests = w.data.at("mot_test");
    const Relation& vehicles = w.data.at("vehicle");
    test = tests.rows()[test_row];
    const int64_t vid = test[size_t(tests.ColumnIndex("vehicle_id"))].AsInt();
    vehicle = vehicles.rows()[size_t(vid - 1)];
    mileage_col = size_t(tests.ColumnIndex("test_mileage"));
    engine_col = size_t(vehicles.ColumnIndex("engine_cc"));
  }
  static Tuple Flip(Tuple t, size_t col) {
    t[col] = Value(int64_t{t[col].AsInt() ^ 1});
    return t;
  }
  /// mileage ^ engine size: what the update keeps.
  int64_t Parity() const {
    return (test[mileage_col].AsInt() ^ vehicle[engine_col].AsInt()) & 1;
  }
  /// Stages the update into the open batch of `z`.
  Status Stage(Zidian& z) const {
    ZIDIAN_RETURN_NOT_OK(z.Delete("mot_test", test));
    ZIDIAN_RETURN_NOT_OK(z.Insert("mot_test", Flip(test, mileage_col)));
    ZIDIAN_RETURN_NOT_OK(z.Delete("vehicle", vehicle));
    return z.Insert("vehicle", Flip(vehicle, engine_col));
  }
  /// The rows as stored once a staged update committed.
  void Advance() {
    test = Flip(test, mileage_col);
    vehicle = Flip(vehicle, engine_col);
  }
};

/// Runs `sql` once while a commit of `update` lands between its first and
/// its second storage access, which a 50 ms stall separates: the commit
/// starts when the first access reaches a node and waits only for that
/// access to finish. The attempt straddles the commit, so Execute runs it
/// again once, and the answer is the one after the commit, with the
/// counters of an unraced run.
void ExpectStraddlingReadRestarts(const Workload& w, const std::string& sql,
                                  const ParityUpdate& update,
                                  ExecOptions opts) {
  SignalingBackend::Signal signal;
  Cluster cluster(SignalingClusterOptions(&signal, /*rtt_us=*/50000));
  Zidian zidian(&w.catalog, &cluster, w.baav);
  ASSERT_TRUE(zidian.LoadTaav(w.data).ok());
  ASSERT_TRUE(zidian.BuildBaav(w.data).ok());
  Connection conn = zidian.Connect();
  auto query = conn.Prepare(sql);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  opts.bypass_cache = true;

  AnswerInfo before_info;
  auto before = query->Execute(opts, &before_info);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_GT(before->size(), 0u);
  // Two storage accesses: two node batches under kSerial, two rounds
  // otherwise.
  ASSERT_EQ(opts.fanout == FanoutMode::kSerial
                ? before_info.metrics.get_round_trips
                : before_info.metrics.multiget_calls,
            2u);

  Zidian::WriteBatch batch(&zidian);
  ASSERT_TRUE(update.Stage(zidian).ok());
  signal.Arm();
  AnswerInfo raced_info;
  Result<Relation> raced = Relation();
  std::thread reader([&] { raced = query->Execute(opts, &raced_info); });
  EXPECT_TRUE(signal.Wait());
  EXPECT_TRUE(batch.Commit().ok());
  reader.join();

  AnswerInfo after_info;
  auto after = query->Execute(opts, &after_info);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_NE(Sorted(*before), Sorted(*after));
  ASSERT_TRUE(raced.ok()) << raced.status().ToString();
  EXPECT_EQ(Sorted(*raced), Sorted(*after));
  EXPECT_EQ(raced_info.metrics.read_restarts, 1u);
  EXPECT_EQ(after_info.metrics.read_restarts, 0u);
  EXPECT_TRUE(CountersEqual(raced_info.metrics, after_info.metrics))
      << "\n  raced: " << raced_info.metrics.ToString()
      << "\n  after: " << after_info.metrics.ToString();
}

TEST(ReadsBesideCommits, TwoRoundReadStraddlingACommitRestarts) {
  auto w = MakeMot(0.05, 17);
  ASSERT_TRUE(w.ok());
  const ParityUpdate update(*w, 0);
  const int64_t test_id =
      update.test[size_t(w->data.at("mot_test").ColumnIndex("test_id"))]
          .AsInt();
  // mot-q4's shape: the vehicle block's key is a column of the mot_test
  // block, so the read takes two fetch rounds.
  const std::string sql =
      "SELECT t.test_mileage, v.engine_cc FROM mot_test t, vehicle v "
      "WHERE t.vehicle_id = v.vehicle_id AND t.test_id = " +
      std::to_string(test_id);
  ExpectStraddlingReadRestarts(*w, sql, update, ExecOptions{});
  // Four real workers: the epochs reach Execute through the per-worker
  // metric merge.
  ExpectStraddlingReadRestarts(
      *w, sql, update,
      ExecOptions{.workers = 4, .parallel_mode = ParallelMode::kThreads});
}

TEST(ReadsBesideCommits, SerialFanoutStraddlingACommitRestarts) {
  auto w = MakeMot(0.05, 17);
  ASSERT_TRUE(w.ok());
  // A vehicle whose two q1 blocks sit on different nodes, so the serial
  // fan-out stalls between them.
  Cluster probe(ClusterOptions{.num_storage_nodes = 4});
  BaavStore store(&probe, w->baav, &w->catalog);
  const KvSchema* vehicle_kv = store.schema().Find("vehicle@vehicle_id");
  const KvSchema* test_kv = store.schema().Find("mot_test@vehicle_id");
  ASSERT_NE(vehicle_kv, nullptr);
  ASSERT_NE(test_kv, nullptr);
  const Relation& tests = w->data.at("mot_test");
  const size_t vid_col = size_t(tests.ColumnIndex("vehicle_id"));
  std::map<int64_t, std::vector<size_t>> rows_of;
  for (size_t r = 0; r < tests.size(); ++r) {
    rows_of[tests.rows()[r][vid_col].AsInt()].push_back(r);
  }
  int64_t vehicle = -1;
  for (const auto& [v, rows] : rows_of) {
    const Tuple key{Value(v)};
    if (store.NodeForBlock(*vehicle_kv, key) !=
        store.NodeForBlock(*test_kv, key)) {
      vehicle = v;
      break;
    }
  }
  ASSERT_GE(vehicle, 0);
  const ParityUpdate update(*w, rows_of.at(vehicle)[0]);
  const std::string sql =
      "SELECT t.test_mileage, v.engine_cc FROM vehicle v, mot_test t "
      "WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = " +
      std::to_string(vehicle);
  ExpectStraddlingReadRestarts(*w, sql, update,
                               ExecOptions{.fanout = FanoutMode::kSerial});
}

/// Runs `read` on a thread and, once its first storage access is under
/// way, commits one Put: returns how long the commit took.
std::chrono::milliseconds CommitDuringRead(Cluster* cluster,
                                           SignalingBackend::Signal* signal,
                                           const std::function<void()>& read) {
  signal->Arm();
  std::thread reader(read);
  EXPECT_TRUE(signal->Wait());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(cluster->Put("commit-during-read", "v").ok());
  const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  reader.join();
  return took;
}

TEST(ReadsBesideCommits, ACommitNeverWaitsForAReadStall) {
  // Every stall is 200 ms; a commit that waited for one would take that.
  constexpr auto kBound = std::chrono::milliseconds(50);
  for (FanoutMode fanout : {FanoutMode::kOverlapped, FanoutMode::kSerial}) {
    SCOPED_TRACE(fanout == FanoutMode::kSerial ? "serial" : "overlapped");
    SignalingBackend::Signal signal;
    Cluster cluster(SignalingClusterOptions(&signal, /*rtt_us=*/200000));
    std::vector<std::string> keys;
    std::set<int> nodes;
    for (int i = 0; nodes.size() < 2; ++i) {
      keys.push_back("gate-key-" + std::to_string(i));
      nodes.insert(cluster.NodeFor(keys.back()));
      ASSERT_TRUE(cluster.Put(keys.back(), "value").ok());
    }
    const auto took = CommitDuringRead(&cluster, &signal, [&] {
      QueryMetrics m;
      MultiGetResult got = cluster.MultiGet(keys, &m, CacheFill::kFill, fanout);
      EXPECT_TRUE(got.ok());
      EXPECT_EQ(m.get_round_trips, 2u);
    });
    EXPECT_LT(took, kBound);
  }

  // The serial one-worker TaaV scan stalls once per tuple, after its scan.
  SignalingBackend::Signal signal;
  Cluster cluster(SignalingClusterOptions(&signal, /*rtt_us=*/200000, 2));
  const TableSchema schema(
      "t", {{"id", ValueType::kInt}, {"v", ValueType::kInt}}, {"id"});
  Relation table({"id", "v"});
  for (int64_t i = 0; i < 3; ++i) table.Add({Value(i), Value(i * 10)});
  ASSERT_TRUE(TaavLoadRelation(&cluster, schema, table).ok());
  const auto took = CommitDuringRead(&cluster, &signal, [&] {
    QueryMetrics m;
    auto rows = TaavScanTable(cluster, schema, "t", &m, nullptr, 1,
                              FanoutMode::kSerial);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), 3u);
    EXPECT_EQ(m.get_calls, 3u);
  });
  EXPECT_LT(took, kBound);
}

TEST(ReadsBesideCommits, StalePlanStaysCorrectAfterADegreeMoves) {
  auto w = MakeMot(0.05, 17);
  ASSERT_TRUE(w.ok());
  Cluster cluster(ClusterOptions{.num_storage_nodes = 4});
  const KvSchema* kv = w->baav.Find("mot_test@vehicle_id");
  ASSERT_NE(kv, nullptr);
  uint64_t degree = 0;
  {
    Zidian builder(&w->catalog, &cluster, w->baav);
    ASSERT_TRUE(builder.LoadTaav(w->data).ok());
    ASSERT_TRUE(builder.BuildBaav(w->data).ok());
    degree = builder.store().Degree(*kv).value();
  }
  // Bounded exactly at the built degree.
  ZidianOptions zo;
  zo.planner.bounded_degree_threshold = degree;
  Zidian zidian(&w->catalog, &cluster, w->baav, zo);
  const std::string sql =
      "SELECT t.test_date, t.test_mileage FROM vehicle v, mot_test t "
      "WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = 3";
  Connection conn = zidian.Connect();
  auto stale = conn.Prepare(sql);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_TRUE(stale->Explain().bounded) << stale->Explain().plan_text;

  // Commits that grow vehicle 3's block past the degree the plan saw.
  const Relation& tests = w->data.at("mot_test");
  Tuple extra = tests.rows()[0];
  const size_t id_col = size_t(tests.ColumnIndex("test_id"));
  extra[size_t(tests.ColumnIndex("vehicle_id"))] = Value(int64_t{3});
  for (uint64_t i = 0; i <= degree; ++i) {
    extra[id_col] = Value(int64_t(1000000 + i));
    ASSERT_TRUE(zidian.Insert("mot_test", extra).ok());
  }
  EXPECT_GT(zidian.store().Degree(*kv).value(), degree);

  auto fresh = conn.Prepare(sql);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh->Explain().bounded);
  auto stale_rows = stale->Execute();
  auto fresh_rows = fresh->Execute();
  auto base_rows =
      fresh->Execute(ExecOptions{.route_policy = RoutePolicy::kForceBaseline});
  ASSERT_TRUE(stale_rows.ok() && fresh_rows.ok() && base_rows.ok());
  EXPECT_GT(stale_rows->size(), degree);
  EXPECT_EQ(Sorted(*stale_rows), Sorted(*fresh_rows));
  EXPECT_EQ(Sorted(*stale_rows), Sorted(*base_rows));
}

// A read whose every attempt straddles a commit stops after
// kMaxReadRestarts restarts with a retryable kUnavailable, counted as a
// failed query, instead of running for as long as commits keep landing.
TEST(ReadsBesideCommits, AReadTornOnEveryAttemptFailsCleanly) {
  auto w = MakeMot(0.05, 17);
  ASSERT_TRUE(w.ok());
  ClusterOptions co{.num_storage_nodes = 4};
  co.network.link = NetworkLinkOptions{.rtt_us = 20000};
  Cluster cluster(co);
  Zidian zidian(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(zidian.LoadTaav(w->data).ok());
  ASSERT_TRUE(zidian.BuildBaav(w->data).ok());
  Connection conn = zidian.Connect();
  // mot-q4's shape: two fetch rounds, a 20 ms stall apart.
  auto query = conn.Prepare(
      "SELECT t.test_mileage, v.engine_cc FROM mot_test t, vehicle v "
      "WHERE t.vehicle_id = v.vehicle_id AND t.test_id = 1");
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  // A commit every millisecond, until the read returns or 10 s pass.
  std::atomic<bool> done{false};
  std::thread committer([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done.load() && std::chrono::steady_clock::now() < deadline) {
      EXPECT_TRUE(cluster.Put("commit-tick", "v").ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  AnswerInfo info;
  auto rows = query->Execute(ExecOptions{.bypass_cache = true}, &info);
  done.store(true);
  committer.join();
  ASSERT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsUnavailable()) << rows.status().ToString();
  EXPECT_EQ(info.metrics.read_restarts, PreparedQuery::kMaxReadRestarts);
  EXPECT_EQ(info.metrics.failed_queries, 1u);
}

/// What ServeParityReads saw.
struct ParityServeRun {
  ServeResult result;
  uint64_t reads = 0;         ///< reads that answered
  uint64_t torn = 0;          ///< answers that broke their key's parity
  uint64_t max_restarts = 0;  ///< the most restarts one answered read took
};

/// Serves q4-shaped parity reads — a mot_test row and its vehicle's row —
/// beside updates that flip the low bit of the test's mileage and of its
/// vehicle's engine size in one batch, on 4 sessions over a link of
/// `rtt_us` per round trip. Key k is the first test of vehicle k: distinct
/// vehicles, so one key's update never moves another key's parity. Every
/// answer must keep its key's parity, mileage ^ engine size; a read that
/// took one row before a commit and the other after it would flip it.
void ServeParityReads(double scale, double rtt_us, const ExecOptions& exec,
                      double read_weight, int ops_per_stream,
                      ParityServeRun* run) {
  auto w = MakeMot(scale, 91);
  ASSERT_TRUE(w.ok());
  ClusterOptions co{.num_storage_nodes = 4};
  co.network.link = NetworkLinkOptions{.rtt_us = rtt_us};
  Cluster cluster(co);
  Zidian zidian(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(zidian.LoadTaav(w->data).ok());
  ASSERT_TRUE(zidian.BuildBaav(w->data).ok());

  constexpr uint64_t kHot = 4;
  const Relation& tests = w->data.at("mot_test");
  const size_t vid = size_t(tests.ColumnIndex("vehicle_id"));
  const size_t tid = size_t(tests.ColumnIndex("test_id"));
  std::map<uint64_t, ParityUpdate> hot;
  std::map<uint64_t, int64_t> parity, test_ids;
  for (size_t r = 0; r < tests.size() && hot.size() < kHot; ++r) {
    const uint64_t v = uint64_t(tests.rows()[r][vid].AsInt());
    if (v > kHot || hot.count(v)) continue;
    hot.emplace(v, ParityUpdate(*w, r));
    parity[v] = hot.at(v).Parity();
    test_ids[v] = tests.rows()[r][tid].AsInt();
  }
  ASSERT_EQ(hot.size(), kHot);

  ServeTemplate read;
  read.name = "q4";
  read.weight = read_weight;
  read.sql = [&test_ids](uint64_t key) {
    return "SELECT t.test_mileage, v.engine_cc FROM mot_test t, vehicle v "
           "WHERE t.vehicle_id = v.vehicle_id AND t.test_id = " +
           std::to_string(test_ids.at(key));
  };
  ServeTemplate update;
  update.name = "update";
  update.weight = 1;
  // Writers run one at a time, so `hot` has one writer at a time, and
  // readers never touch it.
  update.write = [&hot](Zidian& z, const ServeOp& op) {
    ParityUpdate& u = hot.at(op.key);
    ZIDIAN_RETURN_NOT_OK(u.Stage(z));
    u.Advance();
    return Status::OK();
  };

  std::atomic<uint64_t> reads{0}, torn{0}, max_restarts{0};
  ServeOptions options;
  options.sessions = 4;
  options.load.streams = 4;
  options.load.ops_per_stream = ops_per_stream;
  options.load.seed = 5;
  options.load.zipf_keys = kHot;
  options.load.mix = {read, update};
  options.exec = exec;
  options.on_result = [&](const ServeOp& op, const Relation& rows,
                          const AnswerInfo& info) {
    reads.fetch_add(1);
    uint64_t seen = max_restarts.load();
    while (info.metrics.read_restarts > seen &&
           !max_restarts.compare_exchange_weak(seen,
                                               info.metrics.read_restarts)) {
    }
    if (rows.size() != 1 ||
        ((rows.rows()[0][0].AsInt() ^ rows.rows()[0][1].AsInt()) & 1) !=
            parity.at(op.key)) {
      torn.fetch_add(1);
    }
  };
  Server server(&zidian, options);
  auto result = server.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  run->result = std::move(*result);
  run->reads = reads.load();
  run->torn = torn.load();
  run->max_restarts = max_restarts.load();
}

// The two-round variant of ReadsNeverSeeAnUpdateHalfApplied: the parity
// read's rounds read the mot_test block and then the vehicle block. Each
// round trip costs 2 ms, so commits land between the rounds, and those
// reads run again.
TEST(ServeUpdates, TwoRoundReadsNeverSeeAnUpdateHalfApplied) {
  ParityServeRun run;
  ServeParityReads(/*scale=*/0.2, /*rtt_us=*/2000, ExecOptions{},
                   /*read_weight=*/3, /*ops_per_stream=*/60, &run);
  if (HasFatalFailure()) return;
  EXPECT_EQ(run.result.failed, 0u);
  EXPECT_EQ(run.result.completed, run.result.offered);
  EXPECT_GT(run.result.writes_admitted, 0u);
  EXPECT_EQ(run.reads + run.result.writes_admitted, run.result.completed);
  EXPECT_EQ(run.torn, 0u) << "of " << run.reads << " reads";
  RecordProperty("read_restarts", int(run.result.metrics.read_restarts));
  RecordProperty("max_read_restarts", int(run.max_restarts));
  std::printf("[ restarts ] %llu attempts rerun over %llu two-round reads, "
              "at most %llu for one read\n",
              static_cast<unsigned long long>(run.result.metrics.read_restarts),
              static_cast<unsigned long long>(run.reads),
              static_cast<unsigned long long>(run.max_restarts));
}

// The TaaV fallback's parity read scans both tables, and each scan's
// per-tuple stalls outlast the gap between the updates' commits, so most
// attempts straddle one. Every read answers with its parity intact or,
// once its restarts run out, fails cleanly — counted in failed_queries —
// and the run ends.
TEST(ServeUpdates, FallbackReadsBesideUpdatesAnswerOrFailCleanly) {
  ParityServeRun run;
  ServeParityReads(
      /*scale=*/0.05, /*rtt_us=*/1000,
      ExecOptions{.route_policy = RoutePolicy::kForceBaseline},
      /*read_weight=*/0.1, /*ops_per_stream=*/100, &run);
  if (HasFatalFailure()) return;
  EXPECT_EQ(run.result.completed + run.result.failed, run.result.offered);
  // Every write committed, so every failure is a read.
  EXPECT_EQ(run.reads + run.result.writes_admitted, run.result.completed);
  EXPECT_EQ(run.result.metrics.failed_queries, run.result.failed);
  EXPECT_EQ(run.torn, 0u) << "of " << run.reads << " reads";
  EXPECT_LE(run.max_restarts, PreparedQuery::kMaxReadRestarts);
  RecordProperty("read_restarts", int(run.result.metrics.read_restarts));
  RecordProperty("failed_reads", int(run.result.failed));
  std::printf("[ restarts ] %llu attempts rerun over %llu answered and "
              "%llu failed fallback reads\n",
              static_cast<unsigned long long>(run.result.metrics.read_restarts),
              static_cast<unsigned long long>(run.reads),
              static_cast<unsigned long long>(run.result.failed));
}

// A Zidian over a restored cluster has never measured its instances'
// degrees, so the sessions' first prepares each scan an instance and seed
// its block-size counts, concurrently: under ThreadSanitizer this checks
// that the counts are read and seeded under their lock. The seeded counts
// must equal a fresh scan's.
TEST(ServeRestoredCluster, ConcurrentFirstPreparesSeedDegreeCounts) {
  auto w = MakeMot(0.25, 91);
  ASSERT_TRUE(w.ok());
  ScopedDir dir("serve-restored");
  {
    Cluster built(ClusterOptions{.num_storage_nodes = 4});
    Zidian z(&w->catalog, &built, w->baav);
    ASSERT_TRUE(z.LoadTaav(w->data).ok());
    ASSERT_TRUE(z.BuildBaav(w->data).ok());
    ASSERT_TRUE(built.SaveToDir(dir.path()).ok());
  }
  Cluster cluster(ClusterOptions{.num_storage_nodes = 4});
  ASSERT_TRUE(cluster.LoadFromDir(dir.path()).ok());
  Zidian restored(&w->catalog, &cluster, w->baav);  // no rebuild

  ServeOptions options;
  options.sessions = 4;
  options.load.streams = 4;
  options.load.ops_per_stream = 20;
  options.load.zipf_keys = w->data.at("vehicle").size();
  options.load.mix = {PointTemplate()};
  Server server(&restored, options);
  auto result = server.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->completed, 80u);
  EXPECT_EQ(result->failed, 0u);

  BaavStore rescan(&cluster, w->baav, &w->catalog);
  for (const auto& kv : w->baav.all()) {
    auto seeded = restored.store().Degree(kv);
    auto scanned = rescan.Degree(kv);
    ASSERT_TRUE(seeded.ok() && scanned.ok()) << kv.name;
    EXPECT_EQ(*seeded, *scanned) << kv.name;
  }
}

// Open loop at an absurd offered load against a depth-1 queue and a lone
// session: most arrivals must find the queue full, and the accounting
// identity offered == completed + rejected (+ failed) must hold exactly.
TEST_F(ServeConcurrentFixture, OpenLoopRejectsWhatItCannotAbsorb) {
  LoadOptions load = ReadMix();
  load.streams = 2;
  load.ops_per_stream = 100;
  load.offered_load = 1e7;  // far beyond one session's capacity
  load.mix = {AggTemplate()};

  ServeOptions options;
  options.sessions = 1;
  options.queue_depth = 1;
  options.load = load;
  Server server(zidian_.get(), options);
  auto result = server.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->offered, 200u);
  EXPECT_GT(result->rejected, 0u);
  EXPECT_GT(result->completed, 0u);  // the queue was never wedged shut
  EXPECT_EQ(result->offered,
            result->completed + result->rejected + result->failed);
  EXPECT_EQ(result->failed, 0u);
  EXPECT_EQ(result->latency.count(), result->completed);
}

}  // namespace
}  // namespace serve
}  // namespace zidian
