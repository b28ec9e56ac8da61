// Metering and parallel-accounting tests for the executors: the experiment
// harness is only as trustworthy as these counters, so they get their own
// suite — get/next/values/bytes attribution, per-worker makespans, shuffle
// charging, and the multi-seed workload-instance sweep (the paper runs 3
// instances per query template; so do we).
#include <gtest/gtest.h>

#include "kba/kba_executor.h"
#include "sql/binder.h"
#include "storage/backend.h"
#include "workloads/workload.h"
#include "zidian/connection.h"
#include "zidian/zidian.h"

namespace zidian {
namespace {

class AccountingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto w = MakeMot(1.0, 31);
    ASSERT_TRUE(w.ok());
    workload_ = std::move(w).value();
    cluster_ = std::make_unique<Cluster>(
        ClusterOptions{.num_storage_nodes = 6});
    zidian_ = std::make_unique<Zidian>(&workload_.catalog, cluster_.get(),
                                       workload_.baav);
    ASSERT_TRUE(zidian_->LoadTaav(workload_.data).ok());
    ASSERT_TRUE(zidian_->BuildBaav(workload_.data).ok());
  }
  Workload workload_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Zidian> zidian_;
};

TEST_F(AccountingFixture, ScanFreeRunIssuesExactlyOneGetPerBlock) {
  AnswerInfo info;
  auto r = zidian_->Connect().Execute(
      "SELECT v.make, t.test_result FROM vehicle v, mot_test t "
      "WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = 17",
      ExecOptions{.workers = 1}, &info);
  ASSERT_TRUE(r.ok());
  // One get for the vehicle block, one for the test block.
  EXPECT_EQ(info.metrics.get_calls, 2u);
  EXPECT_EQ(info.metrics.next_calls, 0u);
  // Extension nodes never issue single-key gets: all point access is
  // batched, costing at most one round trip per (worker, node) pair. Both
  // extensions are keyed by the constant, so they share one fetch round.
  EXPECT_EQ(info.metrics.multiget_calls, 1u);  // one per round
  EXPECT_LE(info.metrics.get_round_trips, info.metrics.get_calls);
  EXPECT_EQ(r->size(), 5u);
}

TEST_F(AccountingFixture, BaselineChargesScanOfEveryInvolvedRelation) {
  AnswerInfo info;
  auto r = zidian_->Connect().Execute(
      "SELECT v.make, t.test_result FROM vehicle v, mot_test t "
      "WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = 17",
      ExecOptions{.workers = 1, .route_policy = RoutePolicy::kForceBaseline},
      &info);
  ASSERT_TRUE(r.ok());
  const QueryMetrics& m = info.metrics;
  uint64_t vehicle_rows = workload_.data.at("vehicle").size();
  uint64_t test_rows = workload_.data.at("mot_test").size();
  EXPECT_EQ(m.next_calls, vehicle_rows + test_rows);
  EXPECT_EQ(m.get_calls, vehicle_rows + test_rows);  // §3: get per tuple
  EXPECT_EQ(m.values_accessed, (vehicle_rows + test_rows) * 14);
}

TEST_F(AccountingFixture, ShuffleChargedOnlyWhenParallel) {
  const std::string sql =
      "SELECT v.make, COUNT(*) FROM vehicle v, mot_test t "
      "WHERE v.vehicle_id = t.vehicle_id GROUP BY v.make";
  Connection conn = zidian_->Connect();
  AnswerInfo seq, par;
  ExecOptions baseline{.route_policy = RoutePolicy::kForceBaseline};
  ASSERT_TRUE(conn.Execute(sql, baseline, &seq).ok());
  baseline.workers = 8;
  ASSERT_TRUE(conn.Execute(sql, baseline, &par).ok());
  EXPECT_EQ(seq.metrics.shuffle_bytes, 0u);
  EXPECT_GT(par.metrics.shuffle_bytes, 0u);
  // Same data read either way.
  EXPECT_EQ(seq.metrics.bytes_from_storage, par.metrics.bytes_from_storage);
}

TEST(MakespanAccounting, MakespanGetIsMaxNotTotal) {
  // TPC-H q11 chain fans out to one get per German supplier: enough keys to
  // spread over 4 workers.
  auto w = MakeTpch(16.0, 31);
  ASSERT_TRUE(w.ok());
  Cluster cluster(ClusterOptions{.num_storage_nodes = 8});
  Zidian z(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(z.LoadTaav(w->data).ok());
  ASSERT_TRUE(z.BuildBaav(w->data).ok());
  AnswerInfo info;
  auto r = z.Connect().Execute(
      "SELECT ps.partkey, SUM(ps.supplycost) FROM partsupp ps, supplier s, "
      "nation n WHERE ps.suppkey = s.suppkey AND s.nationkey = n.nationkey "
      "AND n.name = 'GERMANY' GROUP BY ps.partkey",
      ExecOptions{.workers = 4}, &info);
  ASSERT_TRUE(r.ok());
  ASSERT_GT(info.metrics.get_calls, 4u);
  // With 4 workers the per-worker maximum must sit strictly between the
  // perfect split and the sequential total.
  EXPECT_GE(info.metrics.makespan_get,
            double(info.metrics.get_calls) / 4.0 * 0.99);
  EXPECT_LT(info.metrics.makespan_get, double(info.metrics.get_calls));
}

TEST_F(AccountingFixture, SimTimeMonotoneInCounters) {
  QueryMetrics small, big;
  small.makespan_get = 10;
  big.makespan_get = 1000;
  for (const auto& backend : AllBackends()) {
    EXPECT_LT(SimSeconds(small, backend), SimSeconds(big, backend));
  }
}

TEST_F(AccountingFixture, StatsPushdownShipsHeaderBytesOnly) {
  ZidianOptions no_stats;
  no_stats.planner.enable_stats_pushdown = false;
  Zidian plain(&workload_.catalog, cluster_.get(), workload_.baav, no_stats);
  const std::string sql =
      "SELECT v.vehicle_id, SUM(t.cost) FROM vehicle v, mot_test t "
      "WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = 17 "
      "GROUP BY v.vehicle_id";
  AnswerInfo with_stats, without;
  auto a = zidian_->Connect().Execute(sql, ExecOptions{}, &with_stats);
  auto b = plain.Connect().Execute(sql, ExecOptions{}, &without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(with_stats.stats_pushdown);
  ASSERT_FALSE(without.stats_pushdown);
  EXPECT_LT(with_stats.metrics.bytes_from_storage,
            without.metrics.bytes_from_storage);
  // Same answer either way.
  EXPECT_EQ(a->size(), b->size());
  EXPECT_NEAR(a->rows()[0][1].Numeric(), b->rows()[0][1].Numeric(), 1e-6);
}

// Multi-seed instance sweep: the paper instantiates each query template 3
// times with random parameters; every instance must classify and answer
// correctly.
struct SweepCase {
  const char* workload;
  uint64_t seed;
};

class TemplateInstanceSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(TemplateInstanceSweep, AllInstancesClassifyAndAgree) {
  auto [name, seed] = GetParam();
  Result<Workload> w = std::string(name) == "mot" ? MakeMot(0.2, seed)
                                                  : MakeAirca(0.2, seed);
  ASSERT_TRUE(w.ok());
  Cluster cluster(ClusterOptions{.num_storage_nodes = 4});
  Zidian z(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(z.LoadTaav(w->data).ok());
  ASSERT_TRUE(z.BuildBaav(w->data).ok());
  Connection conn = z.Connect();
  for (const auto& q : w->queries) {
    AnswerInfo info;
    auto zr = conn.Execute(q.sql, ExecOptions{.workers = 2}, &info);
    ASSERT_TRUE(zr.ok()) << q.name << " seed " << seed;
    EXPECT_EQ(info.scan_free, q.expect_scan_free) << q.name;
    auto br = conn.Execute(
        q.sql,
        ExecOptions{.workers = 2, .route_policy = RoutePolicy::kForceBaseline});
    ASSERT_TRUE(br.ok());
    Relation a = *zr, b = *br;
    a.SortRows();
    b.SortRows();
    ASSERT_EQ(a.size(), b.size()) << q.name << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Instances, TemplateInstanceSweep,
    ::testing::Values(SweepCase{"mot", 1001}, SweepCase{"mot", 1002},
                      SweepCase{"mot", 1003}, SweepCase{"airca", 2001},
                      SweepCase{"airca", 2002}, SweepCase{"airca", 2003}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return std::string(info.param.workload) +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace zidian
