// End-to-end pipeline tests on the paper's running example (Example 1/3/7):
// the simplified TPC-H schema, the BaaV schema ~R1, query Q1, and the full
// Zidian route: preservation -> chase -> scan-free plan -> execution, checked
// for result equality against the TaaV baseline.
#include <gtest/gtest.h>

#include "ra/taav.h"
#include "sql/binder.h"
#include "storage/cluster.h"
#include "workloads/workload.h"
#include "zidian/connection.h"
#include "zidian/planner.h"
#include "zidian/preservation.h"
#include "zidian/zidian.h"

namespace zidian {
namespace {

/// The Example 1 setup: SUPPLIER / PARTSUPP / NATION with BaaV schema ~R1.
class Example1Fixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .AddTable(TableSchema(
                        "supplier",
                        {{"suppkey", ValueType::kInt},
                         {"nationkey", ValueType::kInt}},
                        {"suppkey"}))
                    .ok());
    ASSERT_TRUE(catalog_
                    .AddTable(TableSchema(
                        "partsupp",
                        {{"partkey", ValueType::kInt},
                         {"suppkey", ValueType::kInt},
                         {"supplycost", ValueType::kDouble},
                         {"availqty", ValueType::kInt}},
                        {"partkey", "suppkey"}))
                    .ok());
    ASSERT_TRUE(catalog_
                    .AddTable(TableSchema("nation",
                                          {{"nationkey", ValueType::kInt},
                                           {"name", ValueType::kString}},
                                          {"nationkey"}))
                    .ok());

    // ~R1 of Example 1.
    ASSERT_TRUE(baav_.Add(MakeKvSchema("supplier", {"nationkey"},
                                       {"suppkey"}))
                    .ok());
    ASSERT_TRUE(baav_
                    .Add(MakeKvSchema("partsupp", {"suppkey"},
                                      {"partkey", "supplycost", "availqty"}))
                    .ok());
    ASSERT_TRUE(baav_.Add(MakeKvSchema("nation", {"name"}, {"nationkey"}))
                    .ok());

    // Small database: 3 nations, 6 suppliers, 12 partsupp rows.
    Relation nation({"nationkey", "name"});
    nation.Add({Value(int64_t{7}), Value("GERMANY")});
    nation.Add({Value(int64_t{8}), Value("FRANCE")});
    nation.Add({Value(int64_t{9}), Value("JAPAN")});
    Relation supplier({"suppkey", "nationkey"});
    for (int64_t s = 1; s <= 6; ++s) {
      supplier.Add({Value(s), Value(int64_t{7 + (s % 3)})});
    }
    Relation partsupp({"partkey", "suppkey", "supplycost", "availqty"});
    for (int64_t p = 1; p <= 12; ++p) {
      partsupp.Add({Value(p), Value(int64_t{1 + (p % 6)}),
                    Value(10.0 * static_cast<double>(p)),
                    Value(int64_t{100 + p})});
    }
    db_ = {{"nation", std::move(nation)},
           {"supplier", std::move(supplier)},
           {"partsupp", std::move(partsupp)}};

    zidian_ = std::make_unique<Zidian>(&catalog_, &cluster_, baav_);
    ASSERT_TRUE(zidian_->LoadTaav(db_).ok());
    ASSERT_TRUE(zidian_->BuildBaav(db_).ok());
  }

  Catalog catalog_;
  BaavSchema baav_;
  Cluster cluster_{ClusterOptions{.num_storage_nodes = 4}};
  std::map<std::string, Relation> db_;
  std::unique_ptr<Zidian> zidian_;

  static constexpr const char* kQ1 =
      "SELECT ps.suppkey, SUM(ps.supplycost) "
      "FROM partsupp ps, supplier s, nation n "
      "WHERE ps.suppkey = s.suppkey AND s.nationkey = n.nationkey "
      "AND n.name = 'GERMANY' GROUP BY ps.suppkey";
};

TEST_F(Example1Fixture, R1IsDataPreserving) {
  // Example 4: ~R1 is data preserving for R1 by Condition (I).
  auto report = CheckDataPreserving(catalog_, baav_);
  EXPECT_TRUE(report.preserving) << report.detail;
}

TEST_F(Example1Fixture, DroppingAvailqtyBreaksDataPreservation) {
  // Example 5: ~R1' (partsupp without availqty) is not data preserving...
  BaavSchema r1p;
  ASSERT_TRUE(r1p.Add(MakeKvSchema("supplier", {"nationkey"}, {"suppkey"}))
                  .ok());
  ASSERT_TRUE(
      r1p.Add(MakeKvSchema("partsupp", {"suppkey"}, {"partkey", "supplycost"}))
          .ok());
  ASSERT_TRUE(r1p.Add(MakeKvSchema("nation", {"name"}, {"nationkey"})).ok());
  EXPECT_FALSE(CheckDataPreserving(catalog_, r1p).preserving);

  // ...but it is result preserving for Q1' (Q1 without the group-by).
  auto spec = ParseAndBind(
      "SELECT ps.suppkey, ps.supplycost FROM partsupp ps, supplier s, "
      "nation n WHERE ps.suppkey = s.suppkey AND s.nationkey = n.nationkey "
      "AND n.name = 'GERMANY'",
      catalog_);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto report = CheckResultPreserving(*spec, catalog_, r1p);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->preserving) << report->detail;
}

TEST_F(Example1Fixture, MinimizationEnablesPreservation) {
  // Example 5 (Q2): the redundant self-join on partsupp is removed by
  // minimization, after which ~R1' is result preserving for Q2.
  BaavSchema r1p;
  ASSERT_TRUE(r1p.Add(MakeKvSchema("supplier", {"nationkey"}, {"suppkey"}))
                  .ok());
  ASSERT_TRUE(
      r1p.Add(MakeKvSchema("partsupp", {"suppkey"}, {"partkey", "supplycost"}))
          .ok());
  ASSERT_TRUE(r1p.Add(MakeKvSchema("nation", {"name"}, {"nationkey"})).ok());

  auto spec = ParseAndBind(
      "SELECT ps.suppkey, ps.supplycost FROM partsupp ps, partsupp ps2, "
      "supplier s, nation n WHERE ps.suppkey = s.suppkey "
      "AND s.nationkey = n.nationkey AND n.name = 'GERMANY' "
      "AND ps.partkey = ps2.partkey AND ps.suppkey = ps2.suppkey "
      "AND ps.supplycost = ps2.supplycost",
      catalog_);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  auto min = MinimizeSPC(*spec, catalog_);
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(min->tables.size(), 3u);  // ps2 folded away

  auto report = CheckResultPreserving(*spec, catalog_, r1p);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->preserving) << report->detail;
}

TEST_F(Example1Fixture, Q1IsScanFree) {
  // Example 6: Q1 is scan-free over ~R1 (Condition III).
  auto spec = ParseAndBind(kQ1, catalog_);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto sf = IsScanFree(*spec, catalog_, baav_);
  ASSERT_TRUE(sf.ok());
  EXPECT_TRUE(*sf);
}

TEST_F(Example1Fixture, Q1PlanHasNoScans) {
  AnswerInfo info;
  auto result =
      zidian_->Connect().Execute(kQ1, ExecOptions{.workers = 2}, &info);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(info.result_preserving);
  EXPECT_TRUE(info.scan_free);
  EXPECT_EQ(info.route, AnswerInfo::Route::kKbaScanFree);
  // Scan-free execution: zero next() calls (Proposition 7(a)).
  EXPECT_EQ(info.metrics.next_calls, 0u);
  EXPECT_GT(info.metrics.get_calls, 0u);
}

TEST_F(Example1Fixture, Q1MatchesBaseline) {
  Connection conn = zidian_->Connect();
  AnswerInfo info;
  auto with_zidian = conn.Execute(kQ1, ExecOptions{.workers = 2}, &info);
  ASSERT_TRUE(with_zidian.ok()) << with_zidian.status().ToString();
  AnswerInfo base;
  auto baseline = conn.Execute(
      kQ1,
      ExecOptions{.workers = 2, .route_policy = RoutePolicy::kForceBaseline},
      &base);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const QueryMetrics& base_m = base.metrics;

  Relation a = *with_zidian;
  Relation b = *baseline;
  a.SortRows();
  b.SortRows();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.rows()[i].size(), b.rows()[i].size());
    for (size_t j = 0; j < a.rows()[i].size(); ++j) {
      if (a.rows()[i][j].IsNumeric()) {
        EXPECT_NEAR(a.rows()[i][j].Numeric(), b.rows()[i][j].Numeric(), 1e-6);
      } else {
        EXPECT_EQ(a.rows()[i][j], b.rows()[i][j]);
      }
    }
  }
  // Zidian must access strictly less data than the blind-scanning baseline.
  EXPECT_LT(info.metrics.values_accessed, base_m.values_accessed);
  EXPECT_LT(info.metrics.CommBytes(), base_m.CommBytes());
}

TEST_F(Example1Fixture, IncrementalMaintenanceKeepsAnswersFresh) {
  // Insert a new German supplier + partsupp row; both routes must agree.
  ASSERT_TRUE(
      zidian_->Insert("supplier", {Value(int64_t{99}), Value(int64_t{7})})
          .ok());
  ASSERT_TRUE(zidian_
                  ->Insert("partsupp", {Value(int64_t{500}), Value(int64_t{99}),
                                        Value(123.5), Value(int64_t{42})})
                  .ok());
  Connection conn = zidian_->Connect();
  AnswerInfo info;
  auto with_zidian = conn.Execute(kQ1, ExecOptions{}, &info);
  ASSERT_TRUE(with_zidian.ok()) << with_zidian.status().ToString();
  auto baseline = conn.Execute(
      kQ1, ExecOptions{.route_policy = RoutePolicy::kForceBaseline});
  ASSERT_TRUE(baseline.ok());
  Relation a = *with_zidian, b = *baseline;
  a.SortRows();
  b.SortRows();
  ASSERT_EQ(a.size(), b.size());
  bool found99 = false;
  for (const auto& row : a.rows()) found99 |= (row[0] == Value(int64_t{99}));
  EXPECT_TRUE(found99);
}

}  // namespace
}  // namespace zidian
