// Workload-level integration tests: for TPC-H, MOT and AIRCA,
//  * generators are deterministic and referentially intact,
//  * the T2B-derived BaaV schema classifies every query exactly as §9 does
//    (scan-free: TPC-H q2,3,5,7,8,10,11,12,17,19,21; MOT/AIRCA q1-q6),
//  * Zidian's answers equal the TaaV baseline's on every query,
//  * scan-free queries execute with zero next() calls (Proposition 7a).
#include <gtest/gtest.h>

#include "sql/binder.h"
#include "zidian/connection.h"
#include "zidian/planner.h"
#include "zidian/zidian.h"
#include "workloads/workload.h"

namespace zidian {
namespace {

Result<Workload> MakeByName(const std::string& name, double scale,
                            uint64_t seed) {
  if (name == "tpch") return MakeTpch(scale, seed);
  if (name == "mot") return MakeMot(scale, seed);
  return MakeAirca(scale, seed);
}

void ExpectRelationsEqual(Relation a, Relation b, const std::string& what) {
  a.SortRows();
  b.SortRows();
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.rows()[i].size(), b.rows()[i].size()) << what;
    for (size_t j = 0; j < a.rows()[i].size(); ++j) {
      const Value& va = a.rows()[i][j];
      const Value& vb = b.rows()[i][j];
      if (va.IsNumeric() && vb.IsNumeric()) {
        double denom = std::max(1.0, std::abs(vb.Numeric()));
        EXPECT_NEAR(va.Numeric() / denom, vb.Numeric() / denom, 1e-9)
            << what << " row " << i << " col " << j;
      } else {
        EXPECT_EQ(va, vb) << what << " row " << i << " col " << j;
      }
    }
  }
}

class WorkloadTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadTest, GeneratorIsDeterministic) {
  auto w1 = MakeByName(GetParam(), 0.05, 7);
  auto w2 = MakeByName(GetParam(), 0.05, 7);
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(w2.ok());
  ASSERT_EQ(w1->data.size(), w2->data.size());
  for (const auto& [name, rel] : w1->data) {
    const Relation& other = w2->data.at(name);
    ASSERT_EQ(rel.size(), other.size()) << name;
    for (size_t i = 0; i < rel.size(); ++i) {
      EXPECT_EQ(rel.rows()[i], other.rows()[i]) << name << " row " << i;
    }
  }
}

TEST_P(WorkloadTest, SchemaShapeMatchesPaper) {
  auto w = MakeByName(GetParam(), 0.05, 7);
  ASSERT_TRUE(w.ok());
  size_t attrs = 0;
  for (const auto& t : w->catalog.TableNames()) {
    attrs += w->catalog.Find(t)->arity();
  }
  if (w->name == "TPC-H") {
    EXPECT_EQ(w->catalog.size(), 8u);
    EXPECT_EQ(attrs, 61u);
  } else if (w->name == "MOT") {
    EXPECT_EQ(w->catalog.size(), 3u);
    EXPECT_EQ(attrs, 42u);
  } else {
    EXPECT_EQ(w->catalog.size(), 7u);
    EXPECT_EQ(attrs, 358u);
  }
  EXPECT_FALSE(w->baav.all().empty());
}

TEST_P(WorkloadTest, ScanFreeClassificationMatchesPaper) {
  auto w = MakeByName(GetParam(), 0.05, 7);
  ASSERT_TRUE(w.ok());
  for (const auto& q : w->queries) {
    auto spec = ParseAndBind(q.sql, w->catalog);
    ASSERT_TRUE(spec.ok()) << q.name << ": " << spec.status().ToString();
    auto sf = IsScanFree(*spec, w->catalog, w->baav);
    ASSERT_TRUE(sf.ok()) << q.name;
    EXPECT_EQ(*sf, q.expect_scan_free) << q.name << " sql: " << q.sql;
  }
}

TEST_P(WorkloadTest, ZidianMatchesBaselineOnEveryQuery) {
  auto w = MakeByName(GetParam(), 0.03, 11);
  ASSERT_TRUE(w.ok());
  Cluster cluster(ClusterOptions{.num_storage_nodes = 4});
  Zidian z(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(z.LoadTaav(w->data).ok());
  ASSERT_TRUE(z.BuildBaav(w->data).ok());

  Connection conn = z.Connect();
  for (const auto& q : w->queries) {
    AnswerInfo info;
    auto zr = conn.Execute(q.sql, ExecOptions{.workers = 2}, &info);
    ASSERT_TRUE(zr.ok()) << q.name << ": " << zr.status().ToString();
    auto br = conn.Execute(
        q.sql,
        ExecOptions{.workers = 2, .route_policy = RoutePolicy::kForceBaseline});
    ASSERT_TRUE(br.ok()) << q.name << ": " << br.status().ToString();
    ExpectRelationsEqual(*zr, *br, w->name + "/" + q.name);

    EXPECT_EQ(info.scan_free, q.expect_scan_free) << q.name;
    if (q.expect_scan_free) {
      EXPECT_EQ(info.metrics.next_calls, 0u)
          << q.name << " scan-free run must not scan";
    }
    if (q.expect_bounded) {
      EXPECT_TRUE(info.bounded) << q.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::Values("tpch", "mot", "airca"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(WorkloadIntegrity, TpchReferentialIntegrity) {
  auto w = MakeTpch(0.05, 3);
  ASSERT_TRUE(w.ok());
  // Every lineitem (partkey, suppkey) pair exists in partsupp.
  std::set<std::pair<int64_t, int64_t>> ps_pairs;
  const Relation& ps = w->data.at("partsupp");
  int pi = ps.ColumnIndex("partkey"), si = ps.ColumnIndex("suppkey");
  for (const auto& row : ps.rows()) {
    ps_pairs.insert({row[pi].AsInt(), row[si].AsInt()});
  }
  const Relation& l = w->data.at("lineitem");
  int lpi = l.ColumnIndex("partkey"), lsi = l.ColumnIndex("suppkey");
  for (const auto& row : l.rows()) {
    EXPECT_TRUE(ps_pairs.count({row[lpi].AsInt(), row[lsi].AsInt()}))
        << "dangling lineitem partsupp ref";
  }
}

TEST(WorkloadIntegrity, MotDegreesAreBounded) {
  // Bounded queries rely on per-vehicle fan-outs independent of |D|.
  for (double scale : {0.5, 1.0, 2.0}) {
    auto w = MakeMot(scale, 5);
    ASSERT_TRUE(w.ok());
    std::map<int64_t, int> tests_per_vehicle;
    const Relation& t = w->data.at("mot_test");
    int vi = t.ColumnIndex("vehicle_id");
    for (const auto& row : t.rows()) tests_per_vehicle[row[vi].AsInt()]++;
    int max_deg = 0;
    for (const auto& [v, n] : tests_per_vehicle) max_deg = std::max(max_deg, n);
    EXPECT_LE(max_deg, 8) << "scale " << scale;
  }
}

}  // namespace
}  // namespace zidian
