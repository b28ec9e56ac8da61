// Cross-module property tests:
//  * mapping soundness: the relational version of every built KV instance
//    equals the projection+grouping of the source relation (§4.1);
//  * per-query differential: every workload query, as its own test case,
//    answered identically by Zidian and the TaaV baseline;
//  * randomized update sequences: incremental maintenance == rebuild;
//  * cluster persistence round-trips query answers.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/rng.h"
#include "sql/binder.h"
#include "workloads/workload.h"
#include "zidian/connection.h"
#include "zidian/zidian.h"

namespace zidian {
namespace {

// ------------------------------------------------------ mapping soundness --
class MappingProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(MappingProperty, InstanceRelationalVersionMatchesProjection) {
  Result<Workload> w = std::string(GetParam()) == "tpch"
                           ? MakeTpch(0.1, 5)
                           : std::string(GetParam()) == "mot"
                                 ? MakeMot(0.1, 5)
                                 : MakeAirca(0.1, 5);
  ASSERT_TRUE(w.ok());
  Cluster cluster(ClusterOptions{.num_storage_nodes = 3});
  BaavStore store(&cluster, w->baav, &w->catalog);
  ASSERT_TRUE(store.BuildAll(w->data).ok());

  for (const auto& kv : w->baav.all()) {
    // Expected: project the source relation onto XY (bag semantics).
    const Relation& source = w->data.at(kv.relation);
    std::vector<std::string> xy = kv.AllAttrs();
    Relation expected = source.Project(xy);
    std::multiset<std::string> want;
    for (const auto& row : expected.rows()) want.insert(TupleToString(row));

    std::multiset<std::string> got;
    QueryMetrics m;
    ASSERT_TRUE(store
                    .ScanInstance(kv, &m,
                                  [&](const Tuple& key,
                                      const std::vector<Tuple>& rows) {
                                    for (const auto& y : rows) {
                                      Tuple t = key;
                                      t.insert(t.end(), y.begin(), y.end());
                                      got.insert(TupleToString(t));
                                    }
                                  })
                    .ok());
    EXPECT_EQ(got, want) << kv.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, MappingProperty,
                         ::testing::Values("tpch", "mot", "airca"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// -------------------------------------------- per-query differential tests --
struct QueryCase {
  std::string workload;
  size_t index;
};

class PerQueryDifferential : public ::testing::TestWithParam<QueryCase> {
 protected:
  struct Env {
    Workload workload;
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<Zidian> zidian;
  };

  static Env* GetEnv(const std::string& name) {
    static std::map<std::string, std::unique_ptr<Env>> cache;
    auto it = cache.find(name);
    if (it != cache.end()) return it->second.get();
    auto env = std::make_unique<Env>();
    Result<Workload> w = name == "tpch"  ? MakeTpch(0.4, 19)
                         : name == "mot" ? MakeMot(0.4, 19)
                                         : MakeAirca(0.4, 19);
    EXPECT_TRUE(w.ok());
    env->workload = std::move(w).value();
    env->cluster = std::make_unique<Cluster>(
        ClusterOptions{.num_storage_nodes = 5});
    env->zidian = std::make_unique<Zidian>(&env->workload.catalog,
                                           env->cluster.get(),
                                           env->workload.baav);
    EXPECT_TRUE(env->zidian->LoadTaav(env->workload.data).ok());
    EXPECT_TRUE(env->zidian->BuildBaav(env->workload.data).ok());
    auto* raw = env.get();
    cache.emplace(name, std::move(env));
    return raw;
  }
};

TEST_P(PerQueryDifferential, ZidianEqualsBaseline) {
  Env* env = GetEnv(GetParam().workload);
  ASSERT_LT(GetParam().index, env->workload.queries.size());
  const WorkloadQuery& q = env->workload.queries[GetParam().index];

  Connection conn = env->zidian->Connect();
  AnswerInfo info;
  auto zr = conn.Execute(q.sql, ExecOptions{.workers = 3}, &info);
  ASSERT_TRUE(zr.ok()) << q.name << ": " << zr.status().ToString();
  auto br = conn.Execute(
      q.sql,
      ExecOptions{.workers = 3, .route_policy = RoutePolicy::kForceBaseline});
  ASSERT_TRUE(br.ok()) << q.name;

  Relation a = *zr, b = *br;
  a.SortRows();
  b.SortRows();
  ASSERT_EQ(a.size(), b.size()) << q.name;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < a.rows()[i].size(); ++j) {
      const Value& va = a.rows()[i][j];
      const Value& vb = b.rows()[i][j];
      if (va.IsNumeric() && vb.IsNumeric()) {
        double denom = std::max(1.0, std::abs(vb.Numeric()));
        ASSERT_NEAR(va.Numeric() / denom, vb.Numeric() / denom, 1e-9)
            << q.name << " row " << i;
      } else {
        ASSERT_EQ(va, vb) << q.name << " row " << i;
      }
    }
  }
  EXPECT_EQ(info.scan_free, q.expect_scan_free) << q.name;
}

std::vector<QueryCase> AllQueryCases() {
  std::vector<QueryCase> cases;
  for (size_t i = 0; i < 22; ++i) cases.push_back({"tpch", i});
  for (size_t i = 0; i < 12; ++i) cases.push_back({"mot", i});
  for (size_t i = 0; i < 12; ++i) cases.push_back({"airca", i});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, PerQueryDifferential, ::testing::ValuesIn(AllQueryCases()),
    [](const ::testing::TestParamInfo<QueryCase>& info) {
      return info.param.workload + "_q" + std::to_string(info.param.index + 1);
    });

// -------------------------------------------------- update sequences -------
class UpdateSequenceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UpdateSequenceProperty, IncrementalMaintenanceEqualsRebuild) {
  Rng rng(GetParam());
  auto w = MakeMot(0.1, 6);
  ASSERT_TRUE(w.ok());
  Cluster cluster(ClusterOptions{.num_storage_nodes = 3});
  Zidian z(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(z.LoadTaav(w->data).ok());
  ASSERT_TRUE(z.BuildBaav(w->data).ok());

  Relation tests = w->data.at("mot_test");
  // Random inserts and deletes, applied both to the live store and to a
  // shadow copy of the relation.
  for (int op = 0; op < 30; ++op) {
    if (rng.Chance(0.6) || tests.empty()) {
      Tuple t{Value(int64_t{500000 + op}),
              Value(rng.Uniform(1, 40)),
              Value(rng.Uniform(14000, 15000)),
              Value(rng.Chance(0.5) ? "PASS" : "FAIL"),
              Value(rng.Uniform(1000, 90000)),
              Value(rng.Uniform(1, 80)),
              Value(int64_t{4}),
              Value("NORMAL"),
              Value(54.85),
              Value(rng.Uniform(20, 70)),
              Value(rng.Uniform(1, 400)),
              Value(int64_t{0}),
              Value(rng.Uniform(0, 4)),
              Value(rng.Uniform(0, 3))};
      ASSERT_TRUE(z.Insert("mot_test", t).ok());
      tests.Add(std::move(t));
    } else {
      size_t victim = size_t(rng.Next() % tests.size());
      Tuple t = tests.rows()[victim];
      ASSERT_TRUE(z.Delete("mot_test", t).ok());
      tests.rows().erase(tests.rows().begin() + long(victim));
    }
  }

  // A rebuilt store over the shadow relation must answer identically.
  std::map<std::string, Relation> shadow_db = w->data;
  shadow_db.at("mot_test") = tests;
  Cluster cluster2(ClusterOptions{.num_storage_nodes = 3});
  Zidian z2(&w->catalog, &cluster2, w->baav);
  ASSERT_TRUE(z2.LoadTaav(shadow_db).ok());
  ASSERT_TRUE(z2.BuildBaav(shadow_db).ok());

  for (const char* sql :
       {"SELECT t.test_result, COUNT(*) FROM mot_test t GROUP BY "
        "t.test_result",
        "SELECT v.make, t.test_date FROM vehicle v, mot_test t WHERE "
        "v.vehicle_id = t.vehicle_id AND v.vehicle_id = 7",
        "SELECT SUM(t.cost) FROM mot_test t WHERE t.vehicle_id = 12"}) {
    auto a = z.Connect().Execute(sql, ExecOptions{.workers = 2});
    auto b = z2.Connect().Execute(sql, ExecOptions{.workers = 2});
    ASSERT_TRUE(a.ok()) << sql;
    ASSERT_TRUE(b.ok()) << sql;
    Relation ra = *a, rb = *b;
    ra.SortRows();
    rb.SortRows();
    ASSERT_EQ(ra.size(), rb.size()) << sql;
    for (size_t i = 0; i < ra.size(); ++i) {
      for (size_t j = 0; j < ra.rows()[i].size(); ++j) {
        if (ra.rows()[i][j].IsNumeric()) {
          EXPECT_NEAR(ra.rows()[i][j].Numeric(), rb.rows()[i][j].Numeric(),
                      1e-6);
        } else {
          EXPECT_EQ(ra.rows()[i][j], rb.rows()[i][j]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateSequenceProperty,
                         ::testing::Values(101, 202, 303));

// ----------------------------------------------------------- persistence ---
TEST(Persistence, ClusterSurvivesSaveLoad) {
  auto w = MakeMot(0.1, 8);
  ASSERT_TRUE(w.ok());
  std::string dir = ::testing::TempDir();
  std::string probe =
      "SELECT v.make, t.test_result FROM vehicle v, mot_test t "
      "WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = 5";

  Relation before;
  {
    Cluster cluster(ClusterOptions{.num_storage_nodes = 3});
    Zidian z(&w->catalog, &cluster, w->baav);
    ASSERT_TRUE(z.LoadTaav(w->data).ok());
    ASSERT_TRUE(z.BuildBaav(w->data).ok());
    auto r = z.Connect().Execute(probe);
    ASSERT_TRUE(r.ok());
    before = *r;
    ASSERT_TRUE(cluster.SaveToDir(dir).ok());
  }
  {
    Cluster cluster(ClusterOptions{.num_storage_nodes = 3});
    ASSERT_TRUE(cluster.LoadFromDir(dir).ok());
    Zidian z(&w->catalog, &cluster, w->baav);  // no rebuild: storage restored
    AnswerInfo info;
    auto r = z.Connect().Execute(probe, ExecOptions{}, &info);
    ASSERT_TRUE(r.ok());
    Relation after = *r;
    before.SortRows();
    after.SortRows();
    EXPECT_EQ(before.rows(), after.rows());
    EXPECT_TRUE(info.scan_free);
  }
}

// ------------------------------------------------------- planner edges -----
class PlannerEdgeCases : public ::testing::Test {
 protected:
  void SetUp() override {
    auto w = MakeMot(0.2, 12);
    ASSERT_TRUE(w.ok());
    workload_ = std::move(w).value();
    cluster_ = std::make_unique<Cluster>(
        ClusterOptions{.num_storage_nodes = 3});
    zidian_ = std::make_unique<Zidian>(&workload_.catalog, cluster_.get(),
                                       workload_.baav);
    ASSERT_TRUE(zidian_->LoadTaav(workload_.data).ok());
    ASSERT_TRUE(zidian_->BuildBaav(workload_.data).ok());
  }

  void ExpectAgree(const std::string& sql, int workers = 2) {
    Connection conn = zidian_->Connect();
    auto a = conn.Execute(sql, ExecOptions{.workers = workers});
    auto b = conn.Execute(sql, ExecOptions{.workers = workers,
                                           .route_policy =
                                               RoutePolicy::kForceBaseline});
    ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << sql;
    Relation ra = *a, rb = *b;
    ra.SortRows();
    rb.SortRows();
    ASSERT_EQ(ra.size(), rb.size()) << sql;
  }

  Workload workload_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Zidian> zidian_;
};

TEST_F(PlannerEdgeCases, DisconnectedJoinGraphFallsBackToProduct) {
  ExpectAgree(
      "SELECT v.make, o.region FROM vehicle v, observation o "
      "WHERE v.vehicle_id = 3 AND o.obs_id = 5");
}

TEST_F(PlannerEdgeCases, SelfJoinOnSameRelation) {
  ExpectAgree(
      "SELECT a.make, b.make FROM vehicle a, vehicle b "
      "WHERE a.vehicle_id = 3 AND b.vehicle_id = 4");
}

TEST_F(PlannerEdgeCases, OrPredicateIsResidualButCorrect) {
  ExpectAgree(
      "SELECT t.test_id FROM mot_test t, vehicle v "
      "WHERE t.vehicle_id = v.vehicle_id AND v.vehicle_id = 6 "
      "AND (t.test_result = 'PASS' OR t.test_mileage > 50000)");
}

TEST_F(PlannerEdgeCases, OrderByAndLimitThroughZidianRoute) {
  auto r = zidian_->Connect().Execute(
      "SELECT t.test_date, t.test_mileage FROM mot_test t, vehicle v "
      "WHERE t.vehicle_id = v.vehicle_id AND v.vehicle_id = 6 "
      "ORDER BY t.test_mileage DESC LIMIT 2",
      ExecOptions{.workers = 2});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_GE(r->rows()[0][1].Numeric(), r->rows()[1][1].Numeric());
}

TEST_F(PlannerEdgeCases, GlobalCountStarScanFree) {
  AnswerInfo info;
  auto r = zidian_->Connect().Execute(
      "SELECT COUNT(*) FROM mot_test t, vehicle v "
      "WHERE t.vehicle_id = v.vehicle_id AND v.vehicle_id = 9",
      ExecOptions{.workers = 2}, &info);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(info.scan_free);
  EXPECT_EQ(r->rows()[0][0].AsInt(), 5);  // 5 tests per vehicle
}

TEST_F(PlannerEdgeCases, DuplicateConstantsAreConsistent) {
  ExpectAgree(
      "SELECT t.test_id FROM mot_test t WHERE t.test_id = 7 AND "
      "t.test_id = 7");
}

TEST_F(PlannerEdgeCases, ContradictoryConstantsYieldEmpty) {
  auto r = zidian_->Connect().Execute(
      "SELECT t.test_id FROM mot_test t WHERE t.test_id = 7 AND "
      "t.test_id = 8");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

}  // namespace
}  // namespace zidian
