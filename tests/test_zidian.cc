// Zidian-module tests: the GET/VC chase, plan shapes (stats pushdown, scan
// fallbacks), T2B schema design, and the paper's quantitative guarantees —
// bounded queries access/ship a constant amount of data as |D| grows
// (Proposition 7b) and interleaved parallel plans are parallel scalable
// (Theorem 8).
#include <gtest/gtest.h>

#include "sql/binder.h"
#include "storage/backend.h"
#include "workloads/workload.h"
#include "zidian/connection.h"
#include "zidian/planner.h"
#include "zidian/preservation.h"
#include "zidian/t2b.h"
#include "zidian/zidian.h"

namespace zidian {
namespace {

// --------------------------------------------------------------- closure ---
TEST(Closure, ChasesThroughPrimaryKey) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddTable(TableSchema("r",
                                        {{"a", ValueType::kInt},
                                         {"b", ValueType::kInt},
                                         {"c", ValueType::kInt}},
                                        {"a"}))
                  .ok());
  BaavSchema baav;
  KvSchema k1 = MakeKvSchema("r", {"b"}, {"a"});
  k1.primary_key = {"a"};
  KvSchema k2 = MakeKvSchema("r", {"a"}, {"c"});
  k2.primary_key = {"a"};
  ASSERT_TRUE(baav.Add(k1).ok());
  ASSERT_TRUE(baav.Add(k2).ok());
  // clo(k1): {b, a} then k2's key {a} ⊆ -> add c.
  auto clo = Closure(k1, baav);
  EXPECT_EQ(clo, (std::set<std::string>{"a", "b", "c"}));
  // Data preserving: k1's closure covers att(r).
  EXPECT_TRUE(CheckDataPreserving(catalog, baav).preserving);
  // clo(k2) also reaches b: k1 declares pk {a} ⊆ clo, so att(k1) joins in
  // (rule (2) of Condition I chases the declared primary key).
  auto clo2 = Closure(k2, baav);
  EXPECT_TRUE(clo2.count("b"));

  // Without a declared pk the chase needs the *key* attributes: a schema
  // keyed on an unreachable attribute contributes nothing.
  BaavSchema isolated;
  ASSERT_TRUE(isolated.Add(MakeKvSchema("r", {"a"}, {"c"})).ok());
  ASSERT_TRUE(isolated.Add(MakeKvSchema("r", {"b"}, {"a"})).ok());  // no pk
  auto clo3 = Closure(*isolated.Find("r@a"), isolated);
  EXPECT_FALSE(clo3.count("b"));
  // The other schema r@b does preserve: clo(r@b) = {b,a} then +{c} via r@a.
  EXPECT_TRUE(CheckDataPreserving(catalog, isolated).preserving);
}

// ------------------------------------------------------------------ chase --
class ChaseFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .AddTable(TableSchema("n",
                                          {{"nk", ValueType::kInt},
                                           {"name", ValueType::kString}},
                                          {"nk"}))
                    .ok());
    ASSERT_TRUE(catalog_
                    .AddTable(TableSchema("s",
                                          {{"sk", ValueType::kInt},
                                           {"nk", ValueType::kInt}},
                                          {"sk"}))
                    .ok());
    ASSERT_TRUE(baav_.Add(MakeKvSchema("n", {"name"}, {"nk"})).ok());
    ASSERT_TRUE(baav_.Add(MakeKvSchema("s", {"nk"}, {"sk"})).ok());
  }
  Catalog catalog_;
  BaavSchema baav_;
};

TEST_F(ChaseFixture, GetGrowsAlongKeys) {
  auto spec = ParseAndBind(
      "SELECT s.sk FROM n, s WHERE n.nk = s.nk AND n.name = 'X'", catalog_);
  ASSERT_TRUE(spec.ok());
  auto min = MinimizeSPC(*spec, catalog_);
  ASSERT_TRUE(min.ok());
  auto chase = ChaseGetVc(*spec, *min, baav_, catalog_);
  ASSERT_TRUE(chase.ok());
  EXPECT_TRUE(chase->scan_free);
  EXPECT_EQ(chase->steps.size(), 2u);
  EXPECT_EQ(chase->steps[0].kv_name, "n@name");
  EXPECT_EQ(chase->steps[1].kv_name, "s@nk");
  EXPECT_TRUE(chase->get.count({"s", "sk"}));
  EXPECT_TRUE(chase->get.count({"n", "nk"}));
}

TEST_F(ChaseFixture, NoConstantSeedMeansNotScanFree) {
  auto spec = ParseAndBind("SELECT s.sk FROM s WHERE s.sk > 3", catalog_);
  ASSERT_TRUE(spec.ok());
  auto sf = IsScanFree(*spec, catalog_, baav_);
  ASSERT_TRUE(sf.ok());
  EXPECT_FALSE(*sf);
}

TEST_F(ChaseFixture, ConstantOnNonKeyIsNotScanFree) {
  // Constant on s.sk, but no KV schema is keyed on sk: unreachable.
  auto spec = ParseAndBind("SELECT s.nk FROM s WHERE s.sk = 5", catalog_);
  ASSERT_TRUE(spec.ok());
  auto sf = IsScanFree(*spec, catalog_, baav_);
  ASSERT_TRUE(sf.ok());
  EXPECT_FALSE(*sf);
}

// -------------------------------------------------------------- planning ---
TEST(Planner, StatsPushdownOnEligibleAggregate) {
  auto w = MakeMot(0.2, 9);
  ASSERT_TRUE(w.ok());
  Cluster cluster(ClusterOptions{.num_storage_nodes = 2});
  Zidian z(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(z.LoadTaav(w->data).ok());
  ASSERT_TRUE(z.BuildBaav(w->data).ok());
  // mot-q3 shape: grouped aggregate whose args are Y attrs of the last
  // extension and whose residuals live upstream.
  auto spec = ParseAndBind(
      "SELECT t.test_result, COUNT(*), MAX(t.test_mileage) "
      "FROM vehicle v, mot_test t WHERE v.vehicle_id = t.vehicle_id "
      "AND v.vehicle_id = 3 GROUP BY t.test_result",
      w->catalog);
  ASSERT_TRUE(spec.ok());
  auto planned = GenerateKbaPlan(*spec, w->catalog, z.store(), {});
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_TRUE(planned->scan_free);
  // group key test_result is a Y attribute of the last extend, so the
  // stats header (per-block aggregates) cannot group by it: no pushdown.
  EXPECT_FALSE(planned->stats_pushdown);

  // A SUM keyed above the last extension does push down.
  auto spec2 = ParseAndBind(
      "SELECT v.vehicle_id, SUM(t.cost) FROM vehicle v, mot_test t "
      "WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = 3 "
      "GROUP BY v.vehicle_id",
      w->catalog);
  ASSERT_TRUE(spec2.ok());
  auto planned2 = GenerateKbaPlan(*spec2, w->catalog, z.store(), {});
  ASSERT_TRUE(planned2.ok());
  EXPECT_TRUE(planned2->stats_pushdown);
  // And disabling the option turns it off.
  PlannerOptions no_stats;
  no_stats.enable_stats_pushdown = false;
  auto planned3 = GenerateKbaPlan(*spec2, w->catalog, z.store(), no_stats);
  ASSERT_TRUE(planned3.ok());
  EXPECT_FALSE(planned3->stats_pushdown);

  // Both routes agree with the baseline.
  auto prepared = z.Connect().PrepareSpec(*spec2);
  ASSERT_TRUE(prepared.ok());
  auto zr = prepared->Execute(ExecOptions{.workers = 2});
  ASSERT_TRUE(zr.ok());
  auto br = prepared->Execute(
      ExecOptions{.workers = 2, .route_policy = RoutePolicy::kForceBaseline});
  ASSERT_TRUE(br.ok());
  Relation a = *zr, b = *br;
  a.SortRows();
  b.SortRows();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.rows()[i][1].Numeric(), b.rows()[i][1].Numeric(), 1e-6);
  }
}

TEST(Planner, NonScanFreePlanUsesInstanceScans) {
  auto w = MakeMot(0.1, 9);
  ASSERT_TRUE(w.ok());
  Cluster cluster(ClusterOptions{.num_storage_nodes = 2});
  Zidian z(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(z.BuildBaav(w->data).ok());
  auto spec = ParseAndBind(w->queries[6].sql, w->catalog);  // mot-q7
  ASSERT_TRUE(spec.ok());
  auto planned = GenerateKbaPlan(*spec, w->catalog, z.store(), {});
  ASSERT_TRUE(planned.ok());
  EXPECT_FALSE(planned->scan_free);
  EXPECT_FALSE(planned->scanned_aliases.empty());
  EXPECT_FALSE(planned->plan->IsScanFree());
}

// ------------------------------------------------- bounded communication ---
TEST(Bounded, CostIndependentOfDatasetSize) {
  // Proposition 7(b) / Exp-2: a bounded query's #get, #data and comm stay
  // flat as |D| grows; the baseline's grow linearly.
  std::vector<double> scales{0.5, 1.0, 2.0, 4.0};
  std::vector<QueryMetrics> zidian_m, base_m;
  for (double scale : scales) {
    auto w = MakeMot(scale, 21);
    ASSERT_TRUE(w.ok());
    Cluster cluster(ClusterOptions{.num_storage_nodes = 4});
    Zidian z(&w->catalog, &cluster, w->baav);
    ASSERT_TRUE(z.LoadTaav(w->data).ok());
    ASSERT_TRUE(z.BuildBaav(w->data).ok());
    // Fixed bounded query: vehicle 7's history (in-domain at every scale).
    std::string sql =
        "SELECT v.make, t.test_date, t.test_result FROM vehicle v, mot_test "
        "t WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = 7";
    Connection conn = z.Connect();
    AnswerInfo info;
    auto zr = conn.Execute(sql, ExecOptions{.workers = 2}, &info);
    ASSERT_TRUE(zr.ok());
    EXPECT_TRUE(info.bounded);
    EXPECT_EQ(zr->size(), 5u);  // 5 tests per vehicle at every scale
    AnswerInfo base;
    auto br = conn.Execute(
        sql,
        ExecOptions{.workers = 2, .route_policy = RoutePolicy::kForceBaseline},
        &base);
    ASSERT_TRUE(br.ok());
    zidian_m.push_back(info.metrics);
    base_m.push_back(base.metrics);
  }
  // Zidian: flat across an 8x data growth.
  EXPECT_EQ(zidian_m.front().get_calls, zidian_m.back().get_calls);
  EXPECT_EQ(zidian_m.front().values_accessed,
            zidian_m.back().values_accessed);
  EXPECT_NEAR(static_cast<double>(zidian_m.back().CommBytes()),
              static_cast<double>(zidian_m.front().CommBytes()),
              0.1 * static_cast<double>(zidian_m.front().CommBytes()) + 64);
  // Baseline: at least ~6x growth over the 8x scale range.
  EXPECT_GT(static_cast<double>(base_m.back().values_accessed),
            6.0 * static_cast<double>(base_m.front().values_accessed));
}

// ---------------------------------------------------- parallel scalability --
TEST(Parallel, MakespanShrinksWithWorkers) {
  auto w = MakeTpch(0.2, 13);
  ASSERT_TRUE(w.ok());
  Cluster cluster(ClusterOptions{.num_storage_nodes = 12});
  Zidian z(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(z.LoadTaav(w->data).ok());
  ASSERT_TRUE(z.BuildBaav(w->data).ok());
  const std::string& sql = w->queries[10].sql;  // q11, scan-free
  Connection conn = z.Connect();
  double prev = 1e18;
  for (int p : {1, 2, 4, 8}) {
    AnswerInfo info;
    auto r = conn.Execute(sql, ExecOptions{.workers = p}, &info);
    ASSERT_TRUE(r.ok());
    double t = SimSeconds(info.metrics, SoH()) - SoH().startup_s;
    EXPECT_LT(t, prev * 1.05) << "p=" << p;
    prev = t;
  }
  // Baseline scales too (Theorem 8 holds for both; Zidian must not break
  // horizontal behavior).
  AnswerInfo b1, b8;
  ExecOptions baseline{.route_policy = RoutePolicy::kForceBaseline};
  ASSERT_TRUE(conn.Execute(sql, baseline, &b1).ok());
  baseline.workers = 8;
  ASSERT_TRUE(conn.Execute(sql, baseline, &b8).ok());
  EXPECT_LT(b8.metrics.makespan_next, b1.metrics.makespan_next);
}

// -------------------------------------------------------------------- T2B --
TEST(T2B, InitialSchemasSupportEveryQcs) {
  auto w = MakeMot(0.1, 4);
  ASSERT_TRUE(w.ok());
  std::vector<Qcs> all;
  for (const auto& q : w->queries) {
    auto spec = ParseAndBind(q.sql, w->catalog);
    ASSERT_TRUE(spec.ok());
    auto qcs = ExtractQcs(*spec, w->catalog);
    all.insert(all.end(), qcs.begin(), qcs.end());
  }
  auto res = RunT2B(w->catalog, w->data, all, /*budget=*/UINT64_MAX);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->all_supported);
  for (const auto& q : all) {
    EXPECT_TRUE(QcsSupported(q, res->schema)) << q.ToString();
  }
}

TEST(T2B, BudgetShrinksSchema) {
  auto w = MakeMot(0.2, 4);
  ASSERT_TRUE(w.ok());
  std::vector<Qcs> all;
  for (const auto& q : w->queries) {
    auto spec = ParseAndBind(q.sql, w->catalog);
    ASSERT_TRUE(spec.ok());
    auto qcs = ExtractQcs(*spec, w->catalog);
    all.insert(all.end(), qcs.begin(), qcs.end());
  }
  auto roomy = RunT2B(w->catalog, w->data, all, UINT64_MAX);
  ASSERT_TRUE(roomy.ok());
  auto tight = RunT2B(w->catalog, w->data, all, roomy->estimated_bytes / 3);
  ASSERT_TRUE(tight.ok());
  EXPECT_LT(tight->estimated_bytes, roomy->estimated_bytes);
  EXPECT_LE(tight->schema.size(), roomy->schema.size());
}

TEST(T2B, QcsExtractionFollowsAccessDirection) {
  // The §8.1 example: πF(σ_{A=1} R(A,B,C) ⋈_{B=E} S(E,F,G)) abstracts to
  // AB[A] and EF[E].
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddTable(TableSchema("rr",
                                        {{"a", ValueType::kInt},
                                         {"b", ValueType::kInt},
                                         {"c", ValueType::kInt}},
                                        {"a"}))
                  .ok());
  ASSERT_TRUE(catalog
                  .AddTable(TableSchema("ss",
                                        {{"e", ValueType::kInt},
                                         {"f", ValueType::kInt},
                                         {"g", ValueType::kInt}},
                                        {"e"}))
                  .ok());
  auto spec = ParseAndBind(
      "SELECT ss.f FROM rr, ss WHERE rr.a = 1 AND rr.b = ss.e", catalog);
  ASSERT_TRUE(spec.ok());
  auto qcs = ExtractQcs(*spec, catalog);
  ASSERT_EQ(qcs.size(), 2u);
  std::map<std::string, Qcs> by_rel;
  for (const auto& q : qcs) by_rel[q.relation] = q;
  EXPECT_EQ(by_rel["rr"].known, (std::vector<std::string>{"a"}));
  EXPECT_EQ(by_rel["ss"].known, (std::vector<std::string>{"e"}));
  // Z contains the accessed attributes: {a, b} and {e, f}.
  std::set<std::string> zr(by_rel["rr"].accessed.begin(),
                           by_rel["rr"].accessed.end());
  EXPECT_TRUE(zr.count("a"));
  EXPECT_TRUE(zr.count("b"));
  std::set<std::string> zs(by_rel["ss"].accessed.begin(),
                           by_rel["ss"].accessed.end());
  EXPECT_TRUE(zs.count("e"));
  EXPECT_TRUE(zs.count("f"));
}

// ------------------------------------------------------- fallback routing --
TEST(Routing, NonPreservedQueryFallsBackToTaav) {
  auto w = MakeMot(0.1, 4);
  ASSERT_TRUE(w.ok());
  // Deliberately cripple the schema: only one instance, missing attributes.
  BaavSchema tiny;
  ASSERT_TRUE(
      tiny.Add(MakeKvSchema("vehicle", {"vehicle_id"}, {"make"})).ok());
  Cluster cluster(ClusterOptions{.num_storage_nodes = 2});
  Zidian z(&w->catalog, &cluster, std::move(tiny));
  ASSERT_TRUE(z.LoadTaav(w->data).ok());
  std::map<std::string, Relation> vehicle_only{
      {"vehicle", w->data.at("vehicle")}};
  ASSERT_TRUE(z.BuildBaav(vehicle_only).ok());

  AnswerInfo info;
  auto r = z.Connect().Execute(
      "SELECT v.model FROM vehicle v WHERE v.vehicle_id = 3", ExecOptions{},
      &info);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(info.result_preserving);
  EXPECT_EQ(info.route, AnswerInfo::Route::kTaavFallback);
  EXPECT_EQ(r->size(), 1u);
}

// -------------------------------------------- Connection / PreparedQuery --
class ConnectionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto w = MakeMot(0.3, 17);
    ASSERT_TRUE(w.ok());
    workload_ = std::move(w).value();
    cluster_ = std::make_unique<Cluster>(
        ClusterOptions{.num_storage_nodes = 4});
    zidian_ = std::make_unique<Zidian>(&workload_.catalog, cluster_.get(),
                                       workload_.baav);
    ASSERT_TRUE(zidian_->LoadTaav(workload_.data).ok());
    ASSERT_TRUE(zidian_->BuildBaav(workload_.data).ok());
  }

  static std::string Sorted(Relation r) {
    r.SortRows();
    return r.ToString();
  }

  static void ExpectSameMetrics(const QueryMetrics& a, const QueryMetrics& b) {
    EXPECT_EQ(a.get_calls, b.get_calls);
    EXPECT_EQ(a.get_round_trips, b.get_round_trips);
    EXPECT_EQ(a.multiget_calls, b.multiget_calls);
    EXPECT_EQ(a.next_calls, b.next_calls);
    EXPECT_EQ(a.values_accessed, b.values_accessed);
    EXPECT_EQ(a.bytes_from_storage, b.bytes_from_storage);
    EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes);
    EXPECT_EQ(a.compute_values, b.compute_values);
  }

  const std::string kScanFreeSql =
      "SELECT v.make, t.test_result FROM vehicle v, mot_test t "
      "WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = 11";

  Workload workload_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Zidian> zidian_;
};

TEST_F(ConnectionFixture, PreparedQueryReusedMatchesOneShotExecute) {
  Connection conn = zidian_->Connect();
  auto prepared = conn.Prepare(kScanFreeSql);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  AnswerInfo first, second, one_shot;
  auto r1 = prepared->Execute(ExecOptions{.workers = 2}, &first);
  auto r2 = prepared->Execute(ExecOptions{.workers = 2}, &second);
  auto rs = conn.Execute(kScanFreeSql, ExecOptions{.workers = 2}, &one_shot);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(rs.ok());

  // Re-execution is deterministic and identical to the one-shot Execute.
  EXPECT_EQ(Sorted(*r1), Sorted(*r2));
  EXPECT_EQ(Sorted(*r1), Sorted(*rs));
  ExpectSameMetrics(first.metrics, second.metrics);
  ExpectSameMetrics(first.metrics, one_shot.metrics);
  EXPECT_EQ(first.route, one_shot.route);
  EXPECT_EQ(first.plan_text, one_shot.plan_text);
}

TEST_F(ConnectionFixture, ExplainExposesPlanBeforeAndMetricsAfterExecution) {
  auto prepared = zidian_->Connect().Prepare(kScanFreeSql);
  ASSERT_TRUE(prepared.ok());
  // Prepare() already routed and planned: Explain works without any I/O.
  const AnswerInfo& before = prepared->Explain();
  EXPECT_TRUE(before.result_preserving);
  EXPECT_EQ(before.route, AnswerInfo::Route::kKbaScanFree);
  EXPECT_FALSE(before.plan_text.empty());
  EXPECT_EQ(before.metrics.get_calls, 0u);

  ASSERT_TRUE(prepared->Execute(ExecOptions{.workers = 1}).ok());
  EXPECT_GT(prepared->Explain().metrics.get_calls, 0u);
}

TEST_F(ConnectionFixture, RoutePolicyForceBaselineMatchesTaavExecutor) {
  auto prepared = zidian_->Connect().Prepare(kScanFreeSql);
  ASSERT_TRUE(prepared.ok());
  AnswerInfo forced;
  auto fr = prepared->Execute(
      ExecOptions{.workers = 2, .route_policy = RoutePolicy::kForceBaseline},
      &forced);
  ASSERT_TRUE(fr.ok());
  EXPECT_EQ(forced.route, AnswerInfo::Route::kTaavFallback);

  auto spec = ParseAndBind(kScanFreeSql, workload_.catalog);
  ASSERT_TRUE(spec.ok());
  QueryMetrics bm;
  auto br = TaavExecutor(&workload_.catalog, cluster_.get())
                .Execute(*spec, TaavExecOptions{.workers = 2}, &bm);
  ASSERT_TRUE(br.ok());
  EXPECT_EQ(Sorted(*fr), Sorted(*br));
  ExpectSameMetrics(forced.metrics, bm);

  // Explain() still describes the prepared KBA plan after a forced
  // baseline run — only the route reflects the latest execution.
  EXPECT_FALSE(prepared->Explain().plan_text.empty());
  EXPECT_TRUE(prepared->Explain().scan_free);
}

TEST_F(ConnectionFixture, ForceKbaFailsOnNonPreservingQuery) {
  // No BaaV instance exposes vehicle.colour-keyed access of fuel_type plus
  // the full attribute set this query needs when the schema is crippled.
  BaavSchema tiny;
  ASSERT_TRUE(
      tiny.Add(MakeKvSchema("vehicle", {"vehicle_id"}, {"make"})).ok());
  Zidian crippled(&workload_.catalog, cluster_.get(), tiny);
  std::map<std::string, Relation> vehicle_only{
      {"vehicle", workload_.data.at("vehicle")}};
  ASSERT_TRUE(crippled.BuildBaav(vehicle_only).ok());

  const std::string sql =
      "SELECT v.model FROM vehicle v WHERE v.vehicle_id = 3";
  auto prepared = crippled.Connect().Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  EXPECT_FALSE(prepared->result_preserving());

  // kForceKba refuses; kAuto silently falls back to the baseline.
  auto forced = prepared->Execute(
      ExecOptions{.route_policy = RoutePolicy::kForceKba});
  EXPECT_FALSE(forced.ok());
  AnswerInfo info;
  auto fallback = prepared->Execute(ExecOptions{}, &info);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(info.route, AnswerInfo::Route::kTaavFallback);
  EXPECT_EQ(fallback->size(), 1u);
}

TEST_F(ConnectionFixture, WholeWorkloadAgreesOnMemBackendCluster) {
  // The full MOT query suite behind the hash-table engine: every query
  // answers identically to the LSM-backed instance it was planned against.
  ClusterOptions mem_opts;
  mem_opts.num_storage_nodes = 4;
  mem_opts.backend = BackendKind::kMem;
  Cluster mem_cluster(mem_opts);
  Zidian mem_z(&workload_.catalog, &mem_cluster, workload_.baav);
  ASSERT_TRUE(mem_z.LoadTaav(workload_.data).ok());
  ASSERT_TRUE(mem_z.BuildBaav(workload_.data).ok());
  Connection lsm_conn = zidian_->Connect();
  Connection mem_conn = mem_z.Connect();
  for (const auto& q : workload_.queries) {
    auto a = lsm_conn.Execute(q.sql, ExecOptions{.workers = 2});
    auto b = mem_conn.Execute(q.sql, ExecOptions{.workers = 2});
    ASSERT_TRUE(a.ok()) << q.name;
    ASSERT_TRUE(b.ok()) << q.name;
    EXPECT_EQ(Sorted(*a), Sorted(*b)) << q.name;
  }
}

}  // namespace
}  // namespace zidian
