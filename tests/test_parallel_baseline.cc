// Mode-parity tests for the TaaV baseline executor (per-tuple get scan,
// filters, join probes) and GroupAggregate — mirroring
// test_parallel_exec.cc's contract: byte-identical rows in identical order
// and CountersEqual-identical metrics between ParallelMode::kSimulated and
// kThreads, across repeated runs at workers = 8, on both KvBackend
// engines. GroupAggregate also folds partial states (the stats pushdown
// of §8.2): hand-built partial rows, and every numeric aggregate of the
// stats route against the baseline. Also covers the Connection-shared
// ThreadPool (used_shared_pool reporting, ExecOptions::pool override,
// effective parallel_mode at workers = 1).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "ra/eval.h"
#include "storage/backend.h"
#include "storage/cluster.h"
#include "workloads/workload.h"
#include "zidian/connection.h"
#include "zidian/zidian.h"

namespace zidian {
namespace {

// ------------------------------------------------- TaaV baseline parity ---

class BaselineParityFixture : public ::testing::TestWithParam<BackendKind> {
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

  /// Reference run: the TaaV baseline in kSimulated at `workers`.
  Relation Reference(PreparedQuery* q, int workers, AnswerInfo* info) {
    auto r = q->Execute(
        ExecOptions{.workers = workers,
                    .route_policy = RoutePolicy::kForceBaseline},
        info);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  Workload workload_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Zidian> zidian_;
};

TEST_P(BaselineParityFixture, RepeatedThreadedBaselineRunsMatchSimulated) {
  // mot-q8: full scans of vehicle and mot_test, a filter, a join and a
  // GROUP BY without ORDER BY — every threaded baseline stage at once,
  // with the aggregate's first-appearance row order fully exposed.
  Connection conn = zidian_->Connect();
  auto prepared = conn.Prepare(workload_.queries[7].sql);  // mot-q8
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  AnswerInfo sim;
  Relation reference = Reference(&*prepared, 8, &sim);
  EXPECT_EQ(sim.parallel_mode, ParallelMode::kSimulated);
  EXPECT_FALSE(sim.used_shared_pool);
  std::string reference_text = reference.ToString(1u << 20);

  for (int run = 0; run < 30; ++run) {
    AnswerInfo thr;
    auto r = prepared->Execute(
        ExecOptions{.workers = 8,
                    .route_policy = RoutePolicy::kForceBaseline,
                    .parallel_mode = ParallelMode::kThreads},
        &thr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->ToString(1u << 20), reference_text) << "run " << run;
    ASSERT_TRUE(CountersEqual(thr.metrics, sim.metrics))
        << "run " << run << "\n  sim: " << sim.metrics.ToString()
        << "\n  thr: " << thr.metrics.ToString();
    EXPECT_EQ(thr.parallel_mode, ParallelMode::kThreads);
    EXPECT_TRUE(thr.used_shared_pool);
    EXPECT_GT(thr.metrics.wall_seconds, 0.0);
  }
}

TEST_P(BaselineParityFixture, BaselineParityAcrossQueriesAndWorkerCounts) {
  Connection conn = zidian_->Connect();
  for (const auto& q : workload_.queries) {
    auto prepared = conn.Prepare(q.sql);
    ASSERT_TRUE(prepared.ok()) << q.name << ": "
                               << prepared.status().ToString();
    for (int workers : {1, 2, 4, 8}) {
      AnswerInfo sim;
      Relation reference = Reference(&*prepared, workers, &sim);
      AnswerInfo thr;
      auto r = prepared->Execute(
          ExecOptions{.workers = workers,
                      .route_policy = RoutePolicy::kForceBaseline,
                      .parallel_mode = ParallelMode::kThreads},
          &thr);
      ASSERT_TRUE(r.ok()) << q.name << ": " << r.status().ToString();
      EXPECT_EQ(r->ToString(1u << 20), reference.ToString(1u << 20))
          << q.name << " workers=" << workers;
      EXPECT_TRUE(CountersEqual(thr.metrics, sim.metrics))
          << q.name << " workers=" << workers
          << "\n  sim: " << sim.metrics.ToString()
          << "\n  thr: " << thr.metrics.ToString();
      // workers = 1 on one thread IS the simulated path; Explain must say
      // so instead of advertising threads that never existed.
      EXPECT_EQ(thr.parallel_mode, workers > 1 ? ParallelMode::kThreads
                                               : ParallelMode::kSimulated);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, BaselineParityFixture,
                         ::testing::Values(BackendKind::kLsm,
                                           BackendKind::kMem),
                         [](const auto& info) {
                           return std::string(BackendKindName(info.param));
                         });

// ---------------------------------------------- GroupAggregate parity ---

Relation MakeGroupedInput(size_t rows) {
  Relation in({"t.g", "t.v", "t.w"});
  for (size_t i = 0; i < rows; ++i) {
    // 97 groups, first appearances scattered, values with nulls mixed in.
    int64_t g = static_cast<int64_t>((i * 31) % 97);
    Value v = (i % 13 == 0) ? Value::Null()
                            : Value(static_cast<double>(i % 100) * 0.25);
    in.Add({Value(g), v, Value(static_cast<int64_t>(i))});
  }
  return in;
}

std::vector<SelectItem> AllAggItems() {
  std::vector<SelectItem> items;
  items.push_back({AggFn::kNone, Expr::Column("t", "g"), "t.g"});
  items.push_back({AggFn::kSum, Expr::Column("t", "v"), "s"});
  items.push_back({AggFn::kCount, nullptr, "c"});
  items.push_back({AggFn::kAvg, Expr::Column("t", "v"), "avg"});
  items.push_back({AggFn::kMin, Expr::Column("t", "v"), "mn"});
  items.push_back({AggFn::kMax, Expr::Column("t", "w"), "mx"});
  return items;
}

TEST(ParallelGroupAggregate, ThreadedRunsMatchSequentialAtEveryWorkerCount) {
  Relation in = MakeGroupedInput(20000);
  std::vector<AttrRef> group_by = {{"t", "g"}};
  auto items = AllAggItems();

  for (int workers : {2, 4, 8}) {
    QueryMetrics seq_m;
    auto seq = GroupAggregate(in, group_by, items, &seq_m, nullptr, workers);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    std::string seq_text = seq->ToString(1u << 20);

    ThreadPool pool(workers - 1);
    for (int run = 0; run < 20; ++run) {
      QueryMetrics thr_m;
      auto thr = GroupAggregate(in, group_by, items, &thr_m, &pool, workers);
      ASSERT_TRUE(thr.ok()) << thr.status().ToString();
      ASSERT_EQ(thr->ToString(1u << 20), seq_text)
          << "workers=" << workers << " run=" << run;
      ASSERT_TRUE(CountersEqual(thr_m, seq_m))
          << "workers=" << workers << " run=" << run
          << "\n  seq: " << seq_m.ToString()
          << "\n  thr: " << thr_m.ToString();
    }
  }
}

TEST(ParallelGroupAggregate, EmitsGroupsInFirstAppearanceOrder) {
  Relation in({"t.g", "t.v"});
  for (int64_t g : {7, 3, 7, 9, 3, 1}) {
    in.Add({Value(g), Value(int64_t{1})});
  }
  std::vector<SelectItem> items;
  items.push_back({AggFn::kNone, Expr::Column("t", "g"), "t.g"});
  items.push_back({AggFn::kCount, nullptr, "c"});
  // The canonical order holds at every worker count, pool or not.
  for (int workers : {1, 2, 4}) {
    ThreadPool pool(3);
    auto out = GroupAggregate(in, {{"t", "g"}}, items, nullptr, &pool, workers);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out->size(), 4u);
    EXPECT_EQ(out->rows()[0][0].AsInt(), 7) << "workers=" << workers;
    EXPECT_EQ(out->rows()[1][0].AsInt(), 3);
    EXPECT_EQ(out->rows()[2][0].AsInt(), 9);
    EXPECT_EQ(out->rows()[3][0].AsInt(), 1);
    EXPECT_EQ(out->rows()[0][1].AsInt(), 2);  // two 7s merged across chunks
  }
}

// ------------------------------------------- GroupAggregate over partials ---

// Hand-built partial rows, one per "block", as a stats-only extension
// emits them: group key, then the #sum/#count/#min/#max of one column and
// #rows. Every value is a multiple of 0.5, so sums are exact whatever
// their association.
constexpr int kSumCol = 1, kCountCol = 2, kMinCol = 3, kMaxCol = 4,
              kRowsCol = 5;

Relation MakePartialInput(size_t rows) {
  Relation in({"t.g", "t.x#sum", "t.x#count", "t.x#min", "t.x#max", "t.#rows"});
  for (size_t i = 0; i < rows; ++i) {
    const double d = static_cast<double>(i);
    if (i % 50 == 0) {
      // A group whose blocks hold no numeric value: NULL sum, min and
      // max, a zero count, but real rows.
      in.Add({Value(int64_t{100}), Value::Null(), Value(int64_t{0}),
              Value::Null(), Value::Null(), Value(int64_t{2})});
    } else if (i % 5 == 0) {
      // A NULL #sum beside a real #count: the count still counts.
      in.Add({Value(static_cast<int64_t>(i % 7)), Value::Null(),
              Value(int64_t{2}), Value(d), Value(d + 10), Value(int64_t{2})});
    } else {
      in.Add({Value(static_cast<int64_t>(i % 7)), Value(d * 0.5),
              Value(int64_t{3}), Value(d), Value(d + 10), Value(int64_t{4})});
    }
  }
  return in;
}

/// The items SUM, AVG, MIN, MAX, COUNT(x), COUNT(*) after the group key,
/// with the partial columns each one reads.
std::vector<SelectItem> PartialItems(std::vector<PartialColumns>* cols,
                                     bool with_key) {
  std::vector<SelectItem> items;
  const PartialColumns x{kSumCol, kCountCol, kMinCol, kMaxCol};
  if (with_key) {
    items.push_back({AggFn::kNone, Expr::Column("t", "g"), "t.g"});
    cols->push_back({});
  }
  for (AggFn fn : {AggFn::kSum, AggFn::kAvg, AggFn::kMin, AggFn::kMax,
                   AggFn::kCount}) {
    items.push_back({fn, Expr::Column("t", "x"), std::string(AggFnName(fn))});
    cols->push_back(x);
  }
  items.push_back({AggFn::kCount, nullptr, "count_star"});
  cols->push_back({.count = kRowsCol});
  return items;
}

/// GroupAggregate over partial rows must merge each row's state exactly:
/// sums and counts add over non-NULL columns, min/max over non-NULL
/// columns, COUNT(*) adds #rows — at every worker count, pool or not.
TEST(PartialGroupAggregate, MergesPartialStatesAtEveryWorkerCount) {
  const Relation in = MakePartialInput(600);  // above the row cutoff
  std::vector<PartialColumns> cols;
  const std::vector<SelectItem> items = PartialItems(&cols, true);

  // The expected groups, folded row by row in first-appearance order.
  struct Expected {
    double sum = 0;
    bool any_sum = false;
    int64_t count = 0, rows = 0;
    Value min, max;
  };
  std::vector<int64_t> order;
  std::map<int64_t, Expected> expected;
  for (const Tuple& row : in.rows()) {
    int64_t g = row[0].AsInt();
    if (!expected.count(g)) order.push_back(g);
    Expected& e = expected[g];
    if (!row[kSumCol].is_null()) {
      e.sum += row[kSumCol].Numeric();
      e.any_sum = true;
    }
    e.count += row[kCountCol].AsInt();
    e.rows += row[kRowsCol].AsInt();
    if (!row[kMinCol].is_null() && (e.min.is_null() || row[kMinCol] < e.min)) {
      e.min = row[kMinCol];
    }
    if (!row[kMaxCol].is_null() && (e.max.is_null() || e.max < row[kMaxCol])) {
      e.max = row[kMaxCol];
    }
  }
  ASSERT_EQ(order.size(), 8u);
  ASSERT_FALSE(expected[100].any_sum);
  ASSERT_TRUE(expected[100].min.is_null());

  for (int workers : {1, 3}) {
    ThreadPool pool(workers - 1);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   (p != nullptr ? " pool" : " no pool"));
      QueryMetrics m;
      auto out = GroupAggregate(in, {{"t", "g"}}, items, &m, p, workers, &cols);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(m.compute_values, in.size() * 6);
      ASSERT_EQ(out->size(), order.size());
      for (size_t r = 0; r < order.size(); ++r) {
        const Tuple& row = out->rows()[r];
        const Expected& e = expected[order[r]];
        SCOPED_TRACE("group " + std::to_string(order[r]));
        EXPECT_EQ(row[0].AsInt(), order[r]);
        if (e.any_sum) {
          EXPECT_EQ(row[1].AsDouble(), e.sum);
        } else {
          EXPECT_TRUE(row[1].is_null());
        }
        if (e.count > 0) {
          EXPECT_EQ(row[2].AsDouble(), e.sum / static_cast<double>(e.count));
        } else {
          EXPECT_TRUE(row[2].is_null());
        }
        ASSERT_EQ(row[3].is_null(), e.min.is_null());
        ASSERT_EQ(row[4].is_null(), e.max.is_null());
        if (!e.min.is_null()) {
          EXPECT_EQ(row[3].AsDouble(), e.min.AsDouble());
          EXPECT_EQ(row[4].AsDouble(), e.max.AsDouble());
        }
        EXPECT_EQ(row[5].AsInt(), e.count);
        EXPECT_EQ(row[6].AsInt(), e.rows);
      }
    }
  }
}

TEST(PartialGroupAggregate, EmptyGlobalAggregateYieldsOneRow) {
  const Relation in = MakePartialInput(0);
  std::vector<PartialColumns> cols;
  const std::vector<SelectItem> items = PartialItems(&cols, false);
  for (int workers : {1, 3}) {
    ThreadPool pool(workers - 1);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      auto out = GroupAggregate(in, {}, items, nullptr, p, workers, &cols);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      ASSERT_EQ(out->size(), 1u);
      const Tuple& row = out->rows()[0];
      EXPECT_TRUE(row[0].is_null());  // SUM
      EXPECT_TRUE(row[1].is_null());  // AVG
      EXPECT_TRUE(row[2].is_null());  // MIN
      EXPECT_TRUE(row[3].is_null());  // MAX
      EXPECT_EQ(row[4].AsInt(), 0);   // COUNT(x)
      EXPECT_EQ(row[5].AsInt(), 0);   // COUNT(*)
    }
  }
}

// ------------------------------------------------- stats pushdown parity ---

class StatsPushdownFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto w = MakeMot(0.05, 3);
    ASSERT_TRUE(w.ok());
    workload_ = std::move(w).value();
    cluster_ =
        std::make_unique<Cluster>(ClusterOptions{.num_storage_nodes = 3});
    zidian_ = std::make_unique<Zidian>(&workload_.catalog, cluster_.get(),
                                       workload_.baav);
    ASSERT_TRUE(zidian_->LoadTaav(workload_.data).ok());
    ASSERT_TRUE(zidian_->BuildBaav(workload_.data).ok());
  }

  /// `select` over vehicle 1's tests, grouped by `group` (none if empty).
  static std::string Sql(const std::string& group, const std::string& select) {
    std::string sql = "SELECT " + (group.empty() ? "" : group + ", ") +
                      select +
                      " FROM vehicle v, mot_test t "
                      "WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = 1";
    return group.empty() ? sql : sql + " GROUP BY " + group;
  }

  Workload workload_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Zidian> zidian_;
};

// Every aggregate over a numeric Y column folds block statistics through
// GroupAggregate: the answer matches the baseline's, and rows and counters
// are identical with and without a pool at every worker count.
TEST_F(StatsPushdownFixture, StatsRouteAgreesWithBaselineInBothModes) {
  Connection conn = zidian_->Connect();
  std::vector<std::string> aggs = {"COUNT(*)"};
  for (std::string fn : {"SUM", "AVG", "MIN", "MAX", "COUNT"}) {
    for (std::string col : {"t.cost", "t.test_mileage"}) {
      aggs.push_back(fn + "(" + col + ")");
    }
  }
  for (std::string group : {"v.vehicle_id", "v.make", ""}) {
    for (const std::string& agg : aggs) {
      const std::string sql = Sql(group, agg);
      SCOPED_TRACE(sql);
      auto prepared = conn.Prepare(sql);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      ASSERT_TRUE(prepared->Explain().stats_pushdown);
      auto baseline = prepared->Execute(
          ExecOptions{.route_policy = RoutePolicy::kForceBaseline});
      ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
      ASSERT_EQ(baseline->size(), 1u);
      const Tuple& want = baseline->rows()[0];
      for (int workers : {1, 3, 8}) {
        // Cold runs: under the cached ctest configuration one run would
        // otherwise warm the next and move its counters.
        AnswerInfo sim;
        auto reference = prepared->Execute(
            ExecOptions{.workers = workers, .bypass_cache = true}, &sim);
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();
        ASSERT_TRUE(sim.stats_pushdown);
        ASSERT_EQ(reference->size(), 1u);
        const Tuple& got = reference->rows()[0];
        ASSERT_EQ(got.size(), want.size());
        for (size_t c = 0; c < got.size(); ++c) {
          ASSERT_EQ(got[c].is_null(), want[c].is_null()) << "column " << c;
          if (got[c].IsNumeric() && want[c].IsNumeric()) {
            // Block sums associate per block, the baseline's per row.
            EXPECT_NEAR(got[c].Numeric(), want[c].Numeric(),
                        1e-9 * (1 + std::abs(want[c].Numeric())))
                << "workers=" << workers << " column " << c;
          } else {
            EXPECT_EQ(got[c], want[c]) << "column " << c;
          }
        }
        AnswerInfo thr;
        auto threaded = prepared->Execute(
            ExecOptions{.workers = workers,
                        .bypass_cache = true,
                        .parallel_mode = ParallelMode::kThreads},
            &thr);
        ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
        EXPECT_EQ(threaded->ToString(1u << 20), reference->ToString(1u << 20))
            << "workers=" << workers;
        EXPECT_TRUE(CountersEqual(thr.metrics, sim.metrics))
            << "workers=" << workers << "\n  sim: " << sim.metrics.ToString()
            << "\n  thr: " << thr.metrics.ToString();
      }
    }
  }
}

// Block statistics cover numeric values only, so an aggregate over a
// string column must read the blocks themselves: with pushdown it counted
// 0 tests and found no MIN/MAX for a vehicle with 5.
// Block headers keep every statistic as a double, but MIN and MAX of an
// INT column come back as INT on the stats route, as on the baseline.
// Value compares 38474 with 38474.0 as equal, so the types are checked.
TEST_F(StatsPushdownFixture, MinMaxKeepTheColumnType) {
  Connection conn = zidian_->Connect();
  auto prepared = conn.Prepare(Sql("",
                                   "MIN(t.test_mileage), MAX(t.test_mileage), "
                                   "MIN(t.cost), MAX(t.cost)"));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_TRUE(prepared->Explain().stats_pushdown);
  for (RoutePolicy route : {RoutePolicy::kAuto, RoutePolicy::kForceBaseline}) {
    AnswerInfo info;
    auto r = prepared->Execute(
        ExecOptions{.route_policy = route, .bypass_cache = true}, &info);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(info.route == AnswerInfo::Route::kTaavFallback,
              route == RoutePolicy::kForceBaseline);
    ASSERT_EQ(r->size(), 1u);
    const Tuple& row = r->rows()[0];
    EXPECT_EQ(row[0].type(), ValueType::kInt);  // test_mileage is INT
    EXPECT_EQ(row[1].type(), ValueType::kInt);
    EXPECT_EQ(row[2].type(), ValueType::kDouble);  // cost is DOUBLE
    EXPECT_EQ(row[3].type(), ValueType::kDouble);
  }
}

TEST_F(StatsPushdownFixture, NonNumericColumnIsNotPushedDown) {
  Connection conn = zidian_->Connect();
  auto count = conn.Prepare(Sql("v.vehicle_id", "COUNT(t.test_result)"));
  auto range = conn.Prepare(
      Sql("v.vehicle_id", "MIN(t.test_result), MAX(t.test_result)"));
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_FALSE(count->Explain().stats_pushdown);
  EXPECT_FALSE(range->Explain().stats_pushdown);
  for (RoutePolicy route : {RoutePolicy::kAuto, RoutePolicy::kForceBaseline}) {
    auto c = count->Execute(ExecOptions{.route_policy = route});
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    ASSERT_EQ(c->size(), 1u);
    EXPECT_EQ(c->rows()[0][1].AsInt(), 5);
    auto r = range->Execute(ExecOptions{.route_policy = route});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->size(), 1u);
    EXPECT_EQ(r->rows()[0][1].AsString(), "ABANDONED");
    EXPECT_EQ(r->rows()[0][2].AsString(), "PASS");
  }
}

// --------------------------------------------------- shared-pool reuse ---

TEST(SharedPool, ConnectionPoolServesEveryExecuteOnBothRoutes) {
  auto w = MakeMot(0.15, 23);
  ASSERT_TRUE(w.ok());
  Cluster cluster(ClusterOptions{.num_storage_nodes = 4});
  Zidian z(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(z.LoadTaav(w->data).ok());
  ASSERT_TRUE(z.BuildBaav(w->data).ok());

  Connection conn = z.Connect();
  auto prepared = conn.Prepare(w->queries[7].sql);  // mot-q8, KBA-routable
  ASSERT_TRUE(prepared.ok());

  AnswerInfo kba, taav;
  ASSERT_TRUE(prepared
                  ->Execute(ExecOptions{.workers = 4,
                                        .parallel_mode = ParallelMode::kThreads},
                            &kba)
                  .ok());
  ASSERT_TRUE(prepared
                  ->Execute(ExecOptions{.workers = 4,
                                        .route_policy =
                                            RoutePolicy::kForceBaseline,
                                        .parallel_mode = ParallelMode::kThreads},
                            &taav)
                  .ok());
  EXPECT_TRUE(kba.used_shared_pool);
  EXPECT_TRUE(taav.used_shared_pool);
  EXPECT_EQ(prepared->Explain().used_shared_pool, true);

  // An explicit ExecOptions::pool overrides the shared one.
  ThreadPool own(3);
  AnswerInfo overridden;
  ASSERT_TRUE(prepared
                  ->Execute(ExecOptions{.workers = 4,
                                        .parallel_mode = ParallelMode::kThreads,
                                        .pool = &own},
                            &overridden)
                  .ok());
  EXPECT_FALSE(overridden.used_shared_pool);
  EXPECT_EQ(overridden.parallel_mode, ParallelMode::kThreads);

  // kThreads at workers = 1 runs — and reports — the simulated path.
  AnswerInfo one;
  ASSERT_TRUE(prepared
                  ->Execute(ExecOptions{.workers = 1,
                                        .parallel_mode = ParallelMode::kThreads},
                            &one)
                  .ok());
  EXPECT_EQ(one.parallel_mode, ParallelMode::kSimulated);
  EXPECT_FALSE(one.used_shared_pool);

  // The pool survives the Connection: a PreparedQuery keeps the shared
  // state alive, so Executes after the session handle is gone stay safe.
  std::unique_ptr<PreparedQuery> survivor;
  {
    Connection temp = z.Connect();
    auto p = temp.Prepare(w->queries[7].sql);
    ASSERT_TRUE(p.ok());
    survivor = std::make_unique<PreparedQuery>(std::move(*p));
  }
  AnswerInfo after;
  ASSERT_TRUE(survivor
                  ->Execute(ExecOptions{.workers = 4,
                                        .parallel_mode = ParallelMode::kThreads},
                            &after)
                  .ok());
  EXPECT_TRUE(after.used_shared_pool);
}

}  // namespace
}  // namespace zidian
