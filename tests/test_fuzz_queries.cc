// Randomized differential testing: generate hundreds of random SPJ(+agg)
// queries over the MOT schema — random join subsets, random constant seeds,
// random range filters, random projections/aggregates — and require the
// Zidian route and the TaaV baseline to agree on every one. This explores
// plan shapes no hand-written workload covers (partial chains, multi-seed
// chases, filters at every chain position).
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "workloads/workload.h"
#include "zidian/connection.h"
#include "zidian/zidian.h"

namespace zidian {
namespace {

/// Builds a random query over vehicle/mot_test/observation.
std::string RandomQuery(Rng* rng, int64_t n_vehicles) {
  // Choose a table subset joined through vehicle_id.
  bool use_vehicle = rng->Chance(0.8);
  bool use_test = rng->Chance(0.6);
  bool use_obs = !use_vehicle && !use_test ? true : rng->Chance(0.4);

  struct TableUse {
    const char* alias;
    const char* table;
    std::vector<const char*> int_cols;
    const char* key;  // join column
  };
  std::vector<TableUse> used;
  if (use_vehicle) {
    used.push_back({"v", "vehicle",
                    {"first_use_year", "engine_cc", "weight_kg"},
                    "vehicle_id"});
  }
  if (use_test) {
    used.push_back({"t", "mot_test",
                    {"test_date", "test_mileage", "duration_min"},
                    "vehicle_id"});
  }
  if (use_obs) {
    used.push_back({"o", "observation",
                    {"speed_mph", "temperature_c", "lane"},
                    "vehicle_id"});
  }

  std::ostringstream sql;
  std::vector<std::string> projections;
  bool aggregate = rng->Chance(0.4);
  std::string group_col = std::string(used[0].alias) + "." + used[0].key;
  if (aggregate) {
    projections.push_back(group_col);
    const auto& t = used[rng->Next() % used.size()];
    const char* col = t.int_cols[rng->Next() % t.int_cols.size()];
    const char* fn = rng->Chance(0.5) ? "SUM" : (rng->Chance(0.5) ? "MAX"
                                                                  : "AVG");
    projections.push_back(std::string(fn) + "(" + t.alias + "." + col + ")");
    if (rng->Chance(0.5)) projections.push_back("COUNT(*)");
  } else {
    for (const auto& t : used) {
      projections.push_back(std::string(t.alias) + "." +
                            t.int_cols[rng->Next() % t.int_cols.size()]);
    }
  }
  sql << "SELECT ";
  for (size_t i = 0; i < projections.size(); ++i) {
    if (i > 0) sql << ", ";
    sql << projections[i];
  }
  sql << " FROM ";
  for (size_t i = 0; i < used.size(); ++i) {
    if (i > 0) sql << ", ";
    sql << used[i].table << " " << used[i].alias;
  }

  std::vector<std::string> conjuncts;
  for (size_t i = 1; i < used.size(); ++i) {
    conjuncts.push_back(std::string(used[0].alias) + "." + used[0].key +
                        " = " + used[i].alias + "." + used[i].key);
  }
  // Constant seed on vehicle_id with 70% probability (drives scan-freeness).
  if (rng->Chance(0.7)) {
    int64_t vid = 1 + static_cast<int64_t>(rng->Next() %
                                           uint64_t(n_vehicles));
    conjuncts.push_back(std::string(used[0].alias) + "." + used[0].key +
                        " = " + std::to_string(vid));
  }
  // Random range filters.
  for (const auto& t : used) {
    if (!rng->Chance(0.4)) continue;
    const char* col = t.int_cols[rng->Next() % t.int_cols.size()];
    const char* op = rng->Chance(0.5) ? ">" : "<=";
    conjuncts.push_back(std::string(t.alias) + "." + col + " " + op + " " +
                        std::to_string(rng->Uniform(0, 20000)));
  }
  if (!conjuncts.empty()) {
    sql << " WHERE ";
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (i > 0) sql << " AND ";
      sql << conjuncts[i];
    }
  }
  if (aggregate) sql << " GROUP BY " << group_col;
  return sql.str();
}

class FuzzQueries : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzQueries, ZidianAgreesWithBaselineOnRandomQueries) {
  auto w = MakeMot(0.3, 55);
  ASSERT_TRUE(w.ok());
  Cluster cluster(ClusterOptions{.num_storage_nodes = 4});
  Zidian z(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(z.LoadTaav(w->data).ok());
  ASSERT_TRUE(z.BuildBaav(w->data).ok());
  int64_t n_vehicles = 0;
  {
    const Relation& v = w->data.at("vehicle");
    n_vehicles = static_cast<int64_t>(v.size());
  }

  Rng rng(GetParam());
  Connection conn = z.Connect();
  int scan_free_seen = 0;
  for (int i = 0; i < 40; ++i) {
    std::string sql = RandomQuery(&rng, n_vehicles);
    AnswerInfo info;
    auto zr = conn.Execute(sql, ExecOptions{.workers = 2}, &info);
    ASSERT_TRUE(zr.ok()) << sql << "\n" << zr.status().ToString();
    auto br = conn.Execute(
        sql,
        ExecOptions{.workers = 2, .route_policy = RoutePolicy::kForceBaseline});
    ASSERT_TRUE(br.ok()) << sql;
    scan_free_seen += info.scan_free ? 1 : 0;

    Relation a = *zr, b = *br;
    a.SortRows();
    b.SortRows();
    ASSERT_EQ(a.size(), b.size()) << sql;
    for (size_t r = 0; r < a.size(); ++r) {
      ASSERT_EQ(a.rows()[r].size(), b.rows()[r].size()) << sql;
      for (size_t c = 0; c < a.rows()[r].size(); ++c) {
        const Value& va = a.rows()[r][c];
        const Value& vb = b.rows()[r][c];
        if (va.IsNumeric() && vb.IsNumeric()) {
          double denom = std::max(1.0, std::abs(vb.Numeric()));
          ASSERT_NEAR(va.Numeric() / denom, vb.Numeric() / denom, 1e-9)
              << sql << " row " << r << " col " << c;
        } else {
          ASSERT_EQ(va, vb) << sql << " row " << r << " col " << c;
        }
      }
    }
  }
  // The generator must actually exercise both routes.
  EXPECT_GT(scan_free_seen, 0);
  EXPECT_LT(scan_free_seen, 40);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzQueries,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// Concurrent mode: the same random-query generator, but four sessions
// execute the whole batch simultaneously against ONE shared cluster and
// every session's rows must match the serial baseline byte for byte. Two
// sessions run kSimulated and two kThreads, so threaded fan-out races
// single-threaded reads on the shared BlockCache/NetworkModel — the
// ASan/UBSan configurations turn any latent lifetime bug into a crash.
TEST(FuzzQueriesConcurrent, FourSessionsMatchSerialBaseline) {
  auto w = MakeMot(0.3, 55);
  ASSERT_TRUE(w.ok());
  Cluster cluster(ClusterOptions{.num_storage_nodes = 4});
  Zidian z(&w->catalog, &cluster, w->baav);
  ASSERT_TRUE(z.LoadTaav(w->data).ok());
  ASSERT_TRUE(z.BuildBaav(w->data).ok());
  int64_t n_vehicles = static_cast<int64_t>(w->data.at("vehicle").size());

  // One fixed seed: the batch (and therefore the whole test) is
  // reproducible; the only varying input is the thread interleaving.
  Rng rng(4242);
  std::vector<std::string> batch;
  for (int i = 0; i < 24; ++i) batch.push_back(RandomQuery(&rng, n_vehicles));

  // Serial baselines through the same Connection API the sessions use
  // (identical route and row order, not merely equal multisets).
  std::vector<std::string> expected;
  {
    Connection conn = z.Connect();
    for (const std::string& sql : batch) {
      auto rows = conn.Execute(sql, ExecOptions{.workers = 2});
      ASSERT_TRUE(rows.ok()) << sql << "\n" << rows.status().ToString();
      expected.push_back(rows->ToString(1u << 20));
    }
  }

  constexpr int kSessions = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      Connection conn = z.Connect();
      ExecOptions opts{.workers = 2};
      if (s >= 2) opts.parallel_mode = ParallelMode::kThreads;
      for (size_t i = 0; i < batch.size(); ++i) {
        auto rows = conn.Execute(batch[i], opts);
        if (!rows.ok() || rows->ToString(1u << 20) != expected[i]) {
          mismatches.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : sessions) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace zidian
