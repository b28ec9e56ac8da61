// Ablations of the design choices docs/ARCHITECTURE.md lists (not in the
// paper's evaluation, but §8.2 motivates each):
//  (1) block split threshold: gets per point access vs threshold;
//  (2) block compression on/off: storage footprint on skewed data;
//  (3) per-block statistics pushdown on/off: time and bytes for a grouped
//      aggregate;
//  (4) bounded-degree threshold: which MOT queries remain "bounded".
#include "bench/bench_util.h"

#include "zidian/planner.h"

using namespace zidian;
using namespace zidian::bench;

int main() {
  auto w = MakeMot(2.0, 42);
  if (!w.ok()) return 1;

  std::printf("Ablation 1: block split threshold (mot_test@vehicle_id)\n");
  PrintRule();
  std::printf("%-12s %12s %12s\n", "threshold B", "#get/block", "storage B");
  PrintRule();
  const KvSchema* kv = nullptr;
  for (const auto& s : w->baav.all()) {
    if (s.relation == "mot_test" &&
        s.key_attrs == std::vector<std::string>{"vehicle_id"}) {
      kv = w->baav.Find(s.name);
    }
  }
  for (size_t threshold : {32u, 64u, 256u, 4096u, 262144u}) {
    Cluster cluster(ClusterOptions{.num_storage_nodes = 4});
    BaavStoreOptions opts;
    opts.block_split_threshold_bytes = threshold;
    BaavStore store(&cluster, w->baav, &w->catalog, opts);
    ZIDIAN_CHECK_OK(store.BuildInstance(*kv, w->data.at("mot_test")));
    QueryMetrics m;
    for (int64_t v = 1; v <= 50; ++v) {
      const Tuple key{Value(v)};
      ZIDIAN_CHECK_OK(store
                          .MultiGetBlocks({{kv, &key}}, &m,
                                          FanoutMode::kOverlapped, nullptr)
                          .status());
    }
    std::printf("%-12zu %12s %12zu\n", threshold,
                Num(double(m.get_calls) / 50).c_str(),
                size_t(store.InstanceBytes(*kv)));
  }
  PrintRule();

  std::printf("\nAblation 2: block compression (skewed MOT data)\n");
  PrintRule();
  std::printf("%-14s %14s\n", "compression", "instance bytes");
  PrintRule();
  for (bool compress : {false, true}) {
    Cluster cluster(ClusterOptions{.num_storage_nodes = 4});
    BaavStoreOptions opts;
    opts.block.compress = compress;
    BaavStore store(&cluster, w->baav, &w->catalog, opts);
    // Small active domains (§9): per station, test results and classes take
    // a handful of values — exactly where distinct+counter compression wins.
    KvSchema wide = MakeKvSchema("mot_test", {"station_id"},
                                 {"test_result", "test_class", "retest_flag"});
    wide.name = "mot_test@station/ablate";
    ZIDIAN_CHECK_OK(store.BuildInstance(wide, w->data.at("mot_test")));
    std::printf("%-14s %14zu\n", compress ? "on" : "off",
                size_t(store.InstanceBytes(wide)));
  }
  PrintRule();

  std::printf("\nAblation 3: per-block statistics pushdown\n");
  PrintRule();
  std::printf("%-10s %12s %14s %12s\n", "stats", "time (s)", "storage B",
              "values");
  PrintRule();
  for (bool stats : {false, true}) {
    Cluster cluster(ClusterOptions{.num_storage_nodes = 4});
    ZidianOptions zopts;
    zopts.planner.enable_stats_pushdown = stats;
    Zidian z(&w->catalog, &cluster, w->baav, zopts);
    ZIDIAN_CHECK_OK(z.LoadTaav(w->data));
    ZIDIAN_CHECK_OK(z.BuildBaav(w->data));
    AnswerInfo info;
    auto r = z.Connect().Execute(
        "SELECT v.vehicle_id, SUM(t.cost), COUNT(*) FROM vehicle v, "
        "mot_test t WHERE v.vehicle_id = t.vehicle_id AND v.vehicle_id = 7 "
        "GROUP BY v.vehicle_id",
        ExecOptions{.workers = 4}, &info);
    if (!r.ok()) return 1;
    std::printf("%-10s %12s %14llu %12llu\n", stats ? "on" : "off",
                Num(SimSeconds(info.metrics, SoH())).c_str(),
                (unsigned long long)info.metrics.bytes_from_storage,
                (unsigned long long)info.metrics.values_accessed);
  }
  PrintRule();

  std::printf("\nAblation 4: bounded-degree threshold vs bounded queries\n");
  PrintRule();
  std::printf("%-12s %s\n", "threshold", "#bounded of 12 MOT queries");
  PrintRule();
  for (uint64_t threshold : {1u, 4u, 16u, 64u}) {
    Cluster cluster(ClusterOptions{.num_storage_nodes = 4});
    ZidianOptions zopts;
    zopts.planner.bounded_degree_threshold = threshold;
    Zidian z(&w->catalog, &cluster, w->baav, zopts);
    ZIDIAN_CHECK_OK(z.LoadTaav(w->data));
    ZIDIAN_CHECK_OK(z.BuildBaav(w->data));
    Connection conn = z.Connect();
    int bounded = 0;
    for (const auto& q : w->queries) {
      AnswerInfo info;
      auto r = conn.Execute(q.sql, ExecOptions{.workers = 2}, &info);
      if (r.ok() && info.bounded) ++bounded;
    }
    std::printf("%-12llu %d\n", (unsigned long long)threshold, bounded);
  }
  PrintRule();
  std::printf(
      "paper-shape: smaller split thresholds raise #get per access; "
      "compression shrinks skewed instances; stats pushdown cuts bytes and "
      "values; boundedness appears once the threshold clears the real "
      "degrees (~5-8)\n");
  return 0;
}
