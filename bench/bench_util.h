// Shared helpers for the experiment harness binaries. Each binary
// regenerates one table or figure of the paper's §9, printing the same rows
// or series the paper reports, followed by a "paper-shape" line stating the
// qualitative result the reproduction is expected to preserve.
#ifndef ZIDIAN_BENCH_BENCH_UTIL_H_
#define ZIDIAN_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "storage/backend.h"
#include "workloads/workload.h"
#include "zidian/connection.h"
#include "zidian/zidian.h"

namespace zidian {
namespace bench {

/// A workload loaded into a fresh cluster with both layouts built.
struct Instance {
  Workload workload;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Zidian> zidian;
};

inline Instance Load(Result<Workload> w, ClusterOptions options) {
  if (!w.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 w.status().ToString().c_str());
    std::abort();
  }
  Instance inst;
  inst.workload = std::move(w).value();
  inst.cluster = std::make_unique<Cluster>(std::move(options));
  inst.zidian = std::make_unique<Zidian>(&inst.workload.catalog,
                                         inst.cluster.get(),
                                         inst.workload.baav);
  auto s1 = inst.zidian->LoadTaav(inst.workload.data);
  auto s2 = inst.zidian->BuildBaav(inst.workload.data);
  if (!s1.ok() || !s2.ok()) {
    std::fprintf(stderr, "load failed: %s %s\n", s1.ToString().c_str(),
                 s2.ToString().c_str());
    std::abort();
  }
  return inst;
}

inline Instance Load(Result<Workload> w, int storage_nodes = 8) {
  return Load(std::move(w), ClusterOptions{.num_storage_nodes = storage_nodes});
}

struct RunStats {
  double zidian_s = 0;    ///< simulated seconds with Zidian
  double baseline_s = 0;  ///< simulated seconds without
  QueryMetrics zidian_m;
  QueryMetrics baseline_m;
};

/// Runs one query through both routes under one backend profile. The query
/// is prepared once (parse/bind/route/plan) and executed twice — with the
/// automatic route and with the baseline forced — exactly how a harness
/// should use the Connection/PreparedQuery API.
inline RunStats RunBoth(Instance& inst, const std::string& sql,
                        const BackendProfile& profile, int workers) {
  RunStats out;
  auto prepared = inst.zidian->Connect().Prepare(sql);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed on %s: %s\n", sql.c_str(),
                 prepared.status().ToString().c_str());
    std::abort();
  }
  AnswerInfo info;
  auto zr = prepared->Execute(ExecOptions{.workers = workers}, &info);
  if (!zr.ok()) {
    std::fprintf(stderr, "zidian failed on %s: %s\n", sql.c_str(),
                 zr.status().ToString().c_str());
    std::abort();
  }
  out.zidian_m = info.metrics;
  out.zidian_s = SimSeconds(info.metrics, profile);
  AnswerInfo base;
  auto br = prepared->Execute(
      ExecOptions{.workers = workers,
                  .route_policy = RoutePolicy::kForceBaseline},
      &base);
  if (!br.ok()) {
    std::fprintf(stderr, "baseline failed on %s\n", sql.c_str());
    std::abort();
  }
  out.baseline_m = base.metrics;
  out.baseline_s = SimSeconds(base.metrics, profile);
  return out;
}

/// Pretty-prints one numeric cell in the paper's style (e.g. 1.3e+02).
inline std::string Num(double v) {
  char buf[32];
  if (v >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.1e", v);
  } else if (v >= 10) {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

inline void PrintRule(int width = 96) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace bench
}  // namespace zidian

#endif  // ZIDIAN_BENCH_BENCH_UTIL_H_
