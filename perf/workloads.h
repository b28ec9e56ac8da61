// The benchmark's two workloads, each split by the layer that dominates it
// (perf/README.md lists the traffic each one drives):
//
//   oltp-net   served OLTP over a 2 ms link: serve::Server, 3 sessions
//              in saturation, point reads + updates, 16 KiB BlockCache
//   adhoc-net  ad-hoc OLTP over a 4 ms link: one client, Prepare +
//              Execute per read, updates, no BlockCache
//
// One run = repeated set-up (the median is setup_s), an answer check on
// both routes, a measured phase, a re-check of what the updates touched
// (every read template over all vehicles, plus the point statements of the
// first kRecheckKeys touched vehicles), and the metrics. A traced run (trace)
// measures an untraced and a traced phase back to back, writes the spans
// and a per-layer table, and reports the per-layer metrics.
#ifndef ZIDIAN_PERF_WORKLOADS_H_
#define ZIDIAN_PERF_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perf {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  ///< sizes the measured phase: the workload's
                        ///< nominal ops per second times this
  bool trace = false;
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = false;
  std::string error;  ///< why the run is not correct
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

std::vector<std::string> WorkloadNames();
Report RunWorkload(const Options& options);

}  // namespace perf

#endif  // ZIDIAN_PERF_WORKLOADS_H_
