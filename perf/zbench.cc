// zbench: runs one benchmark workload and prints its result as the last
// line of standard output, one JSON object:
//   {"correct": true, "attempted": N, "failed": F,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
// End-to-end metrics without --trace, per-layer metrics with --trace 1.
// A failed answer check prints no result and exits 1.
//
//   zbench --workload oltp-net|adhoc-net --seed N --seconds S
//          [--trace 0|1] [--out-dir DIR]
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "zbench: %s\nusage: zbench --workload NAME --seed N "
               "--seconds S [--trace 0|1] [--out-dir DIR]\n",
               why);
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perf::Options o;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed" && ParseU64(value, &n)) {
      o.seed = n;
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value);
    } else if (flag == "--trace" && ParseU64(value, &n) && n <= 1) {
      o.trace = n == 1;
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      return Usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  bool known = false;
  for (const auto& name : perf::WorkloadNames()) known |= name == o.workload;
  if (!known) return Usage(("unknown workload '" + o.workload + "'").c_str());
  if (o.seconds <= 0) return Usage("--seconds must be > 0");
  // The variable attaches a BlockCache to every cluster configured without
  // one: adhoc-net's, whose reads would then skip their round trips.
  if (std::getenv("ZIDIAN_BLOCK_CACHE_BYTES") != nullptr) {
    std::fprintf(stderr, "zbench: refusing to run with "
                         "ZIDIAN_BLOCK_CACHE_BYTES set\n");
    return 2;
  }

  // The NetworkModel's modeled round trips are real sleeps. The default
  // 50 us timer slack would stretch each one by a load-dependent amount;
  // threads created later (the server's sessions) inherit this setting.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  perf::Report r = perf::RunWorkload(o);
  if (!r.correct) {
    std::fprintf(stderr, "zbench: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perf::Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
