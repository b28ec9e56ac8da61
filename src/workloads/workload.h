// Workload definitions for the experimental study (§9): TPC-H plus the two
// real-life-shaped datasets (UK MOT vehicle tests and US AIRCA air-carrier
// statistics). The originals are published government datasets we cannot
// ship; the generators reproduce their documented shape — table counts,
// attribute counts, Zipf-skewed foreign keys and small active domains — which
// §9 identifies as the properties driving Zidian's gains (see
// docs/ARCHITECTURE.md, "Simulator substitutions").
#ifndef ZIDIAN_WORKLOADS_WORKLOAD_H_
#define ZIDIAN_WORKLOADS_WORKLOAD_H_

#include <map>
#include <string>
#include <vector>

#include "baav/kv_schema.h"
#include "common/result.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "zidian/t2b.h"

namespace zidian {

struct WorkloadQuery {
  std::string name;          ///< e.g. "q11" / "mot-q3"
  std::string sql;
  bool expect_scan_free = false;
  bool expect_bounded = false;
};

struct Workload {
  std::string name;
  Catalog catalog;
  std::map<std::string, Relation> data;  ///< relation name -> rows
  BaavSchema baav;                       ///< derived via T2B from the queries
  std::vector<WorkloadQuery> queries;

  uint64_t TotalRows() const {
    uint64_t n = 0;
    for (const auto& [name_, rel] : data) n += rel.size();
    return n;
  }
};

/// TPC-H dbgen-style generator. `sf` scales row counts linearly; sf = 1
/// produces ~8.7k rows across the 8 tables (ratios as in the spec: lineitem
/// dominates). Uniform value distributions, as the benchmark mandates.
Result<Workload> MakeTpch(double sf, uint64_t seed = 42);

/// UK MOT shape: 3 tables, 42 attributes, Zipf-skewed makes/models/regions
/// and small active domains. `scale` multiplies row counts.
Result<Workload> MakeMot(double scale, uint64_t seed = 43);

/// US air-carrier shape: 7 tables, 358 attributes (wide fact tables),
/// skewed carriers/airports. `scale` multiplies row counts.
Result<Workload> MakeAirca(double scale, uint64_t seed = 44);

/// Derives the workload's BaaV schema by running T2B over the QCS extracted
/// from all its queries (the §9 methodology; budget defaults to 3.5x data).
Status DeriveBaavSchema(Workload* w, double budget_multiplier = 3.5);

}  // namespace zidian

#endif  // ZIDIAN_WORKLOADS_WORKLOAD_H_
