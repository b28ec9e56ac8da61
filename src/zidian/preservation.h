// Module M1 (§5.2): preservation checks.
//
//  * clo(~R, ~R): the attribute closure of a KV schema within the KV schemas
//    of its relation — start from att(~R) and add att(~R') whenever the key
//    of ~R' is already contained (Condition I's inductive definition). The
//    paper's rule (2) chases pk(~R'); we chase the declared primary key when
//    present and the key attributes X otherwise, which keeps every closure
//    step executable as an extension ∝ (docs/ARCHITECTURE.md, "Simulator
//    substitutions").
//
//  * Condition I — data preservability: every relation R has a KV schema
//    whose closure equals att(R). Sufficient and necessary (Theorem 1).
//
//  * Condition II — result preservability for an SPC query Q: every relation
//    in min(Q) has a KV schema whose closure contains X^{min(Q)}_R
//    (Theorem 2). Extended to RA_aggr queries through their unique max SPC
//    sub-query (Theorem 3).
#ifndef ZIDIAN_ZIDIAN_PRESERVATION_H_
#define ZIDIAN_ZIDIAN_PRESERVATION_H_

#include <set>
#include <string>

#include "baav/kv_schema.h"
#include "common/result.h"
#include "ra/spc.h"
#include "relational/schema.h"
#include "sql/query_spec.h"

namespace zidian {

/// clo(~start, schemas of the same relation in `all`).
std::set<std::string> Closure(const KvSchema& start, const BaavSchema& all);

struct PreservationReport {
  bool preserving = false;
  std::string detail;  ///< which relation/alias failed and why
};

/// Condition I: is `baav` data preserving for every relation in `catalog`?
PreservationReport CheckDataPreserving(const Catalog& catalog,
                                       const BaavSchema& baav);

/// Condition II on an already-minimized SPC core.
PreservationReport CheckResultPreserving(const MinimizedSPC& min_spc,
                                         const BaavSchema& baav);

/// Convenience: minimize the SPC core of `spec`, then apply Condition II
/// (the Theorem 3 route for RA_aggr queries in our SQL subset, whose SPC
/// core is the unique max SPC sub-query).
Result<PreservationReport> CheckResultPreserving(const QuerySpec& spec,
                                                 const Catalog& catalog,
                                                 const BaavSchema& baav);

}  // namespace zidian

#endif  // ZIDIAN_ZIDIAN_PRESERVATION_H_
