// Shared in-memory relational operators used by both the TaaV baseline
// executor and the KBA executor: filters, hash join, group-by aggregation,
// final projection, order-by/limit. Every operator meters the values it
// touches into QueryMetrics::compute_values.
//
// Filters, the hash-join probe, projection and aggregation each run one
// chunk body (common/thread_pool.h ParallelFor): rows split into
// contiguous chunks, each chunk evaluated with its own QueryMetrics delta,
// chunks merged back in order. A null pool (the default) runs the chunks
// in a loop on the calling thread, so rows AND counters are identical
// whatever runs the chunks. Filters, probe and projection run as one
// chunk below a row cutoff; aggregation always chunks by `workers`.
#ifndef ZIDIAN_RA_EVAL_H_
#define ZIDIAN_RA_EVAL_H_

#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "relational/expression.h"
#include "relational/relation.h"
#include "sql/query_spec.h"

namespace zidian {

/// Keeps only rows satisfying every predicate. Predicates are cloned and
/// bound to `rel`'s layout internally. Chunked on `pool` across `workers`.
Status ApplyFilters(const std::vector<ExprPtr>& predicates, Relation* rel,
                    QueryMetrics* m, ThreadPool* pool = nullptr,
                    int workers = 1);

/// Hash join on the given column-name pairs (left name, right name).
/// Output columns = left columns ++ right columns. The smaller side is
/// hashed on the calling thread; the probe side is chunked on `pool`, and
/// matches merge in probe-row order. Empty `keys` is the cartesian
/// product, left rows outer.
Result<Relation> HashJoin(
    const Relation& left, const Relation& right,
    const std::vector<std::pair<std::string, std::string>>& keys,
    QueryMetrics* m, ThreadPool* pool = nullptr, int workers = 1);

/// Relation::Project with workers copying disjoint row ranges into a
/// pre-sized output. Unmetered, like Relation::Project.
Relation ProjectParallel(const Relation& input,
                         const std::vector<std::string>& cols,
                         ThreadPool* pool, int workers);

/// Evaluates the SELECT list of a non-aggregate query.
Result<Relation> ProjectSelect(const Relation& input,
                               const std::vector<SelectItem>& items,
                               QueryMetrics* m);

/// Where one aggregate item finds its partial state in an input row that
/// already folds several rows (a block's statistics, §8.2): the column
/// indexes of its sum, count, min and max; -1 where it has none.
struct PartialColumns {
  int sum = -1;
  int count = -1;
  int min = -1;
  int max = -1;
};

/// GROUP BY + aggregates. `group_by` names must exist in `input`;
/// non-aggregate select items must be group keys. With an empty `group_by`
/// and aggregate items, produces the single global-aggregate row.
///
/// Rows are chunked by `workers` (whatever the pool: the chunking fixes
/// the floating sums' association), each chunk folds into a private hash
/// table with its own QueryMetrics delta, and the partial tables merge in
/// chunk order (sums/counts add, min/max combine, first-appearance indices
/// take the minimum). Groups are emitted in first-appearance order (the
/// input row where each group key was first seen) — a canonical order that
/// every worker count and parallel mode reproduces exactly.
///
/// With `partials` (one entry per item), each input row holds partial
/// states instead of values: an aggregate merges the state its columns
/// describe (a NULL column contributes nothing) instead of evaluating its
/// argument.
Result<Relation> GroupAggregate(
    const Relation& input, const std::vector<AttrRef>& group_by,
    const std::vector<SelectItem>& items, QueryMetrics* m,
    ThreadPool* pool = nullptr, int workers = 1,
    const std::vector<PartialColumns>* partials = nullptr);

/// ORDER BY (on output column names) then LIMIT (-1 = no limit).
Status OrderAndLimit(const std::vector<OrderKey>& order_by, int64_t limit,
                     Relation* rel);

/// Runs the post-join tail of a query: filters were already applied;
/// performs aggregation (GroupAggregate on `pool`) or projection, then
/// order/limit.
Result<Relation> FinishQuery(const Relation& joined, const QuerySpec& spec,
                             QueryMetrics* m, ThreadPool* pool = nullptr,
                             int workers = 1);

}  // namespace zidian

#endif  // ZIDIAN_RA_EVAL_H_
