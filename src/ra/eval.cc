#include "ra/eval.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace zidian {

namespace {

/// Below this many rows a parallel region costs more in task hand-off
/// than it saves, so filters, probes and projections run it as one chunk.
/// Counters are chunk-order-merged either way, so the cutoff can never
/// change a result or a metric.
constexpr size_t kParallelRowCutoff = 512;

/// The chunk count of a region over `rows` rows whose result does not
/// depend on its chunking.
size_t Chunks(ThreadPool* pool, int workers, size_t rows) {
  return pool != nullptr && workers > 1 && rows >= kParallelRowCutoff
             ? static_cast<size_t>(workers)
             : 1;
}

}  // namespace

Status ApplyFilters(const std::vector<ExprPtr>& predicates, Relation* rel,
                    QueryMetrics* m, ThreadPool* pool, int workers) {
  if (predicates.empty()) return Status::OK();
  std::vector<ExprPtr> bound;
  bound.reserve(predicates.size());
  for (const auto& p : predicates) {
    ExprPtr c = p->Clone();
    ZIDIAN_RETURN_NOT_OK(c->BindIndices(rel->columns()));
    bound.push_back(std::move(c));
  }
  auto& rows = rel->rows();

  // Chunk-per-worker evaluation into a keep-mask: EvalBool is const on a
  // bound tree, so every chunk shares the same predicates read-only; each
  // chunk meters the predicates it actually evaluated (the short-circuit
  // is per row, so chunk sums equal the one-chunk total).
  const size_t p = Chunks(pool, workers, rows.size());
  std::vector<uint8_t> keep(rows.size(), 0);
  std::vector<QueryMetrics> deltas(p);
  ParallelFor(pool, p, [&](size_t w) {
    auto [begin, end] = ChunkRange(rows.size(), w, p);
    QueryMetrics& wm = deltas[w];
    for (size_t i = begin; i < end; ++i) {
      bool pass = true;
      for (const auto& pred : bound) {
        wm.compute_values += 1;
        if (!pred->EvalBool(rows[i])) {
          pass = false;
          break;
        }
      }
      keep[i] = pass ? 1 : 0;
    }
  });
  if (m != nullptr) {
    for (const auto& d : deltas) *m += d;
  }
  size_t kept = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!keep[i]) continue;
    if (kept != i) rows[kept] = std::move(rows[i]);  // avoid self-move
    ++kept;
  }
  rows.resize(kept);
  return Status::OK();
}

Result<Relation> HashJoin(
    const Relation& left, const Relation& right,
    const std::vector<std::pair<std::string, std::string>>& keys,
    QueryMetrics* m, ThreadPool* pool, int workers) {
  std::vector<int> lidx, ridx;
  for (const auto& [l, r] : keys) {
    int li = left.ColumnIndex(l), ri = right.ColumnIndex(r);
    if (li < 0) return Status::InvalidArgument("join column missing: " + l);
    if (ri < 0) return Status::InvalidArgument("join column missing: " + r);
    lidx.push_back(li);
    ridx.push_back(ri);
  }

  std::vector<std::string> out_cols = left.columns();
  out_cols.insert(out_cols.end(), right.columns().begin(),
                  right.columns().end());
  Relation out(std::move(out_cols));

  // Build on the smaller side. Without keys (a disconnected join graph)
  // every row shares the empty key, so the probe emits the cartesian
  // product; building on the right keeps the left rows outer.
  const bool build_left = !keys.empty() && left.size() <= right.size();
  const Relation& build = build_left ? left : right;
  const Relation& probe = build_left ? right : left;
  const std::vector<int>& bidx = build_left ? lidx : ridx;
  const std::vector<int>& pidx = build_left ? ridx : lidx;

  auto key_of = [](const Tuple& row, const std::vector<int>& idx) {
    Tuple k;
    k.reserve(idx.size());
    for (int i : idx) k.push_back(row[static_cast<size_t>(i)]);
    return k;
  };

  std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHasher> table;
  table.reserve(build.size());
  for (const auto& row : build.rows()) {
    if (m != nullptr) m->compute_values += bidx.size();
    table[key_of(row, bidx)].push_back(&row);
  }

  // Probe chunks against the (now read-only) build table; each chunk
  // collects its matches and metric delta privately, then chunks merge in
  // order — the probe-row order of the output.
  const size_t p = Chunks(pool, workers, probe.size());
  std::vector<std::vector<Tuple>> partial(p);
  std::vector<QueryMetrics> deltas(p);
  ParallelFor(pool, p, [&](size_t w) {
    auto [begin, end] = ChunkRange(probe.size(), w, p);
    QueryMetrics& wm = deltas[w];
    for (size_t i = begin; i < end; ++i) {
      const Tuple& row = probe.rows()[i];
      wm.compute_values += pidx.size();
      auto it = table.find(key_of(row, pidx));
      if (it == table.end()) continue;
      for (const Tuple* match : it->second) {
        const Tuple& lr = build_left ? *match : row;
        const Tuple& rr = build_left ? row : *match;
        Tuple t = lr;
        t.insert(t.end(), rr.begin(), rr.end());
        wm.compute_values += t.size();
        partial[w].push_back(std::move(t));
      }
    }
  });
  std::vector<Tuple>& rows = out.rows();
  for (size_t w = 0; w < p; ++w) {
    if (m != nullptr) *m += deltas[w];
    rows.insert(rows.end(), std::make_move_iterator(partial[w].begin()),
                std::make_move_iterator(partial[w].end()));
  }
  return out;
}

Relation ProjectParallel(const Relation& input,
                         const std::vector<std::string>& cols,
                         ThreadPool* pool, int workers) {
  Relation out(cols);
  std::vector<int> idx;
  idx.reserve(cols.size());
  for (const auto& c : cols) {
    int i = input.ColumnIndex(c);
    assert(i >= 0 && "projection column missing");
    idx.push_back(i);
  }
  out.rows().resize(input.size());
  const size_t p = Chunks(pool, workers, input.size());
  ParallelFor(pool, p, [&](size_t w) {
    auto [begin, end] = ChunkRange(input.size(), w, p);
    for (size_t i = begin; i < end; ++i) {
      const Tuple& row = input.rows()[i];
      Tuple t;
      t.reserve(idx.size());
      for (int c : idx) t.push_back(row[static_cast<size_t>(c)]);
      out.rows()[i] = std::move(t);
    }
  });
  return out;
}

Result<Relation> ProjectSelect(const Relation& input,
                               const std::vector<SelectItem>& items,
                               QueryMetrics* m) {
  std::vector<std::string> cols;
  std::vector<ExprPtr> bound;
  for (const auto& item : items) {
    assert(item.agg == AggFn::kNone);
    cols.push_back(item.output_name);
    ExprPtr c = item.expr->Clone();
    ZIDIAN_RETURN_NOT_OK(c->BindIndices(input.columns()));
    bound.push_back(std::move(c));
  }
  Relation out(std::move(cols));
  out.rows().reserve(input.size());
  for (const auto& row : input.rows()) {
    Tuple t;
    t.reserve(bound.size());
    for (const auto& e : bound) {
      if (m != nullptr) m->compute_values += 1;
      t.push_back(e->Eval(row));
    }
    out.Add(std::move(t));
  }
  return out;
}

namespace {

/// One aggregate's running state over the rows folded so far.
struct AggState {
  double sum = 0;
  uint64_t count = 0;
  bool any = false;  ///< a non-NULL value reached `sum` (SUM's NULL test)
  Value min, max;    ///< NULL until a non-NULL value arrives

  void Feed(const Value& v) {
    if (v.is_null()) return;
    if (min.is_null() || v < min) min = v;
    if (max.is_null() || max < v) max = v;
    if (v.IsNumeric()) sum += v.Numeric();
    any = true;
    ++count;
  }

  /// The state of rows folded elsewhere, read from `row` at `cols`; a NULL
  /// or absent column contributes nothing.
  static AggState FromPartial(const Tuple& row, const PartialColumns& cols) {
    auto at = [&row](int c) -> const Value* {
      if (c < 0 || row[static_cast<size_t>(c)].is_null()) return nullptr;
      return &row[static_cast<size_t>(c)];
    };
    AggState s;
    if (const Value* v = at(cols.sum)) {
      s.sum = v->Numeric();
      s.any = true;
    }
    if (const Value* v = at(cols.count)) {
      s.count = static_cast<uint64_t>(v->Numeric());
    }
    if (const Value* v = at(cols.min)) s.min = *v;
    if (const Value* v = at(cols.max)) s.max = *v;
    return s;
  }

  /// Combines another state into this one. All combine rules are
  /// order-independent except the floating sum, whose association is
  /// fixed by the chunking — which depends only on `workers`, never on
  /// scheduling, so both parallel modes agree.
  void Merge(const AggState& o) {
    if (!o.min.is_null() && (min.is_null() || o.min < min)) min = o.min;
    if (!o.max.is_null() && (max.is_null() || max < o.max)) max = o.max;
    any = any || o.any;
    sum += o.sum;
    count += o.count;
  }

  Value Finish(AggFn fn) const {
    switch (fn) {
      case AggFn::kSum:
        return any ? Value(sum) : Value::Null();
      case AggFn::kCount:
        return Value(static_cast<int64_t>(count));
      case AggFn::kAvg:
        return count > 0 ? Value(sum / static_cast<double>(count))
                         : Value::Null();
      case AggFn::kMin:
        return min;
      case AggFn::kMax:
        return max;
      case AggFn::kNone:
        break;
    }
    return Value::Null();
  }
};

}  // namespace

Result<Relation> GroupAggregate(const Relation& input,
                                const std::vector<AttrRef>& group_by,
                                const std::vector<SelectItem>& items,
                                QueryMetrics* m, ThreadPool* pool,
                                int workers,
                                const std::vector<PartialColumns>* partials) {
  const size_t num_cols = input.columns().size();
  if (partials != nullptr && partials->size() != items.size()) {
    return Status::InvalidArgument("one partial-state mapping per item");
  }
  std::vector<int> gidx;
  for (const auto& g : group_by) {
    int i = input.ColumnIndex(g.Qualified());
    if (i < 0) return Status::InvalidArgument("group key missing: " + g.Qualified());
    gidx.push_back(i);
  }
  // Bind aggregate argument expressions (COUNT(*) has none), or take the
  // item's partial-state columns.
  struct BoundItem {
    AggFn agg;
    ExprPtr expr;        // bound; null for COUNT(*) / plain group key
    int group_pos = -1;  // for plain items: index into group_by
    PartialColumns cols;
  };
  std::vector<BoundItem> bound;
  std::vector<std::string> out_cols;
  for (size_t n = 0; n < items.size(); ++n) {
    const SelectItem& item = items[n];
    BoundItem b{item.agg, nullptr, -1, {}};
    out_cols.push_back(item.output_name);
    if (item.agg == AggFn::kNone) {
      // Must be one of the group keys.
      if (!item.expr || item.expr->kind != ExprKind::kColumn) {
        return Status::NotSupported("non-column select with aggregates");
      }
      AttrRef ref{item.expr->alias, item.expr->column};
      for (size_t g = 0; g < group_by.size(); ++g) {
        if (group_by[g] == ref) b.group_pos = static_cast<int>(g);
      }
      if (b.group_pos < 0) {
        return Status::InvalidArgument("select column not grouped: " +
                                       ref.Qualified());
      }
    } else if (partials != nullptr) {
      b.cols = (*partials)[n];
      for (int c : {b.cols.sum, b.cols.count, b.cols.min, b.cols.max}) {
        if (c >= static_cast<int>(num_cols)) {
          return Status::InvalidArgument("partial-state column out of range");
        }
      }
    } else if (item.expr) {
      b.expr = item.expr->Clone();
      ZIDIAN_RETURN_NOT_OK(b.expr->BindIndices(input.columns()));
    }
    bound.push_back(std::move(b));
  }

  // Accumulate chunk-per-worker: each chunk folds its contiguous row range
  // into a private hash table, remembering where each group first
  // appeared. The chunking is a function of `workers` alone (never of
  // scheduling or the pool), so a simulated run and a threaded run at the
  // same worker count build bit-identical partials.
  size_t num_aggs = 0;
  for (const auto& b : bound) {
    if (b.agg != AggFn::kNone) ++num_aggs;
  }
  struct Group {
    size_t first_row;  // global index of the group's first appearance
    std::vector<AggState> states;
  };
  using GroupMap = std::unordered_map<Tuple, Group, TupleHasher>;
  const size_t p = static_cast<size_t>(std::max(1, workers));
  std::vector<GroupMap> partial(p);
  std::vector<QueryMetrics> deltas(p);
  std::vector<Status> statuses(p, Status::OK());
  auto accumulate = [&](size_t w) {
    auto [begin, end] = ChunkRange(input.size(), w, p);
    GroupMap& groups = partial[w];
    QueryMetrics& wm = deltas[w];
    for (size_t r = begin; r < end; ++r) {
      const Tuple& row = input.rows()[r];
      if (row.size() != num_cols) {
        statuses[w] = Status::Internal(
            "malformed relation: row arity " + std::to_string(row.size()) +
            " vs " + std::to_string(num_cols) + " columns");
        return;
      }
      Tuple key;
      key.reserve(gidx.size());
      for (int i : gidx) key.push_back(row[static_cast<size_t>(i)]);
      auto [it, inserted] =
          groups.emplace(std::move(key), Group{r, std::vector<AggState>(num_aggs)});
      (void)inserted;
      size_t slot = 0;
      for (const auto& b : bound) {
        if (b.agg == AggFn::kNone) continue;
        wm.compute_values += 1;
        AggState& state = it->second.states[slot++];
        if (partials != nullptr) {
          state.Merge(AggState::FromPartial(row, b.cols));
        } else if (!b.expr) {  // COUNT(*)
          state.Feed(Value(static_cast<int64_t>(1)));
        } else {
          state.Feed(b.expr->Eval(row));
        }
      }
    }
  };
  ParallelFor(input.size() >= kParallelRowCutoff ? pool : nullptr, p,
              accumulate);
  for (size_t w = 0; w < p; ++w) {
    ZIDIAN_RETURN_NOT_OK(statuses[w]);
    if (m != nullptr) *m += deltas[w];
  }

  // Merge partials in worker-index order (deterministic whatever the
  // scheduler did): aggregate states combine via AggState::Merge, the
  // first-appearance index takes the minimum.
  GroupMap merged = std::move(partial[0]);
  for (size_t w = 1; w < p; ++w) {
    for (auto& entry : partial[w]) {
      auto it = merged.find(entry.first);
      if (it == merged.end()) {
        merged.emplace(entry.first, std::move(entry.second));
        continue;
      }
      Group& g = it->second;
      g.first_row = std::min(g.first_row, entry.second.first_row);
      for (size_t s = 0; s < num_aggs; ++s) {
        g.states[s].Merge(entry.second.states[s]);
      }
    }
  }
  // Global aggregate over empty input still yields one row.
  if (merged.empty() && group_by.empty()) {
    merged.emplace(Tuple{}, Group{0, std::vector<AggState>(num_aggs)});
  }

  // Emit in first-appearance order — canonical across modes AND worker
  // counts (hash-map iteration order would be neither).
  std::vector<const std::pair<const Tuple, Group>*> ordered;
  ordered.reserve(merged.size());
  for (const auto& entry : merged) ordered.push_back(&entry);
  std::sort(ordered.begin(), ordered.end(), [](const auto* a, const auto* b) {
    return a->second.first_row < b->second.first_row;
  });

  Relation out(std::move(out_cols));
  for (const auto* entry : ordered) {
    const Tuple& key = entry->first;
    const std::vector<AggState>& states = entry->second.states;
    Tuple t;
    t.reserve(bound.size());
    size_t slot = 0;
    for (const auto& b : bound) {
      if (b.agg == AggFn::kNone) {
        t.push_back(key[static_cast<size_t>(b.group_pos)]);
      } else {
        t.push_back(states[slot].Finish(b.agg));
        ++slot;
      }
    }
    out.Add(std::move(t));
  }
  return out;
}

Status OrderAndLimit(const std::vector<OrderKey>& order_by, int64_t limit,
                     Relation* rel) {
  if (!order_by.empty()) {
    std::vector<std::pair<int, bool>> keys;
    for (const auto& k : order_by) {
      int i = rel->ColumnIndex(k.output_name);
      if (i < 0) {
        return Status::InvalidArgument("order key missing: " + k.output_name);
      }
      keys.emplace_back(i, k.ascending);
    }
    std::stable_sort(rel->rows().begin(), rel->rows().end(),
                     [&](const Tuple& a, const Tuple& b) {
                       for (const auto& [i, asc] : keys) {
                         int c = a[static_cast<size_t>(i)].Compare(
                             b[static_cast<size_t>(i)]);
                         if (c != 0) return asc ? c < 0 : c > 0;
                       }
                       return false;
                     });
  }
  if (limit >= 0 && rel->size() > static_cast<size_t>(limit)) {
    rel->rows().resize(static_cast<size_t>(limit));
  }
  return Status::OK();
}

Result<Relation> FinishQuery(const Relation& joined, const QuerySpec& spec,
                             QueryMetrics* m, ThreadPool* pool, int workers) {
  Relation out;
  if (spec.HasAggregates()) {
    ZIDIAN_ASSIGN_OR_RETURN(out,
                            GroupAggregate(joined, spec.group_by,
                                           spec.select_items, m, pool, workers));
  } else if (!spec.group_by.empty()) {
    // GROUP BY without aggregates == DISTINCT over the keys.
    ZIDIAN_ASSIGN_OR_RETURN(out,
                            ProjectSelect(joined, spec.select_items, m));
    out.Dedup();
  } else {
    ZIDIAN_ASSIGN_OR_RETURN(out,
                            ProjectSelect(joined, spec.select_items, m));
  }
  ZIDIAN_RETURN_NOT_OK(OrderAndLimit(spec.order_by, spec.limit, &out));
  return out;
}

}  // namespace zidian
