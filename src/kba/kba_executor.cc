#include "kba/kba_executor.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <unordered_map>

#include "kba/makespan.h"
#include "ra/eval.h"

namespace zidian {

namespace {

std::vector<std::string> QualifyAll(const std::string& alias,
                                    const std::vector<std::string>& attrs) {
  std::vector<std::string> out;
  out.reserve(attrs.size());
  for (const auto& a : attrs) out.push_back(alias + "." + a);
  return out;
}

/// Where each aggregate of a stats-pushdown GroupAgg finds its partial
/// state among the columns a stats-only extension emits (EmitExtension):
/// COUNT(*) in #rows, any other aggregate in its argument's
/// #sum/#count/#min/#max.
Result<std::vector<PartialColumns>> StatsPartialColumns(const KbaPlan& plan,
                                                        const Relation& rel) {
  int rows_col = -1;
  for (size_t i = 0; i < rel.columns().size(); ++i) {
    if (rel.columns()[i].ends_with(kStatsRowsCol)) {
      rows_col = static_cast<int>(i);
    }
  }
  std::vector<PartialColumns> out;
  for (const auto& item : plan.agg_items) {
    PartialColumns& cols = out.emplace_back();
    if (item.agg == AggFn::kNone) continue;
    if (!item.expr) {  // COUNT(*)
      if (rows_col < 0) {
        return Status::InvalidArgument("no #rows column for COUNT(*)");
      }
      cols.count = rows_col;
      continue;
    }
    if (item.expr->kind != ExprKind::kColumn) {
      return Status::NotSupported("stats aggregation needs plain columns");
    }
    const std::string base = item.expr->QualifiedName();
    auto at = [&](std::string_view suffix) {
      return rel.ColumnIndex(base + std::string(suffix));
    };
    cols = {at(kStatsSumSuffix), at(kStatsCountSuffix), at(kStatsMinSuffix),
            at(kStatsMaxSuffix)};
    if (cols.sum < 0 || cols.count < 0 || cols.min < 0 || cols.max < 0) {
      return Status::InvalidArgument("missing stats column for " + base);
    }
  }
  return out;
}

/// Seconds elapsed since `start` on the monotonic clock.
double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

Result<KvInst> KbaExecutor::Execute(const KbaPlan& plan,
                                    const KbaExecOptions& opts,
                                    QueryMetrics* m) const {
  KbaExecOptions ctx = opts;
  ctx.workers = std::max(1, opts.workers);
  ZIDIAN_ASSIGN_OR_RETURN(KvInst out, Eval(plan, ctx, m));
  // Scans and compute are spread evenly under the no-skew assumption;
  // fetch rounds recorded their true per-worker maxima inside Eval.
  SpreadMakespans(ctx.workers, m);
  return out;
}

Result<KvInst> KbaExecutor::Eval(const KbaPlan& plan, const KbaExecOptions& ctx,
                                 QueryMetrics* m) const {
  const int workers = ctx.workers;
  switch (plan.op) {
    case KbaOp::kConst:
      return plan.const_inst;

    case KbaOp::kInstanceScan: {
      const KvSchema* kv = store_->schema().Find(plan.kv_name);
      if (kv == nullptr) return Status::NotFound("kv " + plan.kv_name);
      KvInst out;
      out.key_cols = QualifyAll(plan.alias, kv->key_attrs);
      out.value_cols = QualifyAll(plan.alias, kv->value_attrs);
      out.rel = Relation(out.AllCols());
      auto start = std::chrono::steady_clock::now();
      ZIDIAN_RETURN_NOT_OK(store_->ScanInstance(
          *kv, m,
          [&](const Tuple& key, const std::vector<Tuple>& rows) {
            for (const auto& y : rows) {
              Tuple t = key;
              t.insert(t.end(), y.begin(), y.end());
              out.rel.Add(std::move(t));
            }
          },
          ctx.pool, workers));
      if (m != nullptr) m->wall_fetch_seconds += SecondsSince(start);
      return out;
    }

    case KbaOp::kExtend:
      return EvalExtends(plan, ctx, m);

    case KbaOp::kShift: {
      ZIDIAN_ASSIGN_OR_RETURN(KvInst in, Eval(*plan.children[0], ctx, m));
      // Re-keying redistributes blocks: charge a repartition.
      ChargeShuffleBytes(in.rel.ByteSize(), workers, m);
      std::vector<std::string> rest;
      for (const auto& c : in.AllCols()) {
        if (std::find(plan.new_key.begin(), plan.new_key.end(), c) ==
            plan.new_key.end()) {
          rest.push_back(c);
        }
      }
      std::vector<std::string> order = plan.new_key;
      order.insert(order.end(), rest.begin(), rest.end());
      KvInst out;
      out.key_cols = plan.new_key;
      out.value_cols = rest;
      auto start = std::chrono::steady_clock::now();
      out.rel = ProjectParallel(in.rel, order, ctx.pool, workers);
      if (m != nullptr) m->wall_compute_seconds += SecondsSince(start);
      return out;
    }

    case KbaOp::kSelect: {
      ZIDIAN_ASSIGN_OR_RETURN(KvInst in, Eval(*plan.children[0], ctx, m));
      auto start = std::chrono::steady_clock::now();
      ZIDIAN_RETURN_NOT_OK(
          ApplyFilters(plan.predicates, &in.rel, m, ctx.pool, workers));
      if (m != nullptr) m->wall_compute_seconds += SecondsSince(start);
      return in;
    }

    case KbaOp::kProject: {
      ZIDIAN_ASSIGN_OR_RETURN(KvInst in, Eval(*plan.children[0], ctx, m));
      KvInst out;
      out.key_cols = plan.new_key;
      for (const auto& c : plan.project_cols) {
        if (std::find(plan.new_key.begin(), plan.new_key.end(), c) ==
            plan.new_key.end()) {
          out.value_cols.push_back(c);
        }
      }
      auto start = std::chrono::steady_clock::now();
      out.rel = ProjectParallel(in.rel, plan.project_cols, ctx.pool, workers);
      if (m != nullptr) {
        m->wall_compute_seconds += SecondsSince(start);
        m->compute_values += out.rel.ValueCount();
      }
      return out;
    }

    case KbaOp::kJoin: {
      ZIDIAN_ASSIGN_OR_RETURN(KvInst l, Eval(*plan.children[0], ctx, m));
      ZIDIAN_ASSIGN_OR_RETURN(KvInst r, Eval(*plan.children[1], ctx, m));
      ChargeShuffleBytes(l.rel.ByteSize(), workers, m);
      ChargeShuffleBytes(r.rel.ByteSize(), workers, m);
      auto start = std::chrono::steady_clock::now();
      ZIDIAN_ASSIGN_OR_RETURN(
          Relation joined,
          HashJoin(l.rel, r.rel, plan.join_pairs, m, ctx.pool, workers));
      if (m != nullptr) m->wall_compute_seconds += SecondsSince(start);
      // Deduplicate repeated column names (a column may flow in from both
      // sides); keep the first occurrence.
      std::vector<std::string> unique_cols;
      std::set<std::string> seen;
      for (const auto& c : joined.columns()) {
        if (seen.insert(c).second) unique_cols.push_back(c);
      }
      KvInst out;
      for (const auto& c : l.key_cols) {
        if (seen.count(c)) out.key_cols.push_back(c);
      }
      for (const auto& c : r.key_cols) {
        if (seen.count(c) && std::find(out.key_cols.begin(),
                                       out.key_cols.end(),
                                       c) == out.key_cols.end()) {
          out.key_cols.push_back(c);
        }
      }
      for (const auto& c : unique_cols) {
        if (std::find(out.key_cols.begin(), out.key_cols.end(), c) ==
            out.key_cols.end()) {
          out.value_cols.push_back(c);
        }
      }
      std::vector<std::string> order = out.key_cols;
      order.insert(order.end(), out.value_cols.begin(), out.value_cols.end());
      out.rel = joined.Project(order);
      return out;
    }

    case KbaOp::kGroupAgg: {
      ZIDIAN_ASSIGN_OR_RETURN(KvInst in, Eval(*plan.children[0], ctx, m));
      // Under stats pushdown (§8.2) each input row is one block's partial
      // statistics, already with its key: the fold merges the partials and
      // charges no shuffle.
      std::vector<PartialColumns> partials;
      if (plan.from_stats) {
        ZIDIAN_ASSIGN_OR_RETURN(partials, StatsPartialColumns(plan, in.rel));
      } else {
        ChargeShuffleBytes(in.rel.ByteSize(), workers, m);
      }
      auto start = std::chrono::steady_clock::now();
      ZIDIAN_ASSIGN_OR_RETURN(
          Relation out_rel,
          GroupAggregate(in.rel, plan.group_by, plan.agg_items, m, ctx.pool,
                         workers, plan.from_stats ? &partials : nullptr));
      if (m != nullptr) m->wall_compute_seconds += SecondsSince(start);
      // GroupAggregate labels group keys with their output names.
      KvInst out;
      for (const auto& item : plan.agg_items) {
        if (item.agg == AggFn::kNone) out.key_cols.push_back(item.output_name);
      }
      for (const auto& c : out_rel.columns()) {
        if (std::find(out.key_cols.begin(), out.key_cols.end(), c) ==
            out.key_cols.end()) {
          out.value_cols.push_back(c);
        }
      }
      out.rel = std::move(out_rel);
      return out;
    }

    case KbaOp::kUnion:
    case KbaOp::kDiff: {
      ZIDIAN_ASSIGN_OR_RETURN(KvInst l, Eval(*plan.children[0], ctx, m));
      ZIDIAN_ASSIGN_OR_RETURN(KvInst r, Eval(*plan.children[1], ctx, m));
      // Align the right side to the left layout (↑ has already matched key
      // attributes when the plan was formed).
      for (const auto& c : l.AllCols()) {
        if (r.rel.ColumnIndex(c) < 0) {
          return Status::InvalidArgument("union/diff schema mismatch: " + c);
        }
      }
      Relation right_aligned = r.rel.Project(l.AllCols());
      KvInst out = std::move(l);
      if (plan.op == KbaOp::kUnion) {
        for (auto& row : right_aligned.rows()) {
          out.rel.Add(std::move(row));
        }
        out.rel.Dedup();
      } else {
        std::set<std::string> right_rows;
        for (const auto& row : right_aligned.rows()) {
          std::string enc;
          EncodeTuplePayload(row, &enc);
          right_rows.insert(std::move(enc));
        }
        auto& rows = out.rel.rows();
        size_t kept = 0;
        for (size_t i = 0; i < rows.size(); ++i) {
          std::string enc;
          EncodeTuplePayload(rows[i], &enc);
          if (right_rows.count(enc)) continue;
          if (kept != i) rows[kept] = std::move(rows[i]);  // avoid self-move
          ++kept;
        }
        rows.resize(kept);
        out.rel.Dedup();
      }
      if (m != nullptr) m->compute_values += out.rel.ValueCount();
      return out;
    }
  }
  return Status::Internal("unknown KBA op");
}

namespace {

/// One extension of a fetch round: its target instance, the child columns
/// binding the target's key (in X order), and its fetched blocks by key.
struct RoundNode {
  const KbaPlan* plan = nullptr;
  const KvSchema* kv = nullptr;
  std::vector<std::string> key_cols;
  struct Block {
    size_t worker = 0;  ///< the worker owning the block's storage node
    /// Y tuples, or for a stats-only extension one row of partial
    /// statistics (none when the block is absent or unreachable).
    std::vector<Tuple> rows;
    /// kUnavailable when no replica served the block: the round fails
    /// only if an emit needs it.
    Status status;
  };
  /// One block per distinct key in the round's input.
  std::unordered_map<Tuple, Block, TupleHasher> blocks;
};

/// Validates an extension's bindings and returns the child columns that
/// bind the target's key attributes, in X order.
Result<std::vector<std::string>> KeyColumns(const KbaPlan& plan,
                                            const KvSchema& kv) {
  if (plan.key_bindings.size() != kv.key_attrs.size()) {
    return Status::InvalidArgument("extend bindings must cover X of " +
                                   kv.name);
  }
  std::vector<std::string> cols(kv.key_attrs.size());
  for (const auto& [child_col, key_attr] : plan.key_bindings) {
    for (size_t k = 0; k < kv.key_attrs.size(); ++k) {
      if (kv.key_attrs[k] == key_attr) cols[k] = child_col;
    }
  }
  for (size_t k = 0; k < cols.size(); ++k) {
    if (cols[k].empty()) {
      return Status::InvalidArgument("extend key attr unbound: " +
                                     kv.key_attrs[k]);
    }
  }
  return cols;
}

/// Where `cols` sit in `rel`.
Result<std::vector<size_t>> ColumnIndexes(
    const Relation& rel, const std::vector<std::string>& cols) {
  std::vector<size_t> idx;
  idx.reserve(cols.size());
  for (const auto& c : cols) {
    int ci = rel.ColumnIndex(c);
    if (ci < 0) {
      return Status::InvalidArgument("extend child column missing: " + c);
    }
    idx.push_back(static_cast<size_t>(ci));
  }
  return idx;
}

/// The values of `row` at `idx`: an extension's key for one child row.
Tuple KeyOf(const Tuple& row, const std::vector<size_t>& idx) {
  Tuple key;
  key.reserve(idx.size());
  for (size_t i : idx) key.push_back(row[i]);
  return key;
}

/// Which Y columns of `kv` its relation declares INT.
Result<std::vector<bool>> IntColumns(const Catalog& catalog,
                                     const KvSchema& kv) {
  const TableSchema* rel = catalog.Find(kv.relation);
  if (rel == nullptr) return Status::NotFound("table " + kv.relation);
  std::vector<bool> out;
  out.reserve(kv.value_attrs.size());
  for (const auto& y : kv.value_attrs) {
    int i = rel->ColumnIndex(y);
    out.push_back(i >= 0 && rel->columns()[static_cast<size_t>(i)].type ==
                                ValueType::kInt);
  }
  return out;
}

/// A block's partial statistics as the one row a stats-only extension
/// emits after the key: #rows, then #count/#min/#max/#sum per Y column.
/// Block headers keep every statistic as a double; MIN and MAX of an INT
/// column (`int_cols`) come back as INT, as the other routes return them.
std::vector<Tuple> StatsRows(const BlockStats& stats,
                             const std::vector<bool>& int_cols) {
  if (stats.row_count == 0) return {};
  Tuple row{Value(static_cast<int64_t>(stats.row_count))};
  for (size_t c = 0; c < stats.columns.size(); ++c) {
    const BlockColumnStats& col = stats.columns[c];
    auto extreme = [&](double v) {
      if (!col.numeric) return Value::Null();
      return int_cols[c] ? Value(static_cast<int64_t>(v)) : Value(v);
    };
    row.push_back(Value(static_cast<int64_t>(col.count)));
    row.push_back(extreme(col.min));
    row.push_back(extreme(col.max));
    row.push_back(col.numeric ? Value(col.sum) : Value::Null());
  }
  return {std::move(row)};
}

/// One extension's emit (∝ after its round's fetch): every row of `child`
/// joined with each fetched tuple of its key's block. Each worker emits
/// the keys whose blocks it fetched into its own slot, reading only
/// shared-immutable state; slots concatenate in worker order, whatever
/// the scheduler did.
Result<KvInst> EmitExtension(const RoundNode& node, const KvInst& child,
                             ThreadPool* pool, size_t workers,
                             QueryMetrics* m) {
  const KbaPlan& plan = *node.plan;
  const KvSchema& kv = *node.kv;
  KvInst out;
  out.key_cols = child.AllCols();
  std::vector<std::string> new_cols = QualifyAll(plan.alias, kv.key_attrs);
  if (plan.stats_only) {
    const std::string a = plan.alias + ".";
    new_cols.push_back(a + std::string(kStatsRowsCol));
    for (const auto& y : kv.value_attrs) {
      new_cols.push_back(a + y + std::string(kStatsCountSuffix));
      new_cols.push_back(a + y + std::string(kStatsMinSuffix));
      new_cols.push_back(a + y + std::string(kStatsMaxSuffix));
      new_cols.push_back(a + y + std::string(kStatsSumSuffix));
    }
  } else {
    auto y_cols = QualifyAll(plan.alias, kv.value_attrs);
    new_cols.insert(new_cols.end(), y_cols.begin(), y_cols.end());
  }
  // Columns that already flowed in are not duplicated; instead the fetched
  // value must *equal* the existing one (this aligns a re-fetch of an
  // alias through a second KV schema — a lossless self-join on the shared
  // attributes, including the primary key the planner guaranteed).
  std::set<std::string> existing(out.key_cols.begin(), out.key_cols.end());
  std::vector<size_t> kept_pos;
  std::vector<std::pair<size_t, int>> dup_checks;  // (fetched pos, child col)
  for (size_t i = 0; i < new_cols.size(); ++i) {
    if (existing.count(new_cols[i]) == 0) {
      kept_pos.push_back(i);
      out.value_cols.push_back(new_cols[i]);
      continue;
    }
    int ci = child.rel.ColumnIndex(new_cols[i]);
    if (ci >= 0) dup_checks.emplace_back(i, ci);
  }
  out.rel = Relation(out.AllCols());

  // Child rows by key; each key goes to the worker that fetched its block,
  // in the order of this hash map (filled in row order).
  ZIDIAN_ASSIGN_OR_RETURN(std::vector<size_t> idx,
                          ColumnIndexes(child.rel, node.key_cols));
  std::unordered_map<Tuple, std::vector<size_t>, TupleHasher> by_key;
  for (size_t r = 0; r < child.rel.rows().size(); ++r) {
    by_key[KeyOf(child.rel.rows()[r], idx)].push_back(r);
  }
  struct Item {
    const Tuple* key;
    const std::vector<size_t>* row_ids;
    const std::vector<Tuple>* rows;
  };
  std::vector<std::vector<Item>> items(workers);
  for (const auto& [key, row_ids] : by_key) {
    auto it = node.blocks.find(key);
    if (it == node.blocks.end()) {
      return Status::Internal("extension key missing from its round: " +
                              kv.name);
    }
    // An unreachable block fails the round only when a surviving row
    // needs it: a speculative block whose key the lower emits dropped is
    // never looked up.
    ZIDIAN_RETURN_NOT_OK(it->second.status);
    items[it->second.worker].push_back({&key, &row_ids, &it->second.rows});
  }

  struct Slot {
    Relation partial;
    uint64_t compute_values = 0;
  };
  std::vector<Slot> slots(workers);
  ParallelFor(pool, workers, [&](size_t w) {
    Slot& slot = slots[w];
    slot.partial = Relation(out.rel.columns());
    for (const Item& item : items[w]) {
      // A fetched tuple is X (the key itself), then one row of the block;
      // `fetched` reads its value at `pos` without materializing it.
      const Tuple& key = *item.key;
      for (size_t r : *item.row_ids) {
        const Tuple& base = child.rel.rows()[r];
        for (const Tuple& y : *item.rows) {
          auto fetched = [&](size_t pos) -> const Value& {
            return pos < key.size() ? key[pos] : y[pos - key.size()];
          };
          bool aligned = true;
          for (const auto& [pos, ci] : dup_checks) {
            if (!(fetched(pos) == base[static_cast<size_t>(ci)])) {
              aligned = false;
              break;
            }
          }
          if (!aligned) continue;
          Tuple t;
          t.reserve(base.size() + kept_pos.size());
          t.insert(t.end(), base.begin(), base.end());
          for (size_t i : kept_pos) t.push_back(fetched(i));
          slot.compute_values += t.size();
          slot.partial.Add(std::move(t));
        }
      }
    }
  });
  for (auto& slot : slots) {
    if (m != nullptr) m->compute_values += slot.compute_values;
    for (auto& row : slot.partial.rows()) out.rel.Add(std::move(row));
  }
  return out;
}

}  // namespace

Result<KvInst> KbaExecutor::EvalExtends(const KbaPlan& top,
                                        const KbaExecOptions& ctx,
                                        QueryMetrics* m) const {
  // The chain of consecutive full extensions ending at `top`, bottom
  // first. A stats-only extension fetches headers, not blocks, so it is a
  // chain (and a round) of its own.
  auto full_extend = [](const KbaPlan& p) {
    return p.op == KbaOp::kExtend && !p.stats_only;
  };
  std::vector<const KbaPlan*> chain{&top};
  while (full_extend(*chain.back()) &&
         full_extend(*chain.back()->children[0])) {
    chain.push_back(chain.back()->children[0].get());
  }
  std::reverse(chain.begin(), chain.end());
  ZIDIAN_ASSIGN_OR_RETURN(KvInst in, Eval(*chain.front()->children[0], ctx, m));
  for (size_t next = 0; next < chain.size();) {
    ZIDIAN_ASSIGN_OR_RETURN(in, EvalRound(chain, &next, std::move(in), ctx, m));
  }
  return in;
}

Result<KvInst> KbaExecutor::EvalRound(const std::vector<const KbaPlan*>& chain,
                                      size_t* next, KvInst in,
                                      const KbaExecOptions& ctx,
                                      QueryMetrics* m) const {
  const size_t workers = static_cast<size_t>(ctx.workers);
  // Interleaved strategy (§7.2): every distinct key of every extension in
  // the round goes to the worker owning its block's storage node, and
  // each worker fetches all of its blocks, across the round's instances,
  // in one batched request — never a single-key get.
  struct FetchSlot {
    std::vector<BaavStore::BlockRef> refs;
    std::vector<RoundNode::Block*> dest;  ///< where each ref's block lands
    QueryMetrics m;
    Status status;
    /// Schedule shape of this worker's fan-out under kOverlapped; never
    /// merged into `m` (ChargeFanoutOverlap folds it at query level).
    FanoutStats fanout;
  };
  std::vector<FetchSlot> slots(workers);
  // Fetch slots point into the nodes' block maps: no reallocation.
  std::vector<RoundNode> nodes;
  nodes.reserve(chain.size() - *next);
  for (; *next < chain.size(); ++*next) {
    const KbaPlan& plan = *chain[*next];
    // chain[*next] opens the round. A later extension joins it while every
    // column binding its key is a column of the round's input, so its keys
    // are known before any block of the round arrives...
    if (!nodes.empty() &&
        !std::all_of(plan.key_bindings.begin(), plan.key_bindings.end(),
                     [&](const auto& b) {
                       return in.rel.ColumnIndex(b.first) >= 0;
                     })) {
      break;
    }
    RoundNode& node = nodes.emplace_back();
    node.plan = &plan;
    node.kv = store_->schema().Find(plan.kv_name);
    if (node.kv == nullptr) return Status::NotFound("kv " + plan.kv_name);
    ZIDIAN_ASSIGN_OR_RETURN(node.key_cols, KeyColumns(plan, *node.kv));
    ZIDIAN_ASSIGN_OR_RETURN(std::vector<size_t> idx,
                            ColumnIndexes(in.rel, node.key_cols));
    // Keys in first-appearance order, each once.
    std::vector<std::pair<const Tuple, RoundNode::Block>*> fresh;
    for (const auto& row : in.rel.rows()) {
      auto [it, added] = node.blocks.try_emplace(KeyOf(row, idx));
      if (added) fresh.push_back(&*it);
    }
    // ...and it has no more distinct keys than the extension that opened
    // the round. Over-fetch rule: a joined extension's block is fetched
    // even for a key whose every row a lower extension of the round drops
    // (an absent block, a failed alignment), since the round cannot know
    // that before its blocks arrive; the emit then skips it. The bound
    // applies to each joined extension on its own, so a round of k
    // extensions reads at most k-1 speculative blocks per block of the
    // opening extension.
    if (nodes.size() > 1 && node.blocks.size() > nodes.front().blocks.size()) {
      nodes.pop_back();
      break;
    }
    for (auto* entry : fresh) {
      entry->second.worker = static_cast<size_t>(
          store_->NodeForBlock(*node.kv, entry->first) % ctx.workers);
      FetchSlot& slot = slots[entry->second.worker];
      slot.refs.push_back({node.kv, &entry->first});
      slot.dest.push_back(&entry->second);
    }
  }

  // One task per worker; each owns a slot with its own metric delta and
  // writes only the blocks it owns.
  const bool stats_only = nodes.front().plan->stats_only;
  std::vector<bool> int_cols;
  if (stats_only) {
    ZIDIAN_ASSIGN_OR_RETURN(int_cols,
                            IntColumns(store_->catalog(), *nodes.front().kv));
  }
  auto fetch = [&](size_t w) {
    FetchSlot& slot = slots[w];
    if (slot.refs.empty()) return;
    QueryMetrics* wm = m != nullptr ? &slot.m : nullptr;
    if (stats_only) {
      std::vector<Tuple> keys;
      keys.reserve(slot.refs.size());
      for (const auto& ref : slot.refs) keys.push_back(*ref.key);
      auto stats = store_->MultiGetBlockStats(*nodes.front().kv, keys, wm,
                                              ctx.fanout, &slot.fanout);
      if (!stats.ok()) {
        slot.status = stats.status();
        return;
      }
      for (size_t i = 0; i < keys.size(); ++i) {
        slot.dest[i]->rows = StatsRows(stats.value()[i], int_cols);
      }
      return;
    }
    auto blocks =
        store_->MultiGetBlocks(slot.refs, wm, ctx.fanout, &slot.fanout);
    if (!blocks.ok()) {
      slot.status = blocks.status();
      return;
    }
    for (size_t i = 0; i < slot.refs.size(); ++i) {
      slot.dest[i]->rows = std::move(blocks.value()[i].rows);
      slot.dest[i]->status = std::move(blocks.value()[i].status);
    }
  };
  auto start = std::chrono::steady_clock::now();
  ParallelFor(ctx.pool, workers, fetch);
  if (m != nullptr) m->wall_fetch_seconds += SecondsSince(start);

  // Deterministic merge in worker order: counters sum, and the round's
  // slowest worker enters makespan_get and the network leg once — every
  // extension of the round stalls together. Every worker's delta merges
  // BEFORE any failure surfaces — a query that dies with exhausted
  // retries still reports the retry/hedge traffic it paid (the
  // availability accounting depends on this).
  std::vector<QueryMetrics> deltas;
  std::vector<FanoutStats> fanouts;
  deltas.reserve(slots.size());
  fanouts.reserve(slots.size());
  Status failure = Status::OK();
  for (auto& slot : slots) {
    if (failure.ok() && !slot.status.ok()) failure = slot.status;
    if (m != nullptr) *m += slot.m;
    deltas.push_back(slot.m);
    fanouts.push_back(slot.fanout);
  }
  if (m != nullptr) {
    m->makespan_get += MaxWorkerStorageGets(deltas);
    m->makespan_net_seconds += MaxWorkerNetSeconds(deltas);
    ChargeFanoutOverlap(deltas, fanouts, m);
  }
  ZIDIAN_RETURN_NOT_OK(failure);

  // Each extension emits in plan order from the round's blocks, after
  // re-partitioning its child by the target's key (shuffle).
  start = std::chrono::steady_clock::now();
  for (const RoundNode& node : nodes) {
    ChargeShuffleBytes(in.rel.ByteSize(), ctx.workers, m);
    ZIDIAN_ASSIGN_OR_RETURN(in,
                            EmitExtension(node, in, ctx.pool, workers, m));
  }
  if (m != nullptr) m->wall_fetch_seconds += SecondsSince(start);
  return in;
}

}  // namespace zidian
