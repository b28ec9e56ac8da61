#include "zidian/planner.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <optional>
#include <unordered_map>

namespace zidian {

namespace {

// ---------------------------------------------------------------------------
// Equality index: attribute equivalence classes of the (original) query, with
// attached constants. Built from eq_joins + const_eqs; used for GET rule (b),
// binding supply lookup, enforcement predicates and reference rewriting.
// ---------------------------------------------------------------------------
class EqIndex {
 public:
  EqIndex(const QuerySpec& spec, const Catalog& catalog) {
    for (const auto& t : spec.tables) {
      const TableSchema* rel = catalog.Find(t.table);
      if (rel == nullptr) continue;
      for (const auto& c : rel->columns()) uf_.Id({t.alias, c.name});
    }
    for (const auto& [a, b] : spec.eq_joins) uf_.Union(uf_.Id(a), uf_.Id(b));
    constants_.assign(uf_.size(), std::optional<Value>{});
    for (const auto& [a, v] : spec.const_eqs) {
      auto& slot = constants_[static_cast<size_t>(uf_.Find(uf_.Id(a)))];
      if (slot.has_value() && !(*slot == v)) {
        contradiction_ = true;  // A = c1 AND A = c2 with c1 != c2
      }
      slot = v;
    }
  }

  /// True iff two distinct constants were equated (unsatisfiable query).
  bool HasContradiction() const { return contradiction_; }

  /// All attributes equal to `a` (including `a`).
  std::vector<AttrRef> ClassMembers(const AttrRef& a) const {
    int root = ClassId(a);
    if (root < 0) return {a};
    std::vector<AttrRef> out;
    for (const auto& [attr, id] : uf_.ids()) {
      if (uf_.Find(id) == root) out.push_back(attr);
    }
    return out;
  }

  int ClassId(const AttrRef& a) const {
    int id = uf_.Lookup(a);
    return id < 0 ? -1 : uf_.Find(id);
  }

  /// Root class ids that carry a constant.
  std::vector<int> ConstClasses() const {
    std::vector<int> out;
    for (size_t i = 0; i < uf_.size(); ++i) {
      if (uf_.Find(static_cast<int>(i)) == static_cast<int>(i) &&
          constants_[i].has_value()) {
        out.push_back(static_cast<int>(i));
      }
    }
    return out;
  }

  const Value& ConstantOfClass(int root) const {
    return *constants_[static_cast<size_t>(root)];
  }

 private:
  AttrUnionFind uf_;
  std::vector<std::optional<Value>> constants_;
  bool contradiction_ = false;
};

/// Column name of the synthetic constant column for an equality class.
std::string ConstColName(size_t i) { return "$const" + std::to_string(i); }

}  // namespace

// ---------------------------------------------------------------------------
// The GET/VC chase (§6.1).
// ---------------------------------------------------------------------------
Result<ChaseResult> ChaseGetVc(const QuerySpec& spec,
                               const MinimizedSPC& min_spc,
                               const BaavSchema& baav,
                               const Catalog& catalog) {
  ChaseResult out;
  EqIndex eq(spec, catalog);

  // Rule (a) + (b): constant-bound attributes and everything equal to them.
  for (const auto& [a, v] : spec.const_eqs) {
    (void)v;
    for (const auto& member : eq.ClassMembers(a)) out.get.insert(member);
  }

  // Physical availability for step recording: which attributes could have
  // been materialized so far (constants count as available supplies).
  auto supply_for = [&](const AttrRef& want) -> std::optional<AttrRef> {
    if (out.get.count(want)) return want;
    for (const auto& member : eq.ClassMembers(want)) {
      if (out.get.count(member)) return member;
    }
    return std::nullopt;
  };

  // Phase 1 — restricted step recording (drives plan generation, §6.2).
  // A step (alias, kv) is recorded only when it is *useful*: it fetches a
  // needed attribute of the alias that no earlier step fetched or enforced
  // through a key binding. Re-fetching an already-fetched alias through a
  // second KV schema is allowed only when the relation's primary key is
  // already among the fetched attributes — the executor then aligns the two
  // fetches by filtering duplicate columns for equality, which makes the
  // self-join lossless.
  std::map<std::string, std::set<AttrRef>> needed;
  for (const auto& t : min_spc.tables) {
    needed[t.alias] = min_spc.NeededAttrs(t.alias);
  }
  std::map<std::string, std::set<std::string>> fetched;   // alias -> attrs
  std::map<std::string, std::set<std::string>> enforced;  // via key bindings
  std::set<std::pair<std::string, std::string>> applied;  // (alias, kv)
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& t : min_spc.tables) {
      for (const auto* kv : baav.ForRelation(t.table)) {
        if (applied.count({t.alias, kv->name})) continue;
        // pk-gate for re-fetches of the same alias.
        const auto& already = fetched[t.alias];
        if (!already.empty()) {
          if (kv->primary_key.empty()) continue;
          bool pk_have = true;
          for (const auto& pk : kv->primary_key) pk_have &= already.count(pk);
          if (!pk_have) continue;
        }
        // Usefulness: some needed attribute is newly fetched/enforced.
        bool useful = false;
        for (const auto& a : kv->AllAttrs()) {
          if (needed[t.alias].count({t.alias, a}) &&
              !fetched[t.alias].count(a) && !enforced[t.alias].count(a)) {
            useful = true;
          }
        }
        if (!useful) continue;
        std::vector<std::pair<AttrRef, std::string>> bindings;
        bool ok = true;
        for (const auto& x : kv->key_attrs) {
          auto sup = supply_for({t.alias, x});
          if (!sup.has_value()) {
            ok = false;
            break;
          }
          bindings.emplace_back(*sup, x);
        }
        if (!ok) continue;
        applied.insert({t.alias, kv->name});
        out.steps.push_back({t.alias, kv->name, std::move(bindings)});
        for (const auto& x : kv->key_attrs) enforced[t.alias].insert(x);
        for (const auto& a : kv->AllAttrs()) {
          fetched[t.alias].insert(a);
          // Rule (c) adds the fetched attributes; rule (b) closes under
          // equality.
          for (const auto& member : eq.ClassMembers({t.alias, a})) {
            out.get.insert(member);
          }
          out.get.insert({t.alias, a});
        }
        changed = true;
      }
    }
  }

  // Phase 2 — the unrestricted rule (c) fixpoint, defining GET(Q,~R) for
  // the VC computation and Condition III exactly as in §6.1.
  std::set<std::pair<std::string, std::string>> applied_get = applied;
  changed = true;
  while (changed) {
    changed = false;
    for (const auto& t : min_spc.tables) {
      for (const auto* kv : baav.ForRelation(t.table)) {
        if (applied_get.count({t.alias, kv->name})) continue;
        bool ok = true;
        for (const auto& x : kv->key_attrs) {
          if (!supply_for({t.alias, x}).has_value()) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        applied_get.insert({t.alias, kv->name});
        for (const auto& a : kv->AllAttrs()) {
          for (const auto& member : eq.ClassMembers({t.alias, a})) {
            out.get.insert(member);
          }
          out.get.insert({t.alias, a});
        }
        changed = true;
      }
    }
  }

  // VC (§6.1): KV schemas (per alias) fully inside GET, closed under
  // key-coverage within that family.
  std::vector<std::pair<std::string, const KvSchema*>> rq;
  for (const auto& t : min_spc.tables) {
    for (const auto* kv : baav.ForRelation(t.table)) {
      bool inside = true;
      for (const auto& a : kv->AllAttrs()) {
        inside &= out.get.count({t.alias, a}) > 0;
      }
      if (inside) rq.emplace_back(t.alias, kv);
    }
  }
  for (const auto& [alias, kv] : rq) {
    std::set<AttrRef> clo;
    for (const auto& a : kv->AllAttrs()) clo.insert({alias, a});
    bool grow = true;
    while (grow) {
      grow = false;
      for (const auto& [alias2, kv2] : rq) {
        bool covered = true;
        for (const auto& x : kv2->key_attrs) {
          AttrRef want{alias2, x};
          bool have = clo.count(want) > 0;
          if (!have) {
            for (const auto& member : eq.ClassMembers(want)) {
              have |= clo.count(member) > 0;
            }
          }
          covered &= have;
        }
        if (!covered) continue;
        for (const auto& a : kv2->AllAttrs()) {
          if (clo.insert({alias2, a}).second) grow = true;
        }
      }
    }
    out.vc.push_back(std::move(clo));
  }

  // Condition III verdict.
  out.scan_free = true;
  for (const auto& t : min_spc.tables) {
    std::set<AttrRef> needed = min_spc.NeededAttrs(t.alias);
    bool fits = false;
    for (const auto& w : out.vc) {
      if (std::includes(w.begin(), w.end(), needed.begin(), needed.end())) {
        fits = true;
        break;
      }
    }
    if (!fits) {
      out.scan_free = false;
      out.unreached.push_back(t.alias);
    }
  }
  return out;
}

Result<bool> IsScanFree(const QuerySpec& spec, const Catalog& catalog,
                        const BaavSchema& baav) {
  ZIDIAN_ASSIGN_OR_RETURN(MinimizedSPC min_spc, MinimizeSPC(spec, catalog));
  ZIDIAN_ASSIGN_OR_RETURN(ChaseResult chase,
                          ChaseGetVc(spec, min_spc, baav, catalog));
  return chase.scan_free;
}

// ---------------------------------------------------------------------------
// Plan generation (§6.2): replay the chase as a chain of extensions.
// ---------------------------------------------------------------------------
namespace {

/// Rewrites column references so they point at physically available columns:
/// references to aliases folded away by minimization (or to attributes never
/// fetched) are replaced by an equal attribute that is available.
class RefRewriter {
 public:
  RefRewriter(const EqIndex* eq, const std::set<std::string>* avail)
      : eq_(eq), avail_(avail) {}

  Result<AttrRef> Rewrite(const AttrRef& a) const {
    if (avail_->count(a.Qualified())) return a;
    for (const auto& member : eq_->ClassMembers(a)) {
      if (avail_->count(member.Qualified())) return member;
    }
    return Status::Internal("no available column for " + a.Qualified());
  }

  Status RewriteExpr(const ExprPtr& e) const {
    if (!e) return Status::OK();
    if (e->kind == ExprKind::kColumn) {
      ZIDIAN_ASSIGN_OR_RETURN(AttrRef r, Rewrite({e->alias, e->column}));
      e->alias = r.alias;
      e->column = r.column;
      return Status::OK();
    }
    ZIDIAN_RETURN_NOT_OK(RewriteExpr(e->lhs));
    return RewriteExpr(e->rhs);
  }

 private:
  const EqIndex* eq_;
  const std::set<std::string>* avail_;
};

struct PendingPredicate {
  ExprPtr expr;
  size_t earliest_step;  // chain position after which it can run
};

/// Earliest chain position (0 = right after the constant leaf, i = after
/// step i) at which all referenced columns exist.
size_t EarliestStep(const ExprPtr& e,
                    const std::vector<std::set<std::string>>& avail_after) {
  std::vector<const Expr*> cols;
  e->CollectColumns(&cols);
  size_t earliest = 0;
  for (const auto* c : cols) {
    std::string q = c->alias.empty() ? c->column : c->QualifiedName();
    size_t pos = avail_after.size();  // not found
    for (size_t i = 0; i < avail_after.size(); ++i) {
      if (avail_after[i].count(q)) {
        pos = i;
        break;
      }
    }
    earliest = std::max(earliest, pos);
  }
  return earliest;
}

}  // namespace

Result<PlannedQuery> GenerateKbaPlan(const QuerySpec& spec,
                                     const Catalog& catalog,
                                     const BaavStore& store,
                                     const PlannerOptions& options) {
  const BaavSchema& baav = store.schema();
  ZIDIAN_ASSIGN_OR_RETURN(MinimizedSPC min_spc, MinimizeSPC(spec, catalog));
  ZIDIAN_ASSIGN_OR_RETURN(ChaseResult chase,
                          ChaseGetVc(spec, min_spc, baav, catalog));
  EqIndex eq(spec, catalog);

  PlannedQuery planned;
  planned.scan_free = chase.scan_free;

  // ---- constant leaf -------------------------------------------------------
  std::vector<int> const_classes = eq.ConstClasses();
  KvInst const_inst;
  Tuple const_row;
  std::map<int, std::string> const_col_of_class;
  for (size_t i = 0; i < const_classes.size(); ++i) {
    std::string col = ConstColName(i);
    const_col_of_class[const_classes[i]] = col;
    const_inst.key_cols.push_back(col);
    const_row.push_back(eq.ConstantOfClass(const_classes[i]));
  }
  const_inst.rel = Relation(const_inst.key_cols);
  const_inst.rel.Add(const_row);

  // ---- replay the chase, tracking physical availability --------------------
  // avail_after[0] = constant columns; avail_after[i] = after step i.
  std::vector<std::set<std::string>> avail_after;
  std::set<std::string> avail;
  for (const auto& c : const_inst.key_cols) avail.insert(c);
  avail_after.push_back(avail);

  // Columns supplying each class (for bindings): prefer the constant column,
  // then any physically fetched member.
  auto supply_col = [&](const AttrRef& want) -> std::optional<std::string> {
    if (avail.count(want.Qualified())) return want.Qualified();
    int cls = eq.ClassId(want);
    if (cls >= 0) {
      auto it = const_col_of_class.find(cls);
      if (it != const_col_of_class.end()) return it->second;
    }
    for (const auto& member : eq.ClassMembers(want)) {
      if (avail.count(member.Qualified())) return member.Qualified();
    }
    return std::nullopt;
  };

  struct ChainStep {
    enum Kind { kExtend, kScanJoin } kind;
    // kExtend:
    std::string alias, kv_name;
    std::vector<std::pair<std::string, std::string>> bindings;  // col -> x
    // kScanJoin:
    std::vector<std::pair<std::string, std::string>> join_pairs;
  };
  std::vector<ChainStep> chain;
  // Equalities already enforced structurally (by ∝ bindings / join pairs).
  std::set<std::pair<std::string, std::string>> enforced;

  for (const auto& step : chase.steps) {
    const KvSchema* kv = baav.Find(step.kv_name);
    assert(kv != nullptr);
    ChainStep cs;
    cs.kind = ChainStep::kExtend;
    cs.alias = step.alias;
    cs.kv_name = step.kv_name;
    bool ok = true;
    for (const auto& x : kv->key_attrs) {
      auto sup = supply_col({step.alias, x});
      if (!sup.has_value()) {
        ok = false;
        break;
      }
      cs.bindings.emplace_back(*sup, x);
      std::string fetched = step.alias + "." + x;
      enforced.insert({*sup, fetched});
      enforced.insert({fetched, *sup});
    }
    if (!ok) continue;  // cannot happen if chase and replay agree
    for (const auto& a : kv->AllAttrs()) avail.insert(step.alias + "." + a);
    avail_after.push_back(avail);
    chain.push_back(std::move(cs));
  }

  // ---- fallback scans for aliases not covered scan-free ---------------------
  // Pick covering schemas first, then prune extends of scanned aliases: the
  // scan supplies every needed attribute, so an earlier partial fetch of the
  // same alias would only self-join and multiply rows. An extend is kept if
  // another step's key binding draws from its columns.
  std::map<std::string, const KvSchema*> scans;  // alias -> cover
  for (const auto& t : min_spc.tables) {
    std::set<AttrRef> needed = min_spc.NeededAttrs(t.alias);
    bool covered = true;
    for (const auto& a : needed) covered &= avail.count(a.Qualified()) > 0;
    if (covered) continue;
    const KvSchema* cover = nullptr;
    for (const auto* kv : baav.ForRelation(t.table)) {
      bool all = true;
      for (const auto& a : needed) all &= kv->HasAttr(a.column);
      if (all && (cover == nullptr ||
                  kv->AllAttrs().size() < cover->AllAttrs().size())) {
        cover = kv;
      }
    }
    if (cover == nullptr) {
      return Status::NotSupported(
          "alias " + t.alias +
          " not coverable by a single KV schema; query is not result "
          "preserving in a form this planner supports");
    }
    scans[t.alias] = cover;
    planned.scanned_aliases.push_back(t.alias);
  }
  if (!scans.empty()) {
    // Prune prunable extends of scanned aliases.
    std::vector<ChainStep> kept;
    for (size_t i = 0; i < chain.size(); ++i) {
      const ChainStep& cs = chain[i];
      if (!scans.count(cs.alias)) {
        kept.push_back(cs);
        continue;
      }
      std::string prefix = cs.alias + ".";
      bool referenced = false;
      for (size_t j = 0; j < chain.size(); ++j) {
        if (j == i || scans.count(chain[j].alias)) continue;
        for (const auto& [supply, x] : chain[j].bindings) {
          (void)x;
          referenced |= supply.rfind(prefix, 0) == 0;
        }
      }
      if (referenced) kept.push_back(cs);
    }
    chain = std::move(kept);
    // Rebuild availability from scratch over the surviving chain.
    enforced.clear();
    avail.clear();
    avail_after.clear();
    for (const auto& c : const_inst.key_cols) avail.insert(c);
    avail_after.push_back(avail);
    for (const auto& cs : chain) {
      const KvSchema* kv = baav.Find(cs.kv_name);
      for (const auto& [supply, x] : cs.bindings) {
        enforced.insert({supply, cs.alias + "." + x});
        enforced.insert({cs.alias + "." + x, supply});
      }
      for (const auto& a : kv->AllAttrs()) avail.insert(cs.alias + "." + a);
      avail_after.push_back(avail);
    }
    // Append the scan joins, linking through equality classes and through
    // shared column names (a kept partial fetch of the same alias).
    for (const auto& [alias, cover] : scans) {
      ChainStep cs;
      cs.kind = ChainStep::kScanJoin;
      cs.alias = alias;
      cs.kv_name = cover->name;
      for (const auto& a : cover->AllAttrs()) {
        AttrRef mine{alias, a};
        if (avail.count(mine.Qualified())) {
          // The column already flowed in: equate the two copies.
          cs.join_pairs.emplace_back(mine.Qualified(), mine.Qualified());
          continue;
        }
        for (const auto& member : eq.ClassMembers(mine)) {
          if (member == mine) continue;
          if (avail.count(member.Qualified())) {
            cs.join_pairs.emplace_back(member.Qualified(), mine.Qualified());
            enforced.insert({member.Qualified(), mine.Qualified()});
            enforced.insert({mine.Qualified(), member.Qualified()});
            break;
          }
        }
      }
      for (const auto& a : cover->AllAttrs()) avail.insert(alias + "." + a);
      avail_after.push_back(avail);
      chain.push_back(std::move(cs));
    }
  }

  // ---- rewrite the query onto available columns ----------------------------
  QuerySpec exec = spec;
  exec.tables = min_spc.tables;
  RefRewriter rewriter(&eq, &avail);
  for (auto& item : exec.select_items) {
    if (item.expr) {
      item.expr = item.expr->Clone();
      ZIDIAN_RETURN_NOT_OK(rewriter.RewriteExpr(item.expr));
    }
  }
  for (auto& g : exec.group_by) {
    ZIDIAN_ASSIGN_OR_RETURN(g, rewriter.Rewrite(g));
  }
  std::vector<ExprPtr> residuals;
  for (const auto& f : spec.residual_filters) {
    ExprPtr c = f->Clone();
    ZIDIAN_RETURN_NOT_OK(rewriter.RewriteExpr(c));
    residuals.push_back(std::move(c));
  }
  exec.residual_filters = residuals;

  // ---- enforcement predicates ----------------------------------------------
  // For each equality class: connect all physically present columns (incl.
  // the constant column) with predicates, minus edges already enforced by
  // bindings/joins. Spanning-tree construction per class.
  std::vector<PendingPredicate> pending;
  {
    auto column_expr = [](const std::string& qualified) {
      auto dot = qualified.find('.');
      if (dot == std::string::npos || qualified[0] == '$') {
        return Expr::Column("", qualified);
      }
      return Expr::Column(qualified.substr(0, dot),
                          qualified.substr(dot + 1));
    };
    // Collect class members per class id.
    std::map<int, std::vector<std::string>> class_cols;
    for (const auto& t : spec.tables) {
      const TableSchema* rel = catalog.Find(t.table);
      if (rel == nullptr) continue;
      for (const auto& c : rel->columns()) {
        AttrRef a{t.alias, c.name};
        int cls = eq.ClassId(a);
        if (cls < 0) continue;
        if (avail.count(a.Qualified())) {
          class_cols[cls].push_back(a.Qualified());
        }
      }
    }
    for (const auto& [cls, col] : const_col_of_class) {
      class_cols[cls].push_back(col);
    }
    for (auto& [cls, cols] : class_cols) {
      if (cols.size() < 2) continue;
      std::sort(cols.begin(), cols.end());
      cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
      // Union-find over the columns with enforced edges pre-merged.
      std::map<std::string, std::string> parent;
      for (const auto& c : cols) parent[c] = c;
      std::function<std::string(std::string)> find =
          [&](std::string x) -> std::string {
        while (parent[x] != x) x = parent[x];
        return x;
      };
      for (const auto& [a, b] : enforced) {
        if (parent.count(a) && parent.count(b)) {
          parent[find(a)] = find(b);
        }
      }
      for (size_t i = 1; i < cols.size(); ++i) {
        std::string ra = find(cols[0]), rb = find(cols[i]);
        if (ra == rb) continue;
        parent[ra] = rb;
        PendingPredicate p;
        p.expr = Expr::Compare(CmpOp::kEq, column_expr(cols[0]),
                               column_expr(cols[i]));
        p.earliest_step = EarliestStep(p.expr, avail_after);
        pending.push_back(std::move(p));
      }
    }
  }
  for (const auto& f : exec.residual_filters) {
    PendingPredicate p;
    p.expr = f;
    p.earliest_step = EarliestStep(f, avail_after);
    pending.push_back(std::move(p));
  }
  if (eq.HasContradiction()) {
    // A = c1 AND A = c2 (c1 != c2): unsatisfiable. A constant-false filter
    // right after the leaf empties the pipeline before any data access,
    // while the plan keeps its column structure for the aggregate tail.
    PendingPredicate p;
    p.expr = Expr::Compare(CmpOp::kEq, Expr::Literal(Value(int64_t{0})),
                           Expr::Literal(Value(int64_t{1})));
    p.earliest_step = 0;
    pending.push_back(std::move(p));
  }

  // ---- stats-only pushdown eligibility (§8.2) -------------------------------
  bool stats_ok = false;
  if (options.enable_stats_pushdown && spec.HasAggregates() &&
      !chain.empty() && chain.back().kind == ChainStep::kExtend) {
    const ChainStep& last = chain.back();
    const KvSchema* kv = baav.Find(last.kv_name);
    std::set<std::string> last_y;  // qualified Y attrs of the last extend
    for (const auto& y : kv->value_attrs) {
      last_y.insert(last.alias + "." + y);
    }
    std::set<std::string> last_x;
    for (const auto& x : kv->key_attrs) last_x.insert(last.alias + "." + x);
    // Block statistics cover numeric values only (baav/block.h), so only
    // an INT or DOUBLE column has the partials its aggregates need.
    const TableRef* last_table = exec.FindAlias(last.alias);
    const TableSchema* last_schema =
        last_table != nullptr ? catalog.Find(last_table->table) : nullptr;
    auto numeric = [&](const std::string& column) {
      int i = last_schema != nullptr ? last_schema->ColumnIndex(column) : -1;
      if (i < 0) return false;
      ValueType type = last_schema->columns()[static_cast<size_t>(i)].type;
      return type == ValueType::kInt || type == ValueType::kDouble;
    };

    stats_ok = true;
    // (1) All aggregate args are numeric Y attrs of the last extension (or
    // COUNT(*)).
    for (const auto& item : exec.select_items) {
      if (item.agg == AggFn::kNone) {
        if (item.expr && item.expr->kind == ExprKind::kColumn) continue;
        stats_ok = false;
        break;
      }
      if (!item.expr) continue;  // COUNT(*)
      if (item.expr->kind != ExprKind::kColumn ||
          !last_y.count(item.expr->QualifiedName()) ||
          !numeric(item.expr->column)) {
        stats_ok = false;
        break;
      }
    }
    // (2) Group keys available before the last extend, or fetched X of it.
    const auto& avail_before = avail_after[avail_after.size() - 2];
    for (const auto& g : exec.group_by) {
      std::string q = g.Qualified();
      if (!avail_before.count(q) && !last_x.count(q)) stats_ok = false;
    }
    // (3) No predicate touches any attribute of the last extend's alias.
    for (const auto& p : pending) {
      std::vector<const Expr*> cols;
      p.expr->CollectColumns(&cols);
      for (const auto* c : cols) {
        if (c->alias == last.alias) stats_ok = false;
      }
    }
  }
  planned.stats_pushdown = stats_ok;

  // ---- assemble the plan ----------------------------------------------------
  KbaPlanPtr plan = KbaPlan::Const(std::move(const_inst));
  auto attach_predicates = [&](KbaPlanPtr node, size_t position) {
    std::vector<ExprPtr> preds;
    for (const auto& p : pending) {
      if (p.earliest_step == position) preds.push_back(p.expr);
    }
    if (preds.empty()) return node;
    return KbaPlan::Select(std::move(node), std::move(preds));
  };
  plan = attach_predicates(plan, 0);
  for (size_t i = 0; i < chain.size(); ++i) {
    const ChainStep& cs = chain[i];
    bool is_last = (i + 1 == chain.size());
    if (cs.kind == ChainStep::kExtend) {
      plan = KbaPlan::Extend(std::move(plan), cs.kv_name, cs.alias,
                             cs.bindings,
                             /*stats_only=*/is_last && stats_ok);
    } else {
      KbaPlanPtr scan = KbaPlan::InstanceScan(cs.kv_name, cs.alias);
      plan = KbaPlan::Join(std::move(plan), std::move(scan), cs.join_pairs);
    }
    plan = attach_predicates(plan, i + 1);
  }
  // Any predicate whose earliest position exceeds the chain (shouldn't
  // happen) runs at the very top.
  {
    std::vector<ExprPtr> preds;
    for (const auto& p : pending) {
      if (p.earliest_step > chain.size()) preds.push_back(p.expr);
    }
    if (!preds.empty()) plan = KbaPlan::Select(std::move(plan), preds);
  }

  if (stats_ok) {
    plan = KbaPlan::GroupAgg(std::move(plan), exec.group_by,
                             exec.select_items, /*from_stats=*/true);
    plan->alias = chain.back().alias;
  }

  // ---- boundedness (§6.1): scan-free + bounded degree on every target -------
  planned.bounded = planned.scan_free;
  if (planned.bounded) {
    std::vector<std::string> targets;
    if (plan) plan->CollectExtendTargets(&targets);
    for (const auto& name : targets) {
      const KvSchema* kv = baav.Find(name);
      // An unmeasurable degree (scan failed) is treated as unbounded:
      // claiming §6.1 boundedness needs a proven deg, not an absent one.
      Result<uint64_t> deg =
          kv != nullptr ? store.Degree(*kv) : Result<uint64_t>(uint64_t{0});
      if (kv == nullptr || !deg.ok() ||
          *deg > options.bounded_degree_threshold) {
        planned.bounded = false;
        break;
      }
    }
  }

  planned.plan = std::move(plan);
  // Hand the rewritten spec back through PlannedQuery for FinishQuery.
  planned.exec_spec = std::move(exec);
  return planned;
}

}  // namespace zidian
