#include "sql/query_spec.h"

#include <sstream>

namespace zidian {

std::string_view AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kNone: return "";
    case AggFn::kSum: return "SUM";
    case AggFn::kCount: return "COUNT";
    case AggFn::kAvg: return "AVG";
    case AggFn::kMin: return "MIN";
    case AggFn::kMax: return "MAX";
  }
  return "";
}

bool QuerySpec::HasAggregates() const {
  for (const auto& item : select_items) {
    if (item.agg != AggFn::kNone) return true;
  }
  return false;
}

const TableRef* QuerySpec::FindAlias(const std::string& alias) const {
  for (const auto& t : tables) {
    if (t.alias == alias) return &t;
  }
  return nullptr;
}

namespace {
void AddExprAttrs(const ExprPtr& e, const std::string& alias,
                  std::set<AttrRef>* out) {
  if (!e) return;
  std::vector<const Expr*> cols;
  e->CollectColumns(&cols);
  for (const auto* c : cols) {
    if (c->alias == alias) out->insert({c->alias, c->column});
  }
}
}  // namespace

std::set<AttrRef> QuerySpec::NeededAttrs(const std::string& alias) const {
  std::set<AttrRef> out;
  for (const auto& [a, b] : eq_joins) {
    if (a.alias == alias) out.insert(a);
    if (b.alias == alias) out.insert(b);
  }
  for (const auto& [a, v] : const_eqs) {
    (void)v;
    if (a.alias == alias) out.insert(a);
  }
  for (const auto& f : residual_filters) AddExprAttrs(f, alias, &out);
  for (const auto& item : select_items) AddExprAttrs(item.expr, alias, &out);
  for (const auto& g : group_by) {
    if (g.alias == alias) out.insert(g);
  }
  return out;
}

std::string QuerySpec::ToString() const {
  std::ostringstream os;
  os << "SELECT ";
  for (size_t i = 0; i < select_items.size(); ++i) {
    if (i > 0) os << ", ";
    const auto& item = select_items[i];
    if (item.agg != AggFn::kNone) {
      os << AggFnName(item.agg) << "("
         << (item.expr ? item.expr->ToString() : "*") << ")";
    } else {
      os << item.expr->ToString();
    }
  }
  os << " FROM ";
  for (size_t i = 0; i < tables.size(); ++i) {
    if (i > 0) os << ", ";
    os << tables[i].table << " AS " << tables[i].alias;
  }
  bool first = true;
  auto conj = [&](const std::string& s) {
    os << (first ? " WHERE " : " AND ") << s;
    first = false;
  };
  for (const auto& [a, b] : eq_joins) conj(a.Qualified() + " = " + b.Qualified());
  for (const auto& [a, v] : const_eqs) conj(a.Qualified() + " = " + v.ToString());
  for (const auto& f : residual_filters) conj(f->ToString());
  if (!group_by.empty()) {
    os << " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << group_by[i].Qualified();
    }
  }
  return os.str();
}

}  // namespace zidian
