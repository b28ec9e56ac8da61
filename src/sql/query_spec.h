// QuerySpec: the bound internal form of an accepted SQL query — an SPC
// (select-project-cartesian/join) core plus optional group-by aggregates,
// ORDER BY and LIMIT. This is the RA_aggr representation (§5.2): the SPC core
// is the query's unique max SPC sub-query, which is what the preservation and
// scan-freeness analyses (Conditions II/III) operate on.
#ifndef ZIDIAN_SQL_QUERY_SPEC_H_
#define ZIDIAN_SQL_QUERY_SPEC_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "relational/expression.h"
#include "relational/schema.h"

namespace zidian {

/// Qualified attribute: alias "S" of relation SUPPLIER, column "suppkey".
struct AttrRef {
  std::string alias;
  std::string column;

  /// "alias.column"; synthetic columns (e.g. "$const0") carry no alias.
  std::string Qualified() const {
    return alias.empty() ? column : alias + "." + column;
  }
  bool operator==(const AttrRef& o) const {
    return alias == o.alias && column == o.column;
  }
  bool operator<(const AttrRef& o) const {
    return alias != o.alias ? alias < o.alias : column < o.column;
  }
};

enum class AggFn { kNone, kSum, kCount, kAvg, kMin, kMax };
std::string_view AggFnName(AggFn fn);

struct SelectItem {
  AggFn agg = AggFn::kNone;
  ExprPtr expr;                 ///< argument; null for COUNT(*)
  std::string output_name;      ///< result column label
};

struct TableRef {
  std::string table;  ///< relation name in the catalog
  std::string alias;  ///< unique within the query
};

struct OrderKey {
  std::string output_name;
  bool ascending = true;
};

struct QuerySpec {
  std::vector<TableRef> tables;

  // Conjunctive structure of WHERE (the SPC selection condition):
  std::vector<std::pair<AttrRef, AttrRef>> eq_joins;   ///< A = B
  std::vector<std::pair<AttrRef, Value>> const_eqs;    ///< A = c
  /// Remaining conjuncts (ranges, <>, OR, arithmetic). Applied as filters;
  /// their attributes count toward X^Q_R but do not drive the GET chase.
  std::vector<ExprPtr> residual_filters;

  std::vector<SelectItem> select_items;
  std::vector<AttrRef> group_by;
  std::vector<OrderKey> order_by;
  int64_t limit = -1;

  bool HasAggregates() const;

  const TableRef* FindAlias(const std::string& alias) const;

  /// X^Q_R for one alias: attributes of that alias appearing in selection /
  /// join predicates or in the output (projection, group-by, aggregate args).
  std::set<AttrRef> NeededAttrs(const std::string& alias) const;

  std::string ToString() const;
};

}  // namespace zidian

#endif  // ZIDIAN_SQL_QUERY_SPEC_H_
