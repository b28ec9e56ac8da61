// SPC (select-project-cartesian) tableau representation and minimization.
//
// Conditions II and III of the paper are stated over the *minimal equivalent
// query* min(Q). We represent the SPC core of a bound query as a tableau:
// one atom per alias, one term per column; equality joins merge terms into
// shared variables, constant selections attach constants, and output /
// residual-filter attributes are marked distinguished. min(Q) is computed by
// the classic core construction: repeatedly remove an atom if a containment
// homomorphism into the remainder exists (identity on distinguished terms).
// SPC minimization is NP-complete (§5.2); queries here are small (a handful
// of atoms) so backtracking search is instantaneous.
//
// Residual (non-conjunctive) predicates are handled conservatively: their
// attributes are marked distinguished, so no atom they constrain can be
// folded away — this keeps minimization sound for the full query.
#ifndef ZIDIAN_RA_SPC_H_
#define ZIDIAN_RA_SPC_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"
#include "sql/query_spec.h"

namespace zidian {

/// Union-find over attribute references: the equality classes a query's
/// eq_joins induce. Module M1's tableau (below), M2's chase
/// (zidian/planner.cc) and the baseline's join order (ra/taav.cc) build
/// theirs with it. Ids are dense, in registration order, and Union(a, b)
/// hangs a's root under b's, so holders that register and unite in the
/// same order agree on every root id (plan text orders classes by it).
class AttrUnionFind {
 public:
  /// The id of `a`, registered on first sight.
  int Id(const AttrRef& a) {
    auto [it, inserted] = ids_.emplace(a, static_cast<int>(parent_.size()));
    if (inserted) parent_.push_back(it->second);
    return it->second;
  }
  /// The id of `a`, or -1 when it was never registered.
  int Lookup(const AttrRef& a) const {
    auto it = ids_.find(a);
    return it == ids_.end() ? -1 : it->second;
  }
  /// The root id of `x`'s class.
  int Find(int x) const {
    while (parent_[static_cast<size_t>(x)] != x) {
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }
  void Union(int a, int b) { parent_[static_cast<size_t>(Find(a))] = Find(b); }
  size_t size() const { return parent_.size(); }
  /// Every registered attribute with its id, in attribute order.
  const std::map<AttrRef, int>& ids() const { return ids_; }

 private:
  std::map<AttrRef, int> ids_;
  std::vector<int> parent_;
};

/// The minimized SPC core of a query, in attribute-level form consumable by
/// the preservation (Condition II) and scan-freeness (Condition III) checks.
struct MinimizedSPC {
  /// Aliases retained by min(Q), with their relations.
  std::vector<TableRef> tables;
  /// Attribute equality classes of min(Q) with >= 2 members.
  std::vector<std::vector<AttrRef>> eq_classes;
  /// Attributes bound to constants (A = c selections), incl. via equality.
  std::map<AttrRef, Value> const_attrs;
  /// Distinguished attributes (projection output, aggregate arguments,
  /// group-by keys, residual-filter attributes).
  std::set<AttrRef> output_attrs;

  /// X^{min(Q)}_R for the given alias: attributes in selection/join
  /// predicates or the final projection (paper §5.2).
  std::set<AttrRef> NeededAttrs(const std::string& alias) const;

  std::string ToString() const;
};

/// Tableau for an SPC query; exposed for tests of the minimizer internals.
class SpcTableau {
 public:
  /// Builds the tableau of the SPC core of `spec` (aggregation/order/limit
  /// are ignored: they sit above the unique max SPC sub-query).
  static Result<SpcTableau> FromQuery(const QuerySpec& spec,
                                      const Catalog& catalog);

  /// Core computation; returns the number of atoms removed.
  int Minimize();

  /// Attribute-level summary of the (possibly minimized) tableau.
  MinimizedSPC Summarize() const;

  size_t num_atoms() const { return atoms_.size(); }

 private:
  struct Term {
    std::optional<Value> constant;
    bool distinguished = false;
  };
  struct Atom {
    std::string alias;
    std::string relation;
    std::vector<std::string> columns;
    std::vector<int> terms;  // parallel to columns
  };

  /// True iff a homomorphism Q -> Q \ {skip} exists that fixes distinguished
  /// terms and constants.
  bool HasFoldingHomomorphism(size_t skip) const;
  bool ExtendHomomorphism(size_t skip, size_t atom_idx,
                          std::map<int, int>* var_map) const;
  bool TermsCompatible(int from, int to, const std::map<int, int>& var_map)
      const;

  std::vector<Atom> atoms_;
  std::vector<Term> terms_;
};

/// Computes min(Q)'s attribute-level summary for the SPC core of `spec`.
Result<MinimizedSPC> MinimizeSPC(const QuerySpec& spec, const Catalog& catalog);

}  // namespace zidian

#endif  // ZIDIAN_RA_SPC_H_
