#include "ra/spc.h"

#include <algorithm>
#include <sstream>

namespace zidian {

Result<SpcTableau> SpcTableau::FromQuery(const QuerySpec& spec,
                                         const Catalog& catalog) {
  SpcTableau t;
  // 1. Equality classes over all attributes of all aliases.
  AttrUnionFind uf;
  for (const auto& table : spec.tables) {
    const TableSchema* schema = catalog.Find(table.table);
    if (schema == nullptr) {
      return Status::NotFound("table " + table.table);
    }
    for (const auto& col : schema->columns()) {
      uf.Id({table.alias, col.name});
    }
  }
  for (const auto& [a, b] : spec.eq_joins) {
    uf.Union(uf.Id(a), uf.Id(b));
  }

  // 2. One tableau term per equality class.
  std::map<int, int> class_to_term;
  auto term_of = [&](const AttrRef& a) {
    int root = uf.Find(uf.Id(a));
    auto [it, inserted] = class_to_term.emplace(
        root, static_cast<int>(t.terms_.size()));
    if (inserted) t.terms_.push_back(Term{});
    return it->second;
  };

  // 3. Constants.
  for (const auto& [a, v] : spec.const_eqs) {
    Term& term = t.terms_[term_of(a)];
    if (term.constant.has_value() && !(*term.constant == v)) {
      // Contradictory constants: query is unsatisfiable; keep both facts out
      // and let execution return empty. Minimization treats them as equal
      // constraints on one term; retain the first.
      continue;
    }
    term.constant = v;
  }

  // 4. Distinguished terms: outputs, group-by keys, aggregate arguments and
  // residual-filter attributes (conservative, see header).
  auto distinguish = [&](const AttrRef& a) {
    t.terms_[term_of(a)].distinguished = true;
  };
  for (const auto& item : spec.select_items) {
    if (!item.expr) continue;
    std::vector<const Expr*> cols;
    item.expr->CollectColumns(&cols);
    for (const auto* c : cols) distinguish({c->alias, c->column});
  }
  for (const auto& g : spec.group_by) distinguish(g);
  for (const auto& f : spec.residual_filters) {
    std::vector<const Expr*> cols;
    f->CollectColumns(&cols);
    for (const auto* c : cols) distinguish({c->alias, c->column});
  }

  // 5. Atoms.
  for (const auto& table : spec.tables) {
    const TableSchema* schema = catalog.Find(table.table);
    Atom atom;
    atom.alias = table.alias;
    atom.relation = table.table;
    for (const auto& col : schema->columns()) {
      atom.columns.push_back(col.name);
      atom.terms.push_back(term_of({table.alias, col.name}));
    }
    t.atoms_.push_back(std::move(atom));
  }
  return t;
}

bool SpcTableau::TermsCompatible(int from, int to,
                                 const std::map<int, int>& var_map) const {
  auto it = var_map.find(from);
  if (it != var_map.end()) return it->second == to;
  const Term& f = terms_[from];
  const Term& g = terms_[to];
  if (f.distinguished && from != to) return false;  // must be fixed
  if (f.constant.has_value()) {
    // A constant term maps only to a term carrying the same constant.
    if (!g.constant.has_value() || !(*f.constant == *g.constant)) return false;
  }
  return true;
}

bool SpcTableau::ExtendHomomorphism(size_t skip, size_t atom_idx,
                                    std::map<int, int>* var_map) const {
  // Find the next atom to map (including the skipped one: all atoms of Q
  // must map into Q \ {skip}).
  if (atom_idx >= atoms_.size()) return true;
  const Atom& a = atoms_[atom_idx];
  for (size_t target = 0; target < atoms_.size(); ++target) {
    if (target == skip) continue;
    const Atom& b = atoms_[target];
    if (b.relation != a.relation) continue;
    // Try mapping a -> b positionally.
    std::map<int, int> saved = *var_map;
    bool ok = true;
    for (size_t i = 0; i < a.terms.size() && ok; ++i) {
      int from = a.terms[i], to = b.terms[i];
      if (!TermsCompatible(from, to, *var_map)) {
        ok = false;
        break;
      }
      (*var_map)[from] = to;
    }
    if (ok && ExtendHomomorphism(skip, atom_idx + 1, var_map)) return true;
    *var_map = std::move(saved);
  }
  return false;
}

bool SpcTableau::HasFoldingHomomorphism(size_t skip) const {
  std::map<int, int> var_map;
  // Distinguished terms are fixed.
  for (size_t i = 0; i < terms_.size(); ++i) {
    if (terms_[i].distinguished) var_map[static_cast<int>(i)] = static_cast<int>(i);
  }
  return ExtendHomomorphism(skip, 0, &var_map);
}

int SpcTableau::Minimize() {
  int removed = 0;
  bool changed = true;
  while (changed && atoms_.size() > 1) {
    changed = false;
    for (size_t i = 0; i < atoms_.size(); ++i) {
      if (HasFoldingHomomorphism(i)) {
        atoms_.erase(atoms_.begin() + static_cast<long>(i));
        ++removed;
        changed = true;
        break;
      }
    }
  }
  return removed;
}

MinimizedSPC SpcTableau::Summarize() const {
  MinimizedSPC out;
  // Term -> attribute occurrences among retained atoms.
  std::map<int, std::vector<AttrRef>> occurrences;
  for (const auto& atom : atoms_) {
    out.tables.push_back({atom.relation, atom.alias});
    for (size_t i = 0; i < atom.columns.size(); ++i) {
      occurrences[atom.terms[i]].push_back({atom.alias, atom.columns[i]});
    }
  }
  for (const auto& [term_id, attrs] : occurrences) {
    const Term& term = terms_[term_id];
    if (attrs.size() >= 2) {
      out.eq_classes.push_back(attrs);
    }
    if (term.constant.has_value()) {
      for (const auto& a : attrs) out.const_attrs.emplace(a, *term.constant);
    }
    if (term.distinguished) {
      for (const auto& a : attrs) out.output_attrs.insert(a);
    }
  }
  return out;
}

std::set<AttrRef> MinimizedSPC::NeededAttrs(const std::string& alias) const {
  std::set<AttrRef> out;
  for (const auto& cls : eq_classes) {
    // A join predicate needs the attribute only if the class spans more than
    // one occurrence (it always does here by construction).
    for (const auto& a : cls) {
      if (a.alias == alias) out.insert(a);
    }
  }
  for (const auto& [a, v] : const_attrs) {
    (void)v;
    if (a.alias == alias) out.insert(a);
  }
  for (const auto& a : output_attrs) {
    if (a.alias == alias) out.insert(a);
  }
  return out;
}

std::string MinimizedSPC::ToString() const {
  std::ostringstream os;
  os << "atoms:";
  for (const auto& t : tables) os << " " << t.alias << ":" << t.table;
  os << " | eq:";
  for (const auto& cls : eq_classes) {
    os << " {";
    for (size_t i = 0; i < cls.size(); ++i) {
      if (i > 0) os << ",";
      os << cls[i].Qualified();
    }
    os << "}";
  }
  os << " | const:";
  for (const auto& [a, v] : const_attrs) {
    os << " " << a.Qualified() << "=" << v.ToString();
  }
  return os.str();
}

Result<MinimizedSPC> MinimizeSPC(const QuerySpec& spec,
                                 const Catalog& catalog) {
  ZIDIAN_ASSIGN_OR_RETURN(SpcTableau t, SpcTableau::FromQuery(spec, catalog));
  t.Minimize();
  return t.Summarize();
}

}  // namespace zidian
