#include "src/compiler/program.h"

#include <algorithm>
#include <set>

#include "src/common/str.h"

namespace dbtoaster::compiler {

std::string MapDecl::ToString() const {
  std::string s = name + "[";
  for (size_t i = 0; i < key_names.size(); ++i) {
    if (i) s += ", ";
    s += key_names[i] + ":" + TypeName(key_types[i]);
  }
  s += "] : " + std::string(TypeName(value_type));
  if (is_extreme) {
    s += StrFormat(" (%s multiset)", sql::AggKindName(extreme_kind));
  }
  if (definition) s += " := " + definition->ToString();
  if (needs_init) s += "  [init-on-access]";
  return s;
}

std::string Statement::ToString() const {
  std::string s;
  switch (kind) {
    case Kind::kDelta:
    case Kind::kReeval: {
      s = target + "[" + Join({target_keys.begin(), target_keys.end()}, ", ") +
          "]";
      s += kind == Kind::kDelta ? " += " : " := ";
      s += rhs->ToString();
      if (!lhs_iterate.empty()) {
        s += "  (foreach live ";
        for (size_t i = 0; i < lhs_iterate.size(); ++i) {
          if (i) s += ", ";
          s += target_keys[lhs_iterate[i]];
        }
        s += ")";
      }
      break;
    }
    case Kind::kExtreme: {
      s = target + "[" +
          Join({target_keys.begin(), target_keys.end()}, ", ") + "]";
      s += extreme_sign > 0 ? " <<add>> " : " <<remove>> ";
      s += extreme_value->ToString();
      if (extreme_guard) s += " when " + extreme_guard->ToString();
      break;
    }
  }
  return s;
}

std::string Trigger::Signature() const {
  return StrFormat("on_%s_%s(%s)",
                   event == EventKind::kInsert ? "insert" : "delete",
                   relation.c_str(),
                   Join({params.begin(), params.end()}, ", ").c_str());
}

std::string Trigger::ToString() const {
  std::string s = Signature() + " {\n";
  for (const Statement& st : statements) {
    s += "  " + st.ToString() + ";\n";
  }
  s += "}";
  return s;
}

const MapDecl* Program::FindMap(const std::string& name) const {
  for (const MapDecl& m : maps) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

const Trigger* Program::FindTrigger(const std::string& relation,
                                    EventKind kind) const {
  for (const Trigger& t : triggers) {
    if (t.relation == relation && t.event == kind) return &t;
  }
  return nullptr;
}

namespace {

/// Adds the maps `t` reads to `out`; false when a read is not at exactly
/// `key_vars`.
bool TermReadsAtKey(const ring::TermPtr& t,
                    const std::vector<std::string>& key_vars,
                    std::set<std::string>* out) {
  if (t == nullptr) return true;
  if (t->kind == ring::Term::Kind::kMapRead) {
    if (t->args.size() != key_vars.size()) return false;
    for (size_t i = 0; i < key_vars.size(); ++i) {
      if (!t->args[i]->IsVar() || t->args[i]->var != key_vars[i]) return false;
    }
    out->insert(t->map_name);
    return true;
  }
  return TermReadsAtKey(t->lhs, key_vars, out) &&
         TermReadsAtKey(t->rhs, key_vars, out);
}

bool ExprReadsAtKey(const ring::ExprPtr& e,
                    const std::vector<std::string>& key_vars,
                    std::set<std::string>* out) {
  if (e == nullptr) return true;
  switch (e->kind) {
    case ring::ExprKind::kRel:
      return false;
    case ring::ExprKind::kMapRef:
      if (e->args != key_vars) return false;
      out->insert(e->name);
      break;
    case ring::ExprKind::kValTerm:
    case ring::ExprKind::kLift:
      if (!TermReadsAtKey(e->term, key_vars, out)) return false;
      break;
    case ring::ExprKind::kCmp:
      if (!TermReadsAtKey(e->cmp_lhs, key_vars, out) ||
          !TermReadsAtKey(e->cmp_rhs, key_vars, out)) {
        return false;
      }
      break;
    default:
      break;
  }
  for (const ring::ExprPtr& c : e->children) {
    if (!ExprReadsAtKey(c, key_vars, out)) return false;
  }
  return true;
}

}  // namespace

std::optional<std::vector<std::string>> ViewDirtySources(
    const Program& program, const ViewSpec& view) {
  std::set<std::string> reads;
  if (!view.domain_map.empty()) reads.insert(view.domain_map);
  for (const ViewColumn& c : view.columns) {
    if (c.kind == ViewColumn::Kind::kExtremeRead) {
      reads.insert(c.extreme_map);
    } else if (!TermReadsAtKey(c.value, view.key_vars, &reads)) {
      return std::nullopt;
    }
  }
  if (!ExprReadsAtKey(view.having, view.key_vars, &reads)) return std::nullopt;
  for (const std::string& m : reads) {
    const MapDecl* decl = program.FindMap(m);
    if (decl == nullptr || decl->needs_init) return std::nullopt;
  }
  return std::vector<std::string>(reads.begin(), reads.end());
}

const ViewSpec* Program::FindView(const std::string& name) const {
  for (const ViewSpec& v : views) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

std::string Program::ToString() const {
  std::string s = "-- maps --\n";
  for (const MapDecl& m : maps) s += m.ToString() + "\n";
  s += "\n-- triggers --\n";
  for (const Trigger& t : triggers) s += t.ToString() + "\n";
  s += "\n-- views --\n";
  for (const ViewSpec& v : views) {
    s += v.name + "(" + Join(v.key_column_names, ", ");
    if (!v.key_column_names.empty()) s += ", ";
    std::vector<std::string> cols;
    for (const ViewColumn& c : v.columns) cols.push_back(c.name);
    s += Join(cols, ", ") + ")";
    if (v.hybrid) s += "  [hybrid]";
    s += "\n";
  }
  return s;
}

std::string Program::TraceTable() const {
  // Merge "+R" / "-R" rows whose other fields match into "±R".
  struct Merged {
    TraceRow row;
    bool plus = false, minus = false;
  };
  std::vector<Merged> merged;
  for (const TraceRow& r : trace) {
    bool is_plus = !r.event.empty() && r.event[0] == '+';
    std::string rel = r.event.substr(1);
    bool found = false;
    for (Merged& m : merged) {
      std::string mrel = m.row.event.substr(1);
      if (m.row.level == r.level && mrel == rel && m.row.target == r.target &&
          m.row.query == r.query) {
        if (is_plus) m.plus = true;
        else m.minus = true;
        found = true;
        break;
      }
    }
    if (!found) {
      Merged m;
      m.row = r;
      (is_plus ? m.plus : m.minus) = true;
      merged.push_back(std::move(m));
    }
  }
  std::sort(merged.begin(), merged.end(), [](const Merged& a, const Merged& b) {
    if (a.row.level != b.row.level) return a.row.level < b.row.level;
    return a.row.event.substr(1) < b.row.event.substr(1);
  });

  std::string s;
  s += StrFormat("%-6s %-6s %-10s %-48s %s\n", "level", "event", "target",
                 "query to compile", "delta code / maps introduced");
  s += std::string(150, '-') + "\n";
  for (const Merged& m : merged) {
    std::string ev = (m.plus && m.minus)
                         ? ("±" + m.row.event.substr(1))
                         : m.row.event;
    s += StrFormat("%-6d %-6s %-10s %-48s %s\n", m.row.level, ev.c_str(),
                   m.row.target.c_str(), m.row.query.c_str(),
                   m.row.delta_code.c_str());
    for (const auto& [name, defn] : m.row.new_maps) {
      s += StrFormat("%-6s %-6s %-10s %-48s new map %s := %s\n", "", "", "",
                     "", name.c_str(), defn.c_str());
    }
  }
  return s;
}

}  // namespace dbtoaster::compiler
