// Trigger-program intermediate representation: the output of recursive
// compilation and the input of both the runtime interpreter and the C++
// code generator. Corresponds to the paper's "delta-processing functions" +
// "in-memory aggregate views" (§2 System Model).
#ifndef DBTOASTER_COMPILER_PROGRAM_H_
#define DBTOASTER_COMPILER_PROGRAM_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/ring/expr.h"
#include "src/sql/ast.h"
#include "src/storage/table.h"

namespace dbtoaster::compiler {

/// Declaration of one in-memory aggregate map.
struct MapDecl {
  std::string name;
  std::vector<std::string> key_names;  ///< canonical key variables (k0, ...)
  std::vector<Type> key_types;
  Type value_type = Type::kInt;

  /// Canonical definition: AggSum(key_names, body). Used for documentation,
  /// the compilation trace, and init-on-first-access evaluation.
  ring::ExprPtr definition;

  /// True when some maintenance statement cannot bind all of this map's keys
  /// from the event (LHS-driven iteration); reads of missing keys must then
  /// evaluate `definition` against the base tables (init-on-first-access).
  bool needs_init = false;

  /// MIN/MAX maps: maintained as per-key ordered multisets instead of ring
  /// deltas (correct under deletions).
  bool is_extreme = false;
  sql::AggKind extreme_kind = sql::AggKind::kMin;

  /// Recursion depth at which this map was introduced (result maps: 1),
  /// mirroring Figure 2's "Recursion level".
  int level = 1;

  std::string ToString() const;
};

/// One maintenance statement inside a trigger.
struct Statement {
  enum class Kind : uint8_t {
    kDelta,    ///< target[keys] += rhs   (snapshot semantics, phase 1)
    kExtreme,  ///< ordered-multiset add/remove (phase 2)
    kReeval,   ///< target[keys] := rhs   (post-state, phase 3; hybrid path)
  };

  Kind kind = Kind::kDelta;
  std::string target;
  std::vector<std::string> target_keys;  ///< variables; may be event params

  /// kDelta / kReeval: ring expression producing (key, value) deltas,
  /// grouped over `target_keys`.
  ring::ExprPtr rhs;

  /// Positions in target_keys that neither the event parameters nor the RHS
  /// can bind; the runtime iterates the target map's live keys for them.
  std::vector<size_t> lhs_iterate;

  // kExtreme only:
  int extreme_sign = +1;          ///< +1 add, -1 remove
  ring::TermPtr extreme_value;    ///< the aggregated value (over params)
  ring::ExprPtr extreme_guard;    ///< 0/1 filter over params (may be null)

  std::string ToString() const;
};

/// All statements to run for one (relation, insert|delete) event.
struct Trigger {
  std::string relation;
  EventKind event = EventKind::kInsert;
  std::vector<std::string> params;  ///< parameter variables, in schema order
  std::vector<Statement> statements;

  std::string Signature() const;  ///< e.g. "on_insert_R(a, b)"
  std::string ToString() const;
};

/// One output column of a result view.
struct ViewColumn {
  enum class Kind : uint8_t { kTerm, kExtremeRead };
  Kind kind = Kind::kTerm;
  std::string name;
  ring::TermPtr value;        ///< kTerm: term over key vars and map reads
  std::string extreme_map;    ///< kExtremeRead: MIN/MAX map to consult
  Type type = Type::kDouble;
};

/// The continuously-maintained result of one registered query.
struct ViewSpec {
  std::string name;
  std::string sql;
  std::vector<std::string> key_column_names;  ///< GROUP BY output columns
  std::vector<std::string> key_vars;          ///< ring variables of the keys
  std::vector<Type> key_types;
  std::vector<ViewColumn> columns;

  /// Map whose live keys enumerate the view's groups (a COUNT map over the
  /// same join/filter). Empty for global (non-grouped) views.
  std::string domain_map;

  /// HAVING guard: 0/1 ring expression over the key variables and resolved
  /// aggregate-map reads, evaluated per group when the view is read. Null
  /// when the query has no HAVING clause.
  ring::ExprPtr having;

  /// True when the query used the hybrid (subquery) compilation path.
  bool hybrid = false;
};

/// One row of the compilation trace — the reproduction of Figure 2.
struct TraceRow {
  int level;                 ///< recursion level (result queries: 1)
  std::string event;         ///< "+R", "-R", ...
  std::string target;        ///< map being maintained
  std::string query;         ///< the definition being delta-compiled
  std::string delta_code;    ///< rendered statement(s)
  std::vector<std::string> maps_used;
  std::vector<std::pair<std::string, std::string>> new_maps;  ///< name, defn
};

/// A complete compiled trigger program: maps, triggers, views, trace.
struct Program {
  Catalog catalog;
  std::vector<MapDecl> maps;
  std::vector<Trigger> triggers;
  std::vector<ViewSpec> views;
  std::vector<TraceRow> trace;

  const MapDecl* FindMap(const std::string& name) const;
  const Trigger* FindTrigger(const std::string& relation,
                             EventKind kind) const;
  const ViewSpec* FindView(const std::string& name) const;

  /// Full human-readable listing (maps, triggers, views).
  std::string ToString() const;

  /// Figure-2-style table: one row per (level, event, map), merging the
  /// insert/delete rows that are symmetric up to sign.
  std::string TraceTable() const;
};

/// Stores whose writes can change the rows of `view`, when the view reads
/// every map at exactly its group key: the domain map plus each map or
/// MIN/MAX map a column or the HAVING guard reads. A write at key k then
/// changes group k alone, so a served view re-renders only the groups its
/// sources' writes touched. std::nullopt when some read uses another key (a
/// slice, a global total under a grouped view, a permuted key), scans a base
/// relation, or hits an init-on-access map (whose reads can change without a
/// write): such a view is rendered in full. Rendering writes only
/// init-on-access maps, so it never logs a touch of a dirty source. Shared
/// by both backends.
std::optional<std::vector<std::string>> ViewDirtySources(
    const Program& program, const ViewSpec& view);

}  // namespace dbtoaster::compiler

#endif  // DBTOASTER_COMPILER_PROGRAM_H_
