#include "src/baseline/ivm1_engine.h"

#include <algorithm>
#include <cassert>

#include "src/common/str.h"
#include "src/compiler/delta.h"
#include "src/compiler/simplify.h"
#include "src/sql/parser.h"

namespace dbtoaster::baseline {

using compiler::DeltaEvent;
using compiler::Statement;
using ring::ExprPtr;

namespace {
std::string ParamName(const std::string& column) {
  return "p_" + ToLower(column);
}
}  // namespace

Ivm1Engine::Ivm1Engine(const Catalog& catalog)
    : catalog_(catalog), db_(catalog) {
  RegisterIngestCatalog(catalog_);
  eval_ = std::make_unique<runtime::RingEvaluator>(this);
}

Status Ivm1Engine::AddQuery(const std::string& name, const std::string& sql) {
  if (queries_.count(name)) {
    return Status::InvalidArgument("duplicate query name: " + name);
  }
  DBT_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                       sql::ParseSelect(sql));
  DBT_ASSIGN_OR_RETURN(
      std::unique_ptr<compiler::TranslatedQuery> tq,
      compiler::Translate(*stmt, catalog_, name, &var_counter_));
  if (tq->hybrid) {
    return Status::NotSupported(
        "first-order IVM cannot maintain nested aggregates");
  }
  if (tq->left_join != nullptr) {
    return Status::NotSupported(
        "first-order IVM cannot maintain the outer-join unmatched branch "
        "(its delta reads a maintained match-count map)");
  }
  for (const auto& agg : tq->aggregates) {
    if (agg.is_extreme) {
      return Status::NotSupported(
          "first-order IVM cannot maintain MIN/MAX under deletions");
    }
  }

  RegisteredQuery rq;
  rq.result_maps.reserve(tq->aggregates.size());
  for (size_t a = 0; a < tq->aggregates.size(); ++a) {
    rq.result_maps.emplace_back(StrFormat("%s_a%zu", name.c_str(), a),
                                tq->group_vars.size(),
                                tq->aggregates[a].value_type);
    DBT_RETURN_IF_ERROR(CompileDeltas(&rq, a, tq->group_vars,
                                      tq->aggregates[a].expr));
  }
  if (!tq->group_vars.empty()) {
    rq.domain_map = runtime::ValueMap(name + "_dom", tq->group_vars.size(),
                                      Type::kInt);
    DBT_RETURN_IF_ERROR(
        CompileDeltas(&rq, kDomainSlot, tq->group_vars, tq->domain_expr));
  }
  rq.translated = std::move(tq);
  queries_.emplace(name, std::move(rq));
  return Status::OK();
}

Status Ivm1Engine::CompileDeltas(RegisteredQuery* rq, size_t slot,
                                 const std::vector<std::string>& /*group_vars*/,
                                 const ExprPtr& defn) {
  std::set<std::string> rels;
  defn->CollectRels(&rels);
  for (const std::string& rel : rels) {
    const Schema* schema = catalog_.FindRelation(rel);
    if (schema == nullptr) return Status::NotFound("unknown relation: " + rel);
    for (int sign : {+1, -1}) {
      DeltaEvent ev;
      ev.relation = schema->name();
      ev.sign = sign;
      for (size_t c = 0; c < schema->num_columns(); ++c) {
        ev.params.push_back(ParamName(schema->column_name(c)));
      }
      ExprPtr delta = compiler::Delta(defn, ev);
      std::set<std::string> params(ev.params.begin(), ev.params.end());
      DBT_ASSIGN_OR_RETURN(std::vector<compiler::DeltaUnit> units,
                           compiler::SimplifyDelta(delta, params));
      auto& bucket = rq->deltas[{schema->name(), sign}];
      for (compiler::DeltaUnit& u : units) {
        // First-order IVM: the RHS stays a query over base tables — no
        // materialisation, no recursion. The evaluator resolves relation
        // atoms through maintained hash indexes.
        bucket.push_back({slot, DeltaStatement{u.keys, u.rhs}});
      }
    }
  }
  return Status::OK();
}

Status Ivm1Engine::ApplyGroup(const std::string& relation, EventKind kind,
                              const Row* tuples, size_t count) {
  if (count == 0) return Status::OK();
  const Schema* schema = catalog_.FindRelation(relation);
  if (schema == nullptr) {
    return Status::NotFound("unknown relation: " + relation);
  }
  int sign = kind == EventKind::kInsert ? +1 : -1;

  // Hoist the per-event lookups out of the group loop: parameter names and
  // the (relation, sign) delta buckets are shared by every tuple. The delta
  // queries themselves still run one event at a time — first-order deltas
  // read the base tables (including the triggering relation), so events
  // within a group carry a sequential dependency.
  std::vector<std::string> params;
  params.reserve(schema->num_columns());
  for (size_t c = 0; c < schema->num_columns(); ++c) {
    params.push_back(ParamName(schema->column_name(c)));
  }
  struct Bucket {
    RegisteredQuery* rq;
    const std::vector<std::pair<size_t, DeltaStatement>>* stmts;
  };
  std::vector<Bucket> buckets;
  for (auto& [name, rq] : queries_) {
    auto it = rq.deltas.find({schema->name(), sign});
    if (it != rq.deltas.end()) buckets.push_back({&rq, &it->second});
  }

  struct PendingUpdate {
    runtime::ValueMap* target;
    Row key;
    Value delta;
  };
  std::vector<PendingUpdate> pending;
  runtime::Bindings env;
  for (size_t e = 0; e < count; ++e) {
    const Row& tuple = tuples[e];
    if (tuple.size() != schema->num_columns()) {
      return Status::InvalidArgument(
          StrFormat("event arity %zu does not match schema %s", tuple.size(),
                    schema->ToString().c_str()));
    }
    for (size_t c = 0; c < params.size(); ++c) env[params[c]] = tuple[c];

    // Evaluate all delta statements against the pre-state.
    pending.clear();
    for (const Bucket& bucket : buckets) {
      for (const auto& [slot, stmt] : *bucket.stmts) {
        runtime::ValueMap* target = slot == kDomainSlot
                                        ? &bucket.rq->domain_map
                                        : &bucket.rq->result_maps[slot];
        DBT_ASSIGN_OR_RETURN(runtime::Keyed result,
                             eval_->Eval(stmt.rhs, env, /*store_init=*/false));
        for (auto& [row, value] : result.entries) {
          Row key;
          key.reserve(stmt.keys.size());
          for (const std::string& kv : stmt.keys) {
            auto eit = env.find(kv);
            if (eit != env.end()) {
              key.push_back(eit->second);
              continue;
            }
            auto pos = std::find(result.vars.begin(), result.vars.end(), kv);
            if (pos == result.vars.end()) {
              return Status::Internal("ivm1 cannot bind group key: " + kv);
            }
            key.push_back(row[static_cast<size_t>(pos - result.vars.begin())]);
          }
          pending.push_back({target, std::move(key), std::move(value)});
        }
      }
    }

    // Apply the event to base tables + indexes, then the deltas.
    DBT_RETURN_IF_ERROR(db_.Apply(kind, relation, tuple));
    auto iit = indexes_.find(schema->name());
    if (iit != indexes_.end()) {
      for (auto& [positions, index] : iit->second) {
        index.Apply(tuple, sign);
      }
    }
    for (PendingUpdate& p : pending) p.target->Add(p.key, p.delta);
  }
  return Status::OK();
}

Status Ivm1Engine::DoOnEvent(const Event& event) {
  return ApplyGroup(event.relation, event.kind, &event.tuple, 1);
}

Status Ivm1Engine::DoApplyBatch(runtime::EventBatch&& batch) {
  for (const runtime::EventBatch::Group& g : batch.groups()) {
    const std::vector<Row> rows = runtime::GroupRows(g);
    DBT_RETURN_IF_ERROR(ApplyGroup(g.relation, runtime::GroupKind(g),
                                   rows.data(), rows.size()));
  }
  return Status::OK();
}

Status Ivm1Engine::SaveState(dbt::Ser* out) const {
  out->u64(catalog_.relations().size());
  for (const Schema& schema : catalog_.relations()) {
    out->str(schema.name());
    const Table* table = db_.FindTable(schema.name());
    if (table == nullptr) {
      return Status::Internal("save: missing table " + schema.name());
    }
    out->u64(table->rows().size());
    for (const auto& [row, mult] : table->rows()) {
      runtime::WriteRow(*out, row);
      out->i64(mult);
    }
  }
  // Per registered query: the materialized aggregate maps and the group
  // domain map (query registration itself is reconstructed by the caller,
  // not snapshotted).
  out->u64(queries_.size());
  for (const auto& [name, rq] : queries_) {
    out->str(name);
    auto save_map = [&out](const runtime::ValueMap& m) {
      out->u64(m.size());
      for (const auto& [key, value] : m.entries()) {
        runtime::WriteRow(*out, key);
        runtime::WriteValue(*out, value);
      }
    };
    out->u64(rq.result_maps.size());
    for (const runtime::ValueMap& m : rq.result_maps) save_map(m);
    save_map(rq.domain_map);
  }
  return Status::OK();
}

Status Ivm1Engine::LoadState(dbt::Deser* in) {
  db_.Clear();
  // Hash indexes are derived from the tables; drop them and let the first
  // indexed lookup rebuild from restored rows.
  indexes_.clear();
  for (auto& [name, rq] : queries_) {
    for (runtime::ValueMap& m : rq.result_maps) m.Clear();
    rq.domain_map.Clear();
  }

  const uint64_t ntables = in->u64();
  for (uint64_t t = 0; t < ntables && in->ok(); ++t) {
    const std::string name = in->str();
    Table* table = db_.FindTable(name);
    if (table == nullptr) {
      return Status::ParseError("restore: snapshot names unknown relation '" +
                                name + "'");
    }
    const uint64_t nrows = in->u64();
    for (uint64_t i = 0; i < nrows && in->ok(); ++i) {
      Row row;
      if (!runtime::ReadRow(*in, &row)) {
        return Status::ParseError("restore: corrupt row in table " + name);
      }
      table->Apply(row, in->i64());
    }
  }

  const uint64_t nqueries = in->u64();
  for (uint64_t q = 0; q < nqueries && in->ok(); ++q) {
    const std::string name = in->str();
    auto it = queries_.find(name);
    if (it == queries_.end()) {
      return Status::ParseError(
          "restore: snapshot names unregistered query '" + name +
          "' — register the same queries before restoring");
    }
    auto load_map = [in](runtime::ValueMap* m) -> bool {
      const uint64_t n = in->u64();
      for (uint64_t i = 0; i < n && in->ok(); ++i) {
        Row key;
        Value value;
        if (!runtime::ReadRow(*in, &key) || !runtime::ReadValue(*in, &value)) {
          return false;
        }
        m->Set(key, std::move(value));
      }
      return in->ok();
    };
    const uint64_t nmaps = in->u64();
    if (nmaps != it->second.result_maps.size()) {
      return Status::ParseError("restore: aggregate map count mismatch for " +
                                name);
    }
    for (runtime::ValueMap& m : it->second.result_maps) {
      if (!load_map(&m)) {
        return Status::ParseError("restore: corrupt aggregate map in " + name);
      }
    }
    if (!load_map(&it->second.domain_map)) {
      return Status::ParseError("restore: corrupt domain map in " + name);
    }
  }

  if (!in->ok()) return Status::ParseError("restore: truncated snapshot");
  return Status::OK();
}

Result<exec::QueryResult> Ivm1Engine::View(const std::string& name) {
  auto it = queries_.find(name);
  if (it == queries_.end()) {
    return Status::NotFound("unknown query: " + name);
  }
  RegisteredQuery& rq = it->second;
  const compiler::TranslatedQuery& tq = *rq.translated;

  exec::QueryResult out;
  for (const auto& c : tq.columns) out.column_names.push_back(c.name);

  // Resolve the "$<q>_agg<i>" placeholder reads against our result maps.
  std::map<std::string, std::string> names;
  for (size_t a = 0; a < rq.result_maps.size(); ++a) {
    names[StrFormat("$%s_agg%zu", tq.name.c_str(), a)] =
        rq.result_maps[a].name();
  }

  auto emit = [&](const runtime::Bindings& env) -> Status {
    Row row;
    for (const auto& c : tq.columns) {
      ring::TermPtr t = c.value->RenameMaps(names);
      DBT_ASSIGN_OR_RETURN(Value v,
                           eval_->EvalTerm(t, env, /*store_init=*/false));
      row.push_back(std::move(v));
    }
    out.rows.emplace_back(std::move(row), 1);
    return Status::OK();
  };

  // HAVING: view-time guard over this engine's result maps.
  ring::ExprPtr having =
      tq.having != nullptr ? tq.having->RenameMaps(names) : nullptr;
  auto passes_having = [&](const runtime::Bindings& env) -> Result<bool> {
    if (having == nullptr) return true;
    DBT_ASSIGN_OR_RETURN(
        Value v, eval_->EvalScalar(having, env, /*store_init=*/false));
    return !(v.is_numeric() && v.IsZero());
  };

  if (tq.group_vars.empty()) {
    runtime::Bindings env;
    DBT_ASSIGN_OR_RETURN(bool pass, passes_having(env));
    if (pass) {
      DBT_RETURN_IF_ERROR(emit(env));
    }
    return out;
  }
  for (const auto& [key, count] : rq.domain_map.entries()) {
    if (count.is_numeric() && count.IsZero()) continue;
    runtime::Bindings env;
    for (size_t i = 0; i < tq.group_vars.size(); ++i) {
      env[tq.group_vars[i]] = key[i];
    }
    DBT_ASSIGN_OR_RETURN(bool pass, passes_having(env));
    if (!pass) continue;
    DBT_RETURN_IF_ERROR(emit(env));
  }
  return out;
}

std::vector<std::string> Ivm1Engine::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(queries_.size());
  for (const auto& [name, rq] : queries_) names.push_back(name);
  return names;
}

size_t Ivm1Engine::StateBytes() const {
  size_t bytes = db_.MemoryBytes();
  for (const auto& [rel, by_pos] : indexes_) {
    for (const auto& [positions, index] : by_pos) {
      bytes += index.MemoryBytes();
    }
  }
  for (const auto& [name, rq] : queries_) {
    for (const auto& m : rq.result_maps) bytes += m.MemoryBytes();
    bytes += rq.domain_map.MemoryBytes();
  }
  return bytes;
}

Result<Value> Ivm1Engine::ReadMap(const std::string& map, const Row& key,
                                  bool /*store_init*/) {
  // Result maps are readable by name (used by View's term evaluation).
  for (auto& [name, rq] : queries_) {
    for (auto& m : rq.result_maps) {
      if (m.name() == map) return m.Get(key);
    }
    if (rq.domain_map.name() == map) return rq.domain_map.Get(key);
  }
  return Status::NotFound("unknown map in ivm1 engine: " + map);
}

const runtime::ValueMap* Ivm1Engine::FindMap(const std::string& map) const {
  for (const auto& [name, rq] : queries_) {
    for (const auto& m : rq.result_maps) {
      if (m.name() == map) return &m;
    }
    if (rq.domain_map.name() == map) return &rq.domain_map;
  }
  return nullptr;
}

const Table* Ivm1Engine::FindRelation(const std::string& rel) const {
  return db_.FindTable(rel);
}

const Multiset* Ivm1Engine::LookupRelIndex(
    const std::string& rel, const std::vector<size_t>& positions,
    const Row& key) {
  const Table* table = db_.FindTable(rel);
  if (table == nullptr) return nullptr;
  auto& by_pos = indexes_[table->schema().name()];
  auto it = by_pos.find(positions);
  if (it == by_pos.end()) {
    // Build the index lazily from the current (pre-event) table state.
    HashIndex index(positions);
    for (const auto& [row, mult] : table->rows()) index.Apply(row, mult);
    it = by_pos.emplace(positions, std::move(index)).first;
  }
  return it->second.Lookup(key);
}

}  // namespace dbtoaster::baseline
