#include "src/baseline/reeval_engine.h"

#include "src/sql/parser.h"

namespace dbtoaster::baseline {

ReevalEngine::ReevalEngine(const Catalog& catalog, bool eager)
    : catalog_(catalog), db_(catalog), eager_(eager) {
  RegisterIngestCatalog(catalog_);
}

Status ReevalEngine::AddQuery(const std::string& name,
                              const std::string& sql) {
  if (queries_.count(name)) {
    return Status::InvalidArgument("duplicate query name: " + name);
  }
  DBT_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                       sql::ParseSelect(sql));
  DBT_ASSIGN_OR_RETURN(std::shared_ptr<exec::BoundSelect> bound,
                       exec::Bind(*stmt, catalog_));
  queries_[name] = std::move(bound);
  return Status::OK();
}

Status ReevalEngine::RefreshViews() {
  // Multiple standing queries refresh concurrently on the shared worker
  // pool: each query owns its BoundSelect (and its lazily built plan), all
  // of them only read the tables, and every result lands in its own
  // pre-created slot — so the refresh is embarrassingly parallel and its
  // outcome is independent of the thread count.
  if (queries_.size() > 1 && runtime::shard_pool().threads() > 1) {
    struct Task {
      const exec::BoundSelect* bound;
      exec::QueryResult* slot;
      Status status;
    };
    std::vector<Task> tasks;
    tasks.reserve(queries_.size());
    for (const auto& [name, bound] : queries_) {
      tasks.push_back(Task{bound.get(), &last_results_[name], Status::OK()});
    }
    runtime::shard_pool().RunShards(tasks.size(), [&](size_t i) {
      exec::Executor ex(&db_);
      auto r = ex.Run(*tasks[i].bound);
      if (r.ok()) {
        *tasks[i].slot = std::move(r).value();
      } else {
        tasks[i].status = r.status();
      }
    });
    for (const Task& t : tasks) {
      DBT_RETURN_IF_ERROR(t.status);
    }
    return Status::OK();
  }
  exec::Executor ex(&db_);
  for (const auto& [name, bound] : queries_) {
    DBT_ASSIGN_OR_RETURN(exec::QueryResult r, ex.Run(*bound));
    last_results_[name] = std::move(r);
  }
  return Status::OK();
}

Status ReevalEngine::DoOnEvent(const Event& event) {
  DBT_RETURN_IF_ERROR(db_.Apply(event));
  if (!eager_) return Status::OK();
  return RefreshViews();
}

Status ReevalEngine::DoApplyBatch(runtime::EventBatch&& batch) {
  // All table updates first, then one view refresh for the whole batch:
  // this is exactly the amortization a DBMS gets from transaction batching.
  for (const runtime::EventBatch::Group& g : batch.groups()) {
    for (const Row& row : runtime::GroupRows(g)) {
      DBT_RETURN_IF_ERROR(db_.Apply(runtime::GroupKind(g), g.relation, row));
    }
  }
  if (!eager_ || batch.empty()) return Status::OK();
  return RefreshViews();
}

Result<exec::QueryResult> ReevalEngine::View(const std::string& name) {
  auto it = queries_.find(name);
  if (it == queries_.end()) {
    return Status::NotFound("unknown query: " + name);
  }
  if (eager_) {
    auto rit = last_results_.find(name);
    if (rit != last_results_.end()) return rit->second;
  }
  exec::Executor ex(&db_);
  return ex.Run(*it->second);
}

std::vector<std::string> ReevalEngine::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(queries_.size());
  for (const auto& [name, query] : queries_) names.push_back(name);
  return names;
}

size_t ReevalEngine::StateBytes() const { return db_.MemoryBytes(); }

Status ReevalEngine::SaveState(dbt::Ser* out) const {
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
  return Status::OK();
}

Status ReevalEngine::LoadState(dbt::Deser* in) {
  db_.Clear();
  last_results_.clear();
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
  if (!in->ok()) return Status::ParseError("restore: truncated snapshot");
  // Eager mode serves views from last_results_; rebuild them from the
  // restored tables so the first View() after recovery is already fresh.
  if (eager_ && !queries_.empty()) return RefreshViews();
  return Status::OK();
}

}  // namespace dbtoaster::baseline
