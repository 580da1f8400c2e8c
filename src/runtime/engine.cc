#include "src/runtime/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <set>

#include "src/common/str.h"
#include "src/compiler/tir_verify.h"

namespace dbtoaster::runtime {

using compiler::MapDecl;
using compiler::Statement;

namespace {
uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Evaluate one extracted guard against a row's lane value — the
/// interpreter mirror of the dbt_select.h kernels. Value comparisons
/// promote across numeric types exactly like the scalar evaluator, so a
/// skipped row is precisely one whose statement RHS multiplies to zero
/// (ValueMap::Add drops zero deltas, making the skip unobservable).
bool PredMatches(const tir::PredSpec& ps, const Value& v) {
  switch (ps.kind) {
    case tir::PredSpec::Kind::kCmp:
      switch (ps.op) {
        case sql::BinOp::kEq: return v == ps.values[0];
        case sql::BinOp::kNeq: return v != ps.values[0];
        case sql::BinOp::kLt: return v < ps.values[0];
        case sql::BinOp::kLe: return v <= ps.values[0];
        case sql::BinOp::kGt: return v > ps.values[0];
        case sql::BinOp::kGe: return v >= ps.values[0];
        default: return true;  // extraction emits comparisons only
      }
    case tir::PredSpec::Kind::kRange:
      return ps.values[0] <= v && v < ps.values[1];
    case tir::PredSpec::Kind::kIn:
      for (const Value& c : ps.values) {
        if (v == c) return true;
      }
      return false;
  }
  return true;
}

/// Selection classes over a trigger's active delta statements: statements
/// with equal extracted pred lists share one survivor index vector,
/// mirroring the generated selection-vector prologue.
struct SelectionClasses {
  std::vector<const std::vector<tir::PredSpec>*> preds;  ///< per class
  std::vector<size_t> cls;  ///< per statement; SIZE_MAX = no guards

  /// Assign each statement (by position in `stmts`) to a pred class.
  explicit SelectionClasses(const std::vector<const tir::Stmt*>& stmts) {
    cls.assign(stmts.size(), SIZE_MAX);
    for (size_t d = 0; d < stmts.size(); ++d) {
      const std::vector<tir::PredSpec>& p = stmts[d]->preds;
      if (p.empty()) continue;
      for (size_t c = 0; c < preds.size(); ++c) {
        if (preds[c]->size() != p.size()) continue;
        bool same = true;
        for (size_t i = 0; i < p.size(); ++i) {
          if (!tir::PredSpecEquals((*preds[c])[i], p[i])) {
            same = false;
            break;
          }
        }
        if (same) {
          cls[d] = c;
          break;
        }
      }
      if (cls[d] == SIZE_MAX) {
        cls[d] = preds.size();
        preds.push_back(&p);
      }
    }
  }

  /// Survivor indices per class over `rows` (row indices into `tuples`).
  std::vector<std::vector<uint32_t>> Select(
      const Row* tuples, const std::vector<uint32_t>& rows) const {
    std::vector<std::vector<uint32_t>> sel(preds.size());
    for (size_t c = 0; c < preds.size(); ++c) {
      for (uint32_t i : rows) {
        bool pass = true;
        for (const tir::PredSpec& ps : *preds[c]) {
          if (!PredMatches(ps, tuples[i][ps.lane])) {
            pass = false;
            break;
          }
        }
        if (pass) sel[c].push_back(i);
      }
    }
    return sel;
  }
};
}  // namespace

std::string ProfileStats::ToString() const {
  std::string s = StrFormat("events processed: %llu (total %.3f ms)\n",
                            static_cast<unsigned long long>(events),
                            static_cast<double>(event_nanos) / 1e6);
  if (sharded_groups > 0) {
    s += StrFormat("  sharded groups: %llu\n",
                   static_cast<unsigned long long>(sharded_groups));
  }
  for (const auto& [rendering, st] : by_statement) {
    s += StrFormat("  %8llu exec  %10llu updates  %10.3f ms   %s\n",
                   static_cast<unsigned long long>(st.executions),
                   static_cast<unsigned long long>(st.updates),
                   static_cast<double>(st.nanos) / 1e6, rendering.c_str());
  }
  return s;
}

Engine::Engine(compiler::Program program)
    : program_(std::move(program)),
      tir_(tir::Lower(program_)),
      db_(program_.catalog),
      eval_(this) {
#ifndef NDEBUG
  // Debug builds refuse to interpret an unverified module; release builds
  // trust the dbtc pipeline gate.
  {
    Status verified = tir::VerifyOrError(tir_, "runtime::Engine");
    if (!verified.ok()) {
      std::fprintf(stderr, "%s\n", verified.ToString().c_str());
      assert(false && "tir module failed static verification");
    }
  }
#endif
  // Arm the boundary validator with the catalog: malformed batches bounce
  // with a structured Status before any trigger runs.
  RegisterIngestCatalog(program_.catalog);
  for (const MapDecl& decl : program_.maps) {
    decls_[decl.name] = &decl;
    if (decl.is_extreme) {
      extremes_.emplace(decl.name, ExtremeMap(decl.name, decl.key_names.size(),
                                              decl.value_type));
    } else {
      maps_.emplace(decl.name, ValueMap(decl.name, decl.key_names.size(),
                                        decl.value_type));
    }
  }
}

const ValueMap* Engine::value_map(const std::string& name) const {
  auto it = maps_.find(name);
  return it == maps_.end() ? nullptr : &it->second;
}

const ExtremeMap* Engine::extreme_map(const std::string& name) const {
  auto it = extremes_.find(name);
  return it == extremes_.end() ? nullptr : &it->second;
}

size_t Engine::MapMemoryBytes() const {
  size_t bytes = 0;
  for (const auto& [name, m] : maps_) bytes += m.MemoryBytes();
  for (const auto& [name, m] : extremes_) bytes += m.MemoryBytes();
  return bytes;
}

size_t Engine::TotalMapEntries() const {
  size_t n = 0;
  for (const auto& [name, m] : maps_) n += m.size();
  for (const auto& [name, m] : extremes_) n += m.size();
  return n;
}

size_t Engine::StateBytes() const { return MapMemoryBytes() + db_.MemoryBytes(); }

Result<Value> Engine::ReadMap(const std::string& map, const Row& key,
                              bool store_init) {
  auto it = maps_.find(map);
  if (it == maps_.end()) {
    return Status::NotFound("unknown map: " + map);
  }
  ValueMap& vm = it->second;
  if (vm.Contains(key)) return vm.Get(key);
  const MapDecl* decl = decls_.at(map);
  if (!decl->needs_init || decl->definition == nullptr || in_init_) {
    return vm.TypedZero();
  }
  // Init-on-first-access: evaluate the definition over the base tables with
  // the canonical keys bound to the requested key.
  in_init_ = true;
  Bindings env;
  for (size_t i = 0; i < decl->key_names.size(); ++i) {
    env[decl->key_names[i]] = key[i];
  }
  auto value = eval_.EvalScalar(decl->definition, env, /*store_init=*/false);
  in_init_ = false;
  if (!value.ok()) return value.status();
  Value v = value.value();
  if (vm.value_type() == Type::kDouble && v.is_int()) {
    v = Value(v.AsDouble());
  }
  if (store_init) {
    ApplyMapSet(&vm, key, v);
  }
  return v;
}

const ValueMap* Engine::FindMap(const std::string& map) const {
  return value_map(map);
}

void Engine::ApplyMapAdd(ValueMap* target, const Row& key,
                         const Value& delta) {
  target->Add(key, delta);
  Touched(target->name(), key);
  auto it = slice_indexes_.find(target->name());
  if (it != slice_indexes_.end()) {
    for (SliceIndex& idx : it->second) idx.Insert(key);
  }
}

void Engine::ApplyMapSet(ValueMap* target, const Row& key, Value value) {
  target->Set(key, std::move(value));
  Touched(target->name(), key);
  auto it = slice_indexes_.find(target->name());
  if (it != slice_indexes_.end()) {
    for (SliceIndex& idx : it->second) idx.Insert(key);
  }
}

namespace {
const std::unordered_set<Row, RowHash, RowEq>* SliceBuckets(
    const std::unordered_map<Row, std::unordered_set<Row, RowHash, RowEq>,
                             RowHash, RowEq>& buckets,
    const Row& key) {
  auto bit = buckets.find(key);
  if (bit == buckets.end()) {
    static const std::unordered_set<Row, RowHash, RowEq> kEmpty;
    return &kEmpty;
  }
  return &bit->second;
}
}  // namespace

const std::unordered_set<Row, RowHash, RowEq>* Engine::LookupMapSlice(
    const std::string& map, const std::vector<size_t>& positions,
    const Row& key) {
  auto mit = maps_.find(map);
  if (mit == maps_.end()) return nullptr;
  if (parallel_region_) {
    // Shard workers: lookups share the lock; a missing index upgrades to
    // exclusive and builds once. Returned bucket sets live in stable
    // unordered_map nodes, so they survive later index additions.
    {
      std::shared_lock<std::shared_mutex> read_lock(slice_mu_);
      auto it = slice_indexes_.find(map);
      if (it != slice_indexes_.end()) {
        for (SliceIndex& existing : it->second) {
          if (existing.positions == positions) {
            return SliceBuckets(existing.buckets, key);
          }
        }
      }
    }
    std::unique_lock<std::shared_mutex> write_lock(slice_mu_);
    auto& indexes = slice_indexes_[map];
    for (SliceIndex& existing : indexes) {
      if (existing.positions == positions) {
        return SliceBuckets(existing.buckets, key);
      }
    }
    indexes.push_back(SliceIndex{positions, {}});
    SliceIndex* idx = &indexes.back();
    for (const auto& [full_key, value] : mit->second.entries()) {
      idx->Insert(full_key);
    }
    return SliceBuckets(idx->buckets, key);
  }
  auto& indexes = slice_indexes_[map];
  SliceIndex* idx = nullptr;
  for (SliceIndex& existing : indexes) {
    if (existing.positions == positions) {
      idx = &existing;
      break;
    }
  }
  if (idx == nullptr) {
    // Build lazily from the current live entries.
    indexes.push_back(SliceIndex{positions, {}});
    idx = &indexes.back();
    for (const auto& [full_key, value] : mit->second.entries()) {
      idx->Insert(full_key);
    }
  }
  return SliceBuckets(idx->buckets, key);
}

const Table* Engine::FindRelation(const std::string& rel) const {
  return db_.FindTable(rel);
}

Status Engine::RunDeltaStatement(
    const Statement& stmt, const Bindings& env,
    std::vector<std::tuple<ValueMap*, Row, Value>>* pending) {
  auto it = maps_.find(stmt.target);
  if (it == maps_.end()) {
    return Status::Internal("delta statement on unknown map: " + stmt.target);
  }
  ValueMap* target = &it->second;

  // LHS-driven iteration: bind the un-derivable target keys from the live
  // key set of the target map.
  std::vector<Bindings> envs;
  if (stmt.lhs_iterate.empty()) {
    envs.push_back(env);
  } else {
    std::set<Row, bool (*)(const Row&, const Row&)> distinct(
        +[](const Row& a, const Row& b) {
          if (a.size() != b.size()) return a.size() < b.size();
          for (size_t i = 0; i < a.size(); ++i) {
            int c = Value::Compare(a[i], b[i]);
            if (c != 0) return c < 0;
          }
          return false;
        });
    for (const auto& [key, value] : target->entries()) {
      Row sub;
      sub.reserve(stmt.lhs_iterate.size());
      for (size_t pos : stmt.lhs_iterate) sub.push_back(key[pos]);
      distinct.insert(std::move(sub));
    }
    for (const Row& sub : distinct) {
      Bindings e2 = env;
      for (size_t i = 0; i < stmt.lhs_iterate.size(); ++i) {
        e2[stmt.target_keys[stmt.lhs_iterate[i]]] = sub[i];
      }
      envs.push_back(std::move(e2));
    }
  }

  size_t updates = 0;
  for (const Bindings& e2 : envs) {
    DBT_ASSIGN_OR_RETURN(Keyed result,
                         eval_.Eval(stmt.rhs, e2, /*store_init=*/false));
    for (auto& [row, value] : result.entries) {
      // Build the target key from the environment and the result row.
      Row key;
      key.reserve(stmt.target_keys.size());
      bool ok = true;
      for (const std::string& kv : stmt.target_keys) {
        auto eit = e2.find(kv);
        if (eit != e2.end()) {
          key.push_back(eit->second);
          continue;
        }
        auto pos = std::find(result.vars.begin(), result.vars.end(), kv);
        if (pos == result.vars.end()) {
          ok = false;
          break;
        }
        key.push_back(row[static_cast<size_t>(pos - result.vars.begin())]);
      }
      if (!ok) {
        return Status::Internal("statement cannot bind target key: " +
                                stmt.ToString());
      }
      pending->emplace_back(target, std::move(key), std::move(value));
      ++updates;
    }
  }
  if (trace_ != nullptr) trace_->OnStatement(stmt, updates);
  return Status::OK();
}

Status Engine::RunReevalStatement(const Statement& stmt, const Bindings& env) {
  auto it = maps_.find(stmt.target);
  if (it == maps_.end()) {
    return Status::Internal("reeval statement on unknown map: " + stmt.target);
  }
  ValueMap* target = &it->second;
  DBT_ASSIGN_OR_RETURN(Keyed result,
                       eval_.Eval(stmt.rhs, env, /*store_init=*/true));
  target->Clear();
  MarkUnknown(stmt.target);
  slice_indexes_.erase(stmt.target);  // rebuilt lazily on next slice access
  if (result.vars.empty()) {
    Value sum = target->TypedZero();
    for (const auto& [row, v] : result.entries) sum = Value::Add(sum, v);
    ApplyMapSet(target, {}, sum);
    if (trace_ != nullptr) trace_->OnStatement(stmt, 1);
    return Status::OK();
  }
  for (auto& [row, v] : result.entries) ApplyMapAdd(target, row, v);
  if (trace_ != nullptr) trace_->OnStatement(stmt, result.entries.size());
  return Status::OK();
}

Status Engine::RunExtremeStatement(const Statement& stmt,
                                   const Bindings& env, int sign) {
  auto it = extremes_.find(stmt.target);
  if (it == extremes_.end()) {
    return Status::Internal("extreme statement on unknown map: " +
                            stmt.target);
  }
  ExtremeMap* target = &it->second;
  if (stmt.extreme_guard != nullptr) {
    DBT_ASSIGN_OR_RETURN(Value g, eval_.EvalScalar(stmt.extreme_guard, env,
                                                   /*store_init=*/false));
    if (g.IsZero()) {
      if (trace_ != nullptr) trace_->OnStatement(stmt, 0);
      return Status::OK();
    }
  }
  Row key;
  key.reserve(stmt.target_keys.size());
  for (const std::string& kv : stmt.target_keys) {
    auto eit = env.find(kv);
    if (eit == env.end()) {
      return Status::Internal("unbound extreme key variable: " + kv);
    }
    key.push_back(eit->second);
  }
  DBT_ASSIGN_OR_RETURN(Value v, eval_.EvalTerm(stmt.extreme_value, env,
                                               /*store_init=*/false));
  if (sign > 0) {
    target->Add(key, v);
  } else {
    target->Remove(key, v);
  }
  Touched(stmt.target, key);
  if (trace_ != nullptr) trace_->OnStatement(stmt, 1);
  return Status::OK();
}

void Engine::Defer(const Statement* stmt, const std::string* rendering,
                   DeferredReevals* deferred) {
  // Dedup by target: the compiler emits one kReeval statement per
  // (relation, op) trigger for the same hybrid target, all with identical
  // RHS — one refresh per batch covers them all.
  for (const auto& [s, r] : *deferred) {
    if (s->target == stmt->target) return;
  }
  deferred->emplace_back(stmt, rendering);
}

Status Engine::FlushDeferredReevals(DeferredReevals* deferred) {
  Bindings empty_env;
  uint64_t start = NowNanos();
  for (const auto& [stmt, rendering] : *deferred) {
    uint64_t t0 = NowNanos();
    DBT_RETURN_IF_ERROR(RunReevalStatement(*stmt, empty_env));
    auto& st = profile_.by_statement[*rendering];
    st.rendering = *rendering;
    st.executions++;
    st.nanos += NowNanos() - t0;
  }
  if (!deferred->empty()) profile_.event_nanos += NowNanos() - start;
  deferred->clear();
  return Status::OK();
}

Status Engine::CheckGroupArity(const tir::Trigger& trigger, const Row* tuples,
                               size_t count) const {
  for (size_t e = 0; e < count; ++e) {
    if (trigger.params.size() != tuples[e].size()) {
      return Status::InvalidArgument(StrFormat(
          "event arity %zu does not match trigger %s", tuples[e].size(),
          trigger.signature.c_str()));
    }
  }
  return Status::OK();
}

std::vector<ProfileStats::StatementStats*> Engine::ResolveStats(
    const tir::Trigger& trigger) {
  std::vector<ProfileStats::StatementStats*> stats(trigger.stmts.size());
  for (size_t si = 0; si < trigger.stmts.size(); ++si) {
    ProfileStats::StatementStats& st =
        profile_.by_statement[trigger.stmts[si].rendering];
    st.rendering = trigger.stmts[si].rendering;
    stats[si] = &st;
  }
  return stats;
}

Status Engine::ApplyGroupSequential(const tir::Trigger& trigger,
                                    EventKind kind, const Row* tuples,
                                    size_t count, DeferredReevals* deferred) {
  std::vector<ProfileStats::StatementStats*> stats = ResolveStats(trigger);
  const int sign = kind == EventKind::kInsert ? +1 : -1;

  Bindings env;
  env[tir::kSignVar] = Value(static_cast<int64_t>(sign));
  for (size_t e = 0; e < count; ++e) {
    const Row& tuple = tuples[e];
    if (trace_ != nullptr) {
      trace_->OnEvent(Event{kind, trigger.relation, tuple});
    }
    if (trigger.params.size() != tuple.size()) {
      return Status::InvalidArgument(
          StrFormat("event arity %zu does not match trigger %s", tuple.size(),
                    trigger.signature.c_str()));
    }
    for (size_t i = 0; i < trigger.params.size(); ++i) {
      env[trigger.params[i].name] = tuple[i];
    }

    // Phase 1: evaluate all delta statements against the pre-state.
    pending_.clear();
    for (size_t si = 0; si < trigger.stmts.size(); ++si) {
      const tir::Stmt& s = trigger.stmts[si];
      if (s.stmt.kind != Statement::Kind::kDelta || !StmtActive(s, kind)) {
        continue;
      }
      uint64_t t0 = NowNanos();
      size_t before = pending_.size();
      DBT_RETURN_IF_ERROR(RunDeltaStatement(s.stmt, env, &pending_));
      stats[si]->executions++;
      stats[si]->updates += pending_.size() - before;
      stats[si]->nanos += NowNanos() - t0;
    }

    // Phase 2: apply the event to the base tables, then the map deltas.
    DBT_RETURN_IF_ERROR(db_.Apply(kind, trigger.relation, tuple));
    for (auto& [target, key, value] : pending_) {
      if (trace_ != nullptr) {
        Value old_value = target->Get(key);
        ApplyMapAdd(target, key, value);
        trace_->OnMapUpdate(target->name(), key, old_value, target->Get(key));
      } else {
        ApplyMapAdd(target, key, value);
      }
    }

    // Phase 2b: extreme (MIN/MAX multiset) statements over the post-state.
    for (size_t si = 0; si < trigger.stmts.size(); ++si) {
      const tir::Stmt& s = trigger.stmts[si];
      if (s.stmt.kind != Statement::Kind::kExtreme || !StmtActive(s, kind)) {
        continue;
      }
      uint64_t t0 = NowNanos();
      DBT_RETURN_IF_ERROR(RunExtremeStatement(
          s.stmt, env, s.extreme_runtime_sign ? sign : s.stmt.extreme_sign));
      stats[si]->executions++;
      stats[si]->nanos += NowNanos() - t0;
    }

    // Phase 3: hybrid re-evaluation statements over the post-state. They
    // depend only on the maintained maps and base tables, never on the
    // event parameters — an empty environment also prevents accidental
    // capture of query variables that share a name with trigger parameters.
    // Statements whose target nothing reads are deferred to the batch end.
    Bindings empty_env;
    for (size_t si = 0; si < trigger.stmts.size(); ++si) {
      const tir::Stmt& s = trigger.stmts[si];
      if (s.stmt.kind != Statement::Kind::kReeval || !StmtActive(s, kind)) {
        continue;
      }
      if (s.reeval_deferrable && trace_ == nullptr) {
        Defer(&s.stmt, &s.rendering, deferred);
        continue;
      }
      uint64_t t0 = NowNanos();
      DBT_RETURN_IF_ERROR(RunReevalStatement(s.stmt, empty_env));
      stats[si]->executions++;
      stats[si]->nanos += NowNanos() - t0;
    }
  }
  return Status::OK();
}

Status Engine::ApplyGroupVectorized(const tir::Trigger& trigger,
                                    EventKind kind, const Row* tuples,
                                    size_t count, DeferredReevals* deferred) {
  DBT_RETURN_IF_ERROR(CheckGroupArity(trigger, tuples, count));
  std::vector<ProfileStats::StatementStats*> stats = ResolveStats(trigger);
  const int sign = kind == EventKind::kInsert ? +1 : -1;

  // Phase 1: each delta statement runs once over the vector of bindings,
  // all against the group pre-state (safe per the trigger's IR analysis).
  // Statically-zero statements are dropped up front; extracted guards run
  // once per distinct pred list as a selection prologue (the interpreter
  // mirror of the generated vec_<R> handlers), and each guarded statement
  // then visits only its surviving rows.
  pending_.clear();
  Bindings env;
  env[tir::kSignVar] = Value(static_cast<int64_t>(sign));
  std::vector<const tir::Stmt*> deltas;
  std::vector<size_t> delta_si;
  for (size_t si = 0; si < trigger.stmts.size(); ++si) {
    const tir::Stmt& s = trigger.stmts[si];
    if (s.stmt.kind != Statement::Kind::kDelta || !StmtActive(s, kind) ||
        s.statically_zero) {
      continue;
    }
    deltas.push_back(&s);
    delta_si.push_back(si);
  }
  std::vector<uint32_t> all(count);
  for (size_t e = 0; e < count; ++e) all[e] = static_cast<uint32_t>(e);
  const SelectionClasses classes(deltas);
  const std::vector<std::vector<uint32_t>> sel = classes.Select(tuples, all);

  for (size_t d = 0; d < deltas.size(); ++d) {
    const tir::Stmt& s = *deltas[d];
    const size_t si = delta_si[d];
    uint64_t t0 = NowNanos();
    size_t before = pending_.size();
    const std::vector<uint32_t>& rows =
        classes.cls[d] != SIZE_MAX ? sel[classes.cls[d]] : all;
    for (uint32_t e : rows) {
      for (size_t i = 0; i < trigger.params.size(); ++i) {
        env[trigger.params[i].name] = tuples[e][i];
      }
      DBT_RETURN_IF_ERROR(RunDeltaStatement(s.stmt, env, &pending_));
    }
    stats[si]->executions += rows.size();
    stats[si]->updates += pending_.size() - before;
    stats[si]->nanos += NowNanos() - t0;
  }

  // Phase 2: flush the whole group — base tables first, then the map
  // deltas (additive, so application order within the group is free).
  for (size_t e = 0; e < count; ++e) {
    DBT_RETURN_IF_ERROR(db_.Apply(kind, trigger.relation, tuples[e]));
  }
  for (auto& [target, key, value] : pending_) ApplyMapAdd(target, key, value);

  // Phase 2b: extreme statements (parameter-only, order-independent).
  for (size_t si = 0; si < trigger.stmts.size(); ++si) {
    const tir::Stmt& s = trigger.stmts[si];
    if (s.stmt.kind != Statement::Kind::kExtreme || !StmtActive(s, kind)) {
      continue;
    }
    uint64_t t0 = NowNanos();
    for (size_t e = 0; e < count; ++e) {
      for (size_t i = 0; i < trigger.params.size(); ++i) {
        env[trigger.params[i].name] = tuples[e][i];
      }
      DBT_RETURN_IF_ERROR(RunExtremeStatement(
          s.stmt, env, s.extreme_runtime_sign ? sign : s.stmt.extreme_sign));
    }
    stats[si]->executions += count;
    stats[si]->nanos += NowNanos() - t0;
  }

  // Phase 3: re-evaluation statements are all deferrable here (that is part
  // of being vectorizable); they run once at the end of the batch.
  for (const tir::Stmt& s : trigger.stmts) {
    if (s.stmt.kind != Statement::Kind::kReeval || !StmtActive(s, kind)) {
      continue;
    }
    Defer(&s.stmt, &s.rendering, deferred);
  }
  return Status::OK();
}

Status Engine::ApplyGroupSharded(const tir::Trigger& trigger, EventKind kind,
                                 const Row* tuples, size_t count,
                                 DeferredReevals* deferred) {
  DBT_RETURN_IF_ERROR(CheckGroupArity(trigger, tuples, count));
  std::vector<ProfileStats::StatementStats*> stats = ResolveStats(trigger);
  const int sign = kind == EventKind::kInsert ? +1 : -1;

  std::vector<size_t> delta_stmts;
  std::vector<const tir::Stmt*> deltas;
  for (size_t si = 0; si < trigger.stmts.size(); ++si) {
    if (trigger.stmts[si].stmt.kind == Statement::Kind::kDelta &&
        StmtActive(trigger.stmts[si], kind) &&
        !trigger.stmts[si].statically_zero) {
      delta_stmts.push_back(si);
      deltas.push_back(&trigger.stmts[si]);
    }
  }

  profile_.sharded_groups++;
  const ShardPlan plan =
      ShardPlan::Partition(tuples, count, trigger.partition_cols);

  // Phase 1 fan-out: each worker evaluates its shards' bindings against the
  // shared pre-state (reads only; parallel_safe guarantees no initializer
  // evaluation) into private per-statement pending vectors.
  struct ShardOut {
    std::vector<std::vector<std::tuple<ValueMap*, Row, Value>>> pending;
    std::vector<uint64_t> nanos;
    Status status = Status::OK();
  };
  std::array<ShardOut, kNumShards> outs;
  for (ShardOut& out : outs) {
    out.pending.resize(delta_stmts.size());
    out.nanos.assign(delta_stmts.size(), 0);
  }

  const SelectionClasses classes(deltas);
  parallel_region_ = true;
  shard_pool().RunShards(kNumShards, [&](size_t s) {
    ShardOut& out = outs[s];
    Bindings env;
    env[tir::kSignVar] = Value(static_cast<int64_t>(sign));
    // Selection runs after the shard split: guards filter this worker's
    // private sub-range only, so per-shard work (and therefore the merged
    // state) is independent of the pool's thread count.
    const std::vector<std::vector<uint32_t>> sel =
        classes.Select(tuples, plan.shards[s]);
    for (size_t d = 0; d < delta_stmts.size(); ++d) {
      const Statement& stmt = trigger.stmts[delta_stmts[d]].stmt;
      const std::vector<uint32_t>& rows =
          classes.cls[d] != SIZE_MAX ? sel[classes.cls[d]] : plan.shards[s];
      const uint64_t t0 = NowNanos();
      for (uint32_t i : rows) {
        const Row& tuple = tuples[i];
        for (size_t p = 0; p < trigger.params.size(); ++p) {
          env[trigger.params[p].name] = tuple[p];
        }
        Status st = RunDeltaStatement(stmt, env, &out.pending[d]);
        if (!st.ok()) {
          out.status = std::move(st);
          out.nanos[d] += NowNanos() - t0;
          return;
        }
      }
      out.nanos[d] += NowNanos() - t0;
    }
  });
  parallel_region_ = false;
  for (const ShardOut& out : outs) {
    if (!out.status.ok()) return out.status;
  }

  for (size_t d = 0; d < delta_stmts.size(); ++d) {
    ProfileStats::StatementStats* st = stats[delta_stmts[d]];
    st->executions += count;
    for (const ShardOut& out : outs) {
      st->updates += out.pending[d].size();
      st->nanos += out.nanos[d];  // CPU time, summed across workers
    }
  }

  // Merge: base tables in group order, then pendings statement-major in
  // logical-shard order — fixed by the plan, so the application sequence
  // (and therefore every map, byte for byte) is identical at any thread
  // count, including the inline threads=1 run.
  for (size_t e = 0; e < count; ++e) {
    DBT_RETURN_IF_ERROR(db_.Apply(kind, trigger.relation, tuples[e]));
  }
  for (size_t d = 0; d < delta_stmts.size(); ++d) {
    for (ShardOut& out : outs) {
      for (auto& [target, key, value] : out.pending[d]) {
        ApplyMapAdd(target, key, value);
      }
    }
  }

  // Phase 2b: extreme statements (parameter-only), in group order.
  Bindings env;
  env[tir::kSignVar] = Value(static_cast<int64_t>(sign));
  for (size_t si = 0; si < trigger.stmts.size(); ++si) {
    const tir::Stmt& s = trigger.stmts[si];
    if (s.stmt.kind != Statement::Kind::kExtreme || !StmtActive(s, kind)) {
      continue;
    }
    uint64_t t0 = NowNanos();
    for (size_t e = 0; e < count; ++e) {
      for (size_t p = 0; p < trigger.params.size(); ++p) {
        env[trigger.params[p].name] = tuples[e][p];
      }
      DBT_RETURN_IF_ERROR(RunExtremeStatement(
          s.stmt, env, s.extreme_runtime_sign ? sign : s.stmt.extreme_sign));
    }
    stats[si]->executions += count;
    stats[si]->nanos += NowNanos() - t0;
  }

  // Phase 3: deferrable re-evaluations, once at batch end.
  for (const tir::Stmt& s : trigger.stmts) {
    if (s.stmt.kind != Statement::Kind::kReeval || !StmtActive(s, kind)) {
      continue;
    }
    Defer(&s.stmt, &s.rendering, deferred);
  }
  return Status::OK();
}

Status Engine::ApplyGroup(const std::string& relation, EventKind kind,
                          const Row* tuples, size_t count,
                          DeferredReevals* deferred) {
  if (count == 0) return Status::OK();
  uint64_t start = NowNanos();
  const tir::Trigger* trigger = tir_.FindTrigger(relation);
  const bool has_side =
      trigger != nullptr && (kind == EventKind::kInsert ? trigger->has_insert
                                                        : trigger->has_delete);

  Status status = Status::OK();
  if (!has_side) {
    // No trigger for this (relation, op): the event still updates the
    // base-table snapshot.
    for (size_t e = 0; e < count; ++e) {
      if (trace_ != nullptr) trace_->OnEvent(Event{kind, relation, tuples[e]});
      status = db_.Apply(kind, relation, tuples[e]);
      if (!status.ok()) break;
    }
  } else if (trace_ == nullptr && trigger->vectorizable && count > 1) {
    // The sharded path is chosen by group size alone — never by the pool's
    // thread count — so a batch sequence produces identical state at every
    // thread count (threads=1 runs the same shard order inline).
    if (trigger->parallel_safe && count >= dbt::kShardBatchCutoff) {
      status = ApplyGroupSharded(*trigger, kind, tuples, count, deferred);
    } else {
      status = ApplyGroupVectorized(*trigger, kind, tuples, count, deferred);
    }
  } else {
    status = ApplyGroupSequential(*trigger, kind, tuples, count, deferred);
  }

  if (!status.ok()) return status;
  profile_.events += count;
  profile_.event_nanos += NowNanos() - start;
  return Status::OK();
}

Status Engine::DoApplyBatch(EventBatch&& batch) {
  DeferredReevals deferred;
  for (const EventBatch::Group& g : batch.groups()) {
    const std::vector<Row> rows = GroupRows(g);
    DBT_RETURN_IF_ERROR(ApplyGroup(g.relation, GroupKind(g), rows.data(),
                                   rows.size(), &deferred));
  }
  return FlushDeferredReevals(&deferred);
}

Status Engine::DoOnEvent(const Event& event) {
  DeferredReevals deferred;
  DBT_RETURN_IF_ERROR(
      ApplyGroup(event.relation, event.kind, &event.tuple, 1, &deferred));
  return FlushDeferredReevals(&deferred);
}

Status Engine::SaveState(dbt::Ser* out) const {
  // Base tables by relation name, in catalog order.
  const Catalog& catalog = program_.catalog;
  out->u64(catalog.relations().size());
  for (const Schema& schema : catalog.relations()) {
    out->str(schema.name());
    const Table* table = db_.FindTable(schema.name());
    if (table == nullptr) {
      return Status::Internal("save: missing table " + schema.name());
    }
    out->u64(table->rows().size());
    for (const auto& [row, mult] : table->rows()) {
      WriteRow(*out, row);
      out->i64(mult);
    }
  }
  // Aggregate maps by name (std::map order is deterministic).
  out->u64(maps_.size());
  for (const auto& [name, m] : maps_) {
    out->str(name);
    out->u64(m.size());
    for (const auto& [key, value] : m.entries()) {
      WriteRow(*out, key);
      WriteValue(*out, value);
    }
  }
  // MIN/MAX multisets: per group the full signed count histogram (negative
  // "debt" counts are part of the state and must round-trip).
  out->u64(extremes_.size());
  for (const auto& [name, m] : extremes_) {
    out->str(name);
    out->u64(m.groups().size());
    for (const auto& [key, group] : m.groups()) {
      WriteRow(*out, key);
      out->u64(group.counts.size());
      for (const auto& [value, count] : group.counts) {
        WriteValue(*out, value);
        out->i64(count);
      }
    }
  }
  return Status::OK();
}

Status Engine::LoadState(dbt::Deser* in) {
  db_.Clear();
  for (auto& [name, m] : maps_) m.Clear();
  for (auto& [name, m] : extremes_) m.Clear();
  // Slice indexes are derived from the maps; drop them and let the first
  // slice access rebuild from restored state.
  slice_indexes_.clear();
  for (auto& [name, log] : group_logs_) log.unknown = true;

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
      if (!ReadRow(*in, &row)) {
        return Status::ParseError("restore: corrupt row in table " + name);
      }
      table->Apply(row, in->i64());
    }
  }

  const uint64_t nmaps = in->u64();
  for (uint64_t t = 0; t < nmaps && in->ok(); ++t) {
    const std::string name = in->str();
    auto it = maps_.find(name);
    if (it == maps_.end()) {
      return Status::ParseError("restore: snapshot names unknown map '" +
                                name + "'");
    }
    const uint64_t n = in->u64();
    for (uint64_t i = 0; i < n && in->ok(); ++i) {
      Row key;
      Value value;
      if (!ReadRow(*in, &key) || !ReadValue(*in, &value)) {
        return Status::ParseError("restore: corrupt entry in map " + name);
      }
      it->second.Set(key, std::move(value));
    }
  }

  const uint64_t nextremes = in->u64();
  for (uint64_t t = 0; t < nextremes && in->ok(); ++t) {
    const std::string name = in->str();
    auto it = extremes_.find(name);
    if (it == extremes_.end()) {
      return Status::ParseError(
          "restore: snapshot names unknown extreme map '" + name + "'");
    }
    const uint64_t ngroups = in->u64();
    for (uint64_t g = 0; g < ngroups && in->ok(); ++g) {
      Row key;
      if (!ReadRow(*in, &key)) {
        return Status::ParseError("restore: corrupt key in extreme map " +
                                  name);
      }
      const uint64_t nvalues = in->u64();
      for (uint64_t v = 0; v < nvalues && in->ok(); ++v) {
        Value value;
        if (!ReadValue(*in, &value)) {
          return Status::ParseError("restore: corrupt value in extreme map " +
                                    name);
        }
        it->second.AddCount(key, value, in->i64());
      }
    }
  }

  if (!in->ok()) return Status::ParseError("restore: truncated snapshot");
  return Status::OK();
}

std::vector<std::string> Engine::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(program_.views.size());
  for (const compiler::ViewSpec& v : program_.views) names.push_back(v.name);
  return names;
}

Result<std::optional<Row>> Engine::RenderGroup(
    const compiler::ViewSpec& view, const Row& key) {
  struct Resume {
    bool* flag;
    bool was;
    ~Resume() { *flag = was; }
  } resume{&track_writes_, track_writes_};
  track_writes_ = false;

  Bindings env;
  for (size_t i = 0; i < view.key_vars.size(); ++i) {
    env[view.key_vars[i]] = key[i];
  }
  if (!view.key_vars.empty()) {
    const ValueMap* domain = value_map(view.domain_map);
    if (domain == nullptr) {
      return Status::Internal("missing domain map for view: " + view.name);
    }
    const Value count = domain->Get(key);
    if (count.is_numeric() && count.IsZero()) return std::optional<Row>();
  }
  // HAVING: post-aggregation guard over the materialized group maps.
  if (view.having != nullptr) {
    DBT_ASSIGN_OR_RETURN(
        Value v, eval_.EvalScalar(view.having, env, /*store_init=*/true));
    if (v.is_numeric() && v.IsZero()) return std::optional<Row>();
  }
  Row row;
  row.reserve(view.columns.size());
  for (const compiler::ViewColumn& c : view.columns) {
    if (c.kind == compiler::ViewColumn::Kind::kTerm) {
      DBT_ASSIGN_OR_RETURN(Value v,
                           eval_.EvalTerm(c.value, env, /*store_init=*/true));
      row.push_back(std::move(v));
      continue;
    }
    const ExtremeMap* em = extreme_map(c.extreme_map);
    if (em == nullptr) {
      return Status::Internal("missing extreme map: " + c.extreme_map);
    }
    auto v = decls_.at(c.extreme_map)->extreme_kind == sql::AggKind::kMin
                 ? em->Min(key)
                 : em->Max(key);
    row.push_back(v.has_value() ? *v
                                : (c.type == Type::kDouble ? Value(0.0)
                                                           : Value(int64_t{0})));
  }
  return std::optional<Row>(std::move(row));
}

Result<exec::QueryResult> Engine::View(const std::string& view_name) {
  const compiler::ViewSpec* view = program_.FindView(view_name);
  if (view == nullptr) {
    return Status::NotFound("unknown view: " + view_name);
  }
  exec::QueryResult out;
  // The view's columns are exactly the query's SELECT items (group keys
  // appear here iff the query selected them), matching SQL output schema.
  for (const compiler::ViewColumn& c : view->columns) {
    out.column_names.push_back(c.name);
  }
  DBT_RETURN_IF_ERROR(AllGroups(*view, [&](const Row&, const Row* row) {
    out.rows.emplace_back(*row, 1);
  }));
  return out;
}

Status Engine::AllGroups(const compiler::ViewSpec& view, const GroupFn& fn) {
  auto render = [&](const Row& key) -> Status {
    DBT_ASSIGN_OR_RETURN(std::optional<Row> row, RenderGroup(view, key));
    if (row.has_value()) fn(key, &*row);
    return Status::OK();
  };
  if (view.key_vars.empty()) return render({});
  const ValueMap* domain = value_map(view.domain_map);
  if (domain == nullptr) {
    return Status::Internal("missing domain map for view: " + view.name);
  }
  for (const auto& [key, count] : domain->entries()) {
    if (count.is_numeric() && count.IsZero()) continue;
    DBT_RETURN_IF_ERROR(render(key));
  }
  return Status::OK();
}

bool Engine::TrackView(const std::string& name, bool on,
                       std::vector<std::string>* columns) {
  auto it = group_logs_.find(name);
  if (it != group_logs_.end()) {
    for (auto& [map, logs] : source_logs_) {
      logs.erase(std::remove(logs.begin(), logs.end(), &it->second),
                 logs.end());
    }
    group_logs_.erase(it);
  }
  const compiler::ViewSpec* view = program_.FindView(name);
  std::optional<std::vector<std::string>> sources;
  if (on && view != nullptr) sources = compiler::ViewDirtySources(program_, *view);
  if (sources.has_value()) {
    GroupLog* log = &group_logs_[name];
    for (const std::string& m : *sources) source_logs_[m].push_back(log);
    if (columns != nullptr) {
      columns->clear();
      for (const compiler::ViewColumn& c : view->columns) {
        columns->push_back(c.name);
      }
    }
  }
  track_writes_ = !group_logs_.empty();
  return sources.has_value();
}

void Engine::MarkUnknown(const std::string& name) {
  auto it = source_logs_.find(name);
  if (it == source_logs_.end()) return;
  for (GroupLog* log : it->second) log->unknown = true;
}

bool Engine::ServedGroups(const std::string& name, bool all,
                          const GroupFn& fn) {
  auto it = group_logs_.find(name);
  const compiler::ViewSpec* view = program_.FindView(name);
  if (it == group_logs_.end() || view == nullptr) return false;
  GroupLog& log = it->second;
  std::vector<Row> keys = std::move(log.keys);
  log.keys.clear();
  const bool known = !log.unknown;
  log.unknown = false;
  if (all) return AllGroups(*view, fn).ok();
  if (!known) return false;
  std::unordered_set<Row, RowHash, RowEq> seen;
  for (const Row& key : keys) {
    if (!seen.insert(key).second) continue;
    auto row = RenderGroup(*view, key);
    if (!row.ok()) return false;
    fn(key, row.value().has_value() ? &*row.value() : nullptr);
  }
  return true;
}

Result<exec::QueryResult> Engine::AdhocQuery(const std::string& sql) {
  return exec::Executor::Query(sql, program_.catalog, db_);
}

}  // namespace dbtoaster::runtime
