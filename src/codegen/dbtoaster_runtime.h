// Standalone runtime support for DBToaster-generated C++ code.
//
// Generated event handlers depend on this header ONLY — no other part of
// the repository — so emitted sources can be compiled into any application
// (the paper's "embedded mode"). Keep it minimal and allocation-conscious:
// the whole point of compilation is straight-line code over hash maps.
#ifndef DBTOASTER_CODEGEN_DBTOASTER_RUNTIME_H_
#define DBTOASTER_CODEGEN_DBTOASTER_RUNTIME_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

#include "dbt_flat_map.h"
#include "dbt_select.h"
#include "dbt_serialize.h"
#include "dbt_shard_pool.h"

namespace dbt {

/// Dynamic value at the program's untyped edges (batch columns, view rows);
/// the generated handler bodies are fully typed.
using Value = std::variant<int64_t, double, std::string>;

inline int64_t AsInt(const Value& v) {
  if (std::holds_alternative<int64_t>(v)) return std::get<int64_t>(v);
  if (std::holds_alternative<double>(v)) {
    return static_cast<int64_t>(std::get<double>(v));
  }
  return 0;
}
inline double AsDouble(const Value& v) {
  if (std::holds_alternative<double>(v)) return std::get<double>(v);
  if (std::holds_alternative<int64_t>(v)) {
    return static_cast<double>(std::get<int64_t>(v));
  }
  return 0.0;
}
inline const std::string& AsString(const Value& v) {
  static const std::string kEmpty;
  if (std::holds_alternative<std::string>(v)) return std::get<std::string>(v);
  return kEmpty;
}

/// SQL-style division: x/0 == 0.
inline double SafeDiv(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// SQL LIKE: '%' matches any run, '_' any single character. Matches the
/// interpreter's dbtoaster::LikeMatch exactly (no escape character).
inline bool Like(const std::string& s, const std::string& pattern) {
  size_t si = 0, pi = 0;
  size_t star_pi = std::string::npos, star_si = 0;
  while (si < s.size()) {
    if (pi < pattern.size() && (pattern[pi] == '_' || pattern[pi] == s[si])) {
      ++si;
      ++pi;
    } else if (pi < pattern.size() && pattern[pi] == '%') {
      star_pi = pi++;
      star_si = si;
    } else if (star_pi != std::string::npos) {
      pi = star_pi + 1;
      si = ++star_si;
    } else {
      return false;
    }
  }
  while (pi < pattern.size() && pattern[pi] == '%') ++pi;
  return pi == pattern.size();
}

/// Civil-calendar EXTRACT over days-since-epoch dates (Howard Hinnant's
/// civil_from_days; identical to the interpreter's DaysToCivil).
inline void CivilFromDays(int64_t days, int64_t* y, int64_t* m, int64_t* d) {
  const int64_t z = days + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const int64_t doe = z - era * 146097;
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = yoe + era * 400;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int64_t mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp + (mp < 10 ? 3 : -9);
  *y = yy + (*m <= 2 ? 1 : 0);
}
inline int64_t ExtractYear(int64_t days) {
  int64_t y, m, d;
  CivilFromDays(days, &y, &m, &d);
  return y;
}
inline int64_t ExtractMonth(int64_t days) {
  int64_t y, m, d;
  CivilFromDays(days, &y, &m, &d);
  return m;
}
inline int64_t ExtractDay(int64_t days) {
  int64_t y, m, d;
  CivilFromDays(days, &y, &m, &d);
  return d;
}

/// Outcome of a map mutation, consumed by the generated upd_/st_ wrappers
/// to maintain secondary slice indexes eagerly (no stale growth).
enum class Upd : uint8_t {
  kUnchanged = 0,  ///< no-op (zero delta): index state already correct
  kLive = 1,       ///< entry exists after the update
  kErased = 2,     ///< entry was removed (or set to zero)
};

/// Aggregate map: composite key -> value; integer entries reaching zero are
/// erased so the live key set tracks the aggregate's support. Backed by the
/// robin-hood FlatMap with pooled storage (see dbt_flat_map.h).
template <typename K, typename V>
class Map {
 public:
  using Store = FlatMap<K, V, TupleHash>;

  V get(const K& k) const {
    const V* v = data_.find(k);
    return v == nullptr ? V{} : *v;
  }
  bool contains(const K& k) const { return data_.contains(k); }

  /// Mutable slot of a live entry (nullptr when absent). The run-batched
  /// commit path in generated batch handlers hoists one probe per distinct
  /// key run and accumulates through the pointer; valid only until the next
  /// insertion into this map. Double-valued entries are never erased by
  /// add(), so `*slot += delta` per row is exactly the add() sequence.
  V* find_value(const K& k) { return data_.find(k); }

  Upd add(const K& k, V delta) {
    if (delta == V{}) return Upd::kUnchanged;
    auto [i, inserted] = data_.try_emplace(k, delta);
    if (inserted) return Upd::kLive;
    V& val = data_.value_at(i);
    val += delta;
    if constexpr (std::is_integral_v<V>) {
      if (val == V{}) {
        data_.erase_at(i);
        return Upd::kErased;
      }
    }
    return Upd::kLive;
  }

  Upd set(const K& k, V v) {
    if (v == V{}) {
      data_.erase(k);
      return Upd::kErased;
    }
    auto [i, inserted] = data_.try_emplace(k, v);
    if (!inserted) data_.value_at(i) = std::move(v);
    return Upd::kLive;
  }

  void clear() { data_.clear(); }
  size_t size() const { return data_.size(); }
  const Store& entries() const { return data_; }

  /// Visit every live (key, value) entry; used by generated load_state to
  /// rebuild slice indexes and by Sharded to fan iteration over parts.
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& e : data_) f(e.first, e.second);
  }

  /// Raw insert for deserialization: unlike set(), never interprets the
  /// value (a restored double 0.0 entry must survive — its presence in the
  /// live key set is state, see the class comment on integer erasure).
  void restore_entry(const K& k, const V& v) {
    auto [i, inserted] = data_.try_emplace(k, v);
    if (!inserted) data_.value_at(i) = v;
  }

  void save(Ser& s) const {
    s.u64(data_.size());
    for (const auto& e : data_) {
      Write(s, e.first);
      Write(s, e.second);
    }
  }
  bool load(Deser& d) {
    data_.clear();
    const uint64_t n = d.u64();
    for (uint64_t i = 0; i < n && d.ok(); ++i) {
      K k{};
      V v{};
      Read(d, &k);
      Read(d, &v);
      if (d.ok()) restore_entry(k, v);
    }
    return d.ok();
  }

  /// True slab-resident footprint plus spilled string payloads.
  size_t bytes() const {
    size_t n = sizeof(*this) + data_.pool_bytes();
    for (const auto& e : data_) n += ExternalBytes(e.first);
    return n;
  }

 private:
  Store data_;
};

/// Secondary slice index: prefix tuple -> set of full keys, maintained
/// eagerly by the generated mutation wrappers (full keys are erased when
/// the owning Map erases a zeroed entry). All key-sets draw from the
/// index's slab, so retired probe arrays are recycled across prefixes.
/// Readers still re-check the map value (a zero read contributes nothing):
/// hybrid re-evaluation statements clear maps without going through the
/// wrappers. This reproduces the nested-map access paths of the paper's
/// generated code (q_1_bc[b][c]).
template <typename P, typename K>
class SliceIndex {
 public:
  using KeySet = FlatSet<K, TupleHash>;

  SliceIndex() : slab_(new Slab), data_(slab_.get()) {}

  void insert(const P& prefix, const K& full_key) {
    auto [i, inserted] =
        data_.try_emplace_with(prefix, [&] { return KeySet(slab_.get()); });
    data_.value_at(i).insert(full_key);
  }
  void erase(const P& prefix, const K& full_key) {
    KeySet* set = data_.find(prefix);
    if (set == nullptr) return;
    set->erase(full_key);
    if (set->empty()) data_.erase(prefix);
  }
  const KeySet* lookup(const P& prefix) const { return data_.find(prefix); }
  void clear() { data_.clear(); }
  size_t size() const { return data_.size(); }

  size_t bytes() const {
    size_t n = sizeof(*this) + sizeof(Slab) + slab_->reserved_bytes();
    for (const auto& e : data_) {
      n += ExternalBytes(e.first);
      for (const K& k : e.second) n += ExternalBytes(k);
    }
    return n;
  }

 private:
  std::unique_ptr<Slab> slab_;  // stable address shared with the key-sets
  FlatMap<P, KeySet, TupleHash> data_;
};

/// Ordered multiset per group: MIN/MAX maintenance under deletions.
///
/// Counts may go negative transiently when a batch reorders a delete ahead
/// of its insert (the ring semantics of the base tables); min/max skip
/// non-positive counts, and counts returning to zero are erased. Each group
/// tracks its live (positive-count) value count, so groups holding only
/// debts answer min/max without scanning.
template <typename K, typename V>
class ExtremeMap {
 public:
  void add(const K& k, const V& v) { Bump(k, v, +1); }
  void remove(const K& k, const V& v) { Bump(k, v, -1); }
  /// Sign-parameterized form used by unified trigger bodies: +1 inserts the
  /// value into the group's multiset, -1 retracts it.
  void update(const K& k, const V& v, int64_t sign) { Bump(k, v, sign); }
  bool min(const K& k, V* out) const {
    const Group* g = data_.find(k);
    if (g == nullptr || g->live == 0) return false;
    for (const auto& [value, count] : g->counts) {
      if (count > 0) {
        *out = value;
        return true;
      }
    }
    return false;
  }
  bool max(const K& k, V* out) const {
    const Group* g = data_.find(k);
    if (g == nullptr || g->live == 0) return false;
    for (auto it = g->counts.rbegin(); it != g->counts.rend(); ++it) {
      if (it->second > 0) {
        *out = it->first;
        return true;
      }
    }
    return false;
  }
  size_t size() const { return data_.size(); }

  /// Counts are saved signed: a group holding only debts (negative counts
  /// from a delete reordered ahead of its insert) is real state and must
  /// survive a snapshot/restore cycle, or later inserts would resurrect
  /// values the stream already retracted.
  void save(Ser& s) const {
    s.u64(data_.size());
    for (const auto& e : data_) {
      Write(s, e.first);
      s.u64(e.second.counts.size());
      for (const auto& [value, count] : e.second.counts) {
        Write(s, value);
        s.i64(count);
      }
    }
  }
  bool load(Deser& d) {
    data_.clear();
    const uint64_t groups = d.u64();
    for (uint64_t g = 0; g < groups && d.ok(); ++g) {
      K k{};
      Read(d, &k);
      const uint64_t values = d.u64();
      for (uint64_t i = 0; i < values && d.ok(); ++i) {
        V v{};
        Read(d, &v);
        const int64_t count = d.i64();
        // Bump by the full signed count: live and the ordered multiset are
        // reconstructed exactly (zero counts are never saved).
        if (d.ok()) Bump(k, v, count);
      }
    }
    return d.ok();
  }

  size_t bytes() const {
    size_t n = sizeof(*this) + data_.pool_bytes();
    for (const auto& e : data_) {
      n += ExternalBytes(e.first);
      // std::map node: value, count, three pointers + color, rounded up.
      n += e.second.counts.size() * (sizeof(V) + sizeof(int64_t) + 40);
    }
    return n;
  }

 private:
  struct Group {
    std::map<V, int64_t> counts;
    int64_t live = 0;  ///< number of values with a positive count
  };

  void Bump(const K& k, const V& v, int64_t delta) {
    auto [i, inserted] = data_.try_emplace(k);
    Group& g = data_.value_at(i);
    auto [it, vnew] = g.counts.try_emplace(v, 0);
    const int64_t before = it->second;
    const int64_t after = (it->second += delta);
    g.live += static_cast<int64_t>(after > 0) - static_cast<int64_t>(before > 0);
    if (after == 0) g.counts.erase(it);
    if (g.counts.empty()) data_.erase_at(i);
  }

  FlatMap<K, Group, TupleHash> data_;
};

/// One typed column of a batch group: the storage every engine ingests,
/// and the flat arrays generated on_batch_<R> handlers scan. The first
/// value fixes the lane (dates travel as int64 days). An int64 lane widens
/// to f64 when a double arrives, and later ints join an f64 lane as
/// doubles, so no number in a DOUBLE column is truncated; widening is exact
/// for integers below 2^53. Strings and numbers never share a column: a
/// value of the other kind sets `conflict` and stores a placeholder (0 or
/// "") that keeps the column aligned, and the runtime's ingest boundary
/// rejects the batch as a type error.
struct EventColumn {
  enum class Tag : uint8_t { kI64 = 0, kF64 = 1, kStr = 2 };

  Tag tag = Tag::kI64;
  bool conflict = false;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<std::string> str;

  size_t size() const {
    switch (tag) {
      case Tag::kF64: return f64.size();
      case Tag::kStr: return str.size();
      default: return i64.size();
    }
  }

  void push(int64_t v) {
    switch (tag) {
      case Tag::kI64: i64.push_back(v); break;
      case Tag::kF64: f64.push_back(static_cast<double>(v)); break;
      case Tag::kStr:
        conflict = true;
        str.emplace_back();
        break;
    }
  }
  void push(double v) {
    if (tag == Tag::kI64) {
      f64.reserve(i64.size() + 1);
      for (int64_t x : i64) f64.push_back(static_cast<double>(x));
      i64.clear();
      tag = Tag::kF64;
    }
    if (tag == Tag::kF64) {
      f64.push_back(v);
    } else {
      conflict = true;
      str.emplace_back();
    }
  }
  void push(std::string v) {
    if (tag != Tag::kStr && size() == 0) tag = Tag::kStr;
    if (tag == Tag::kStr) {
      str.push_back(std::move(v));
    } else {
      conflict = true;
      push(int64_t{0});
    }
  }
  void push(const Value& v) {
    std::visit([this](const auto& x) { push(x); }, v);
  }

  Value get(size_t i) const {
    switch (tag) {
      case Tag::kF64: return Value(f64[i]);
      case Tag::kStr: return Value(str[i]);
      default: return Value(i64[i]);
    }
  }
};

/// The lane of type T a generated handler reads for one column: the
/// column's own array when its tag already holds T, otherwise `scratch`
/// filled with every value converted by AsInt / AsDouble / AsString (the
/// conversions a typed on_<R> call applies to a dynamic value).
template <typename T>
const T* Lane(const EventColumn& col, std::vector<T>* scratch) {
  if constexpr (std::is_same_v<T, int64_t>) {
    if (col.tag == EventColumn::Tag::kI64) return col.i64.data();
  } else if constexpr (std::is_same_v<T, double>) {
    if (col.tag == EventColumn::Tag::kF64) return col.f64.data();
  } else {
    if (col.tag == EventColumn::Tag::kStr) return col.str.data();
  }
  const size_t n = col.size();
  scratch->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Value v = col.get(i);
    if constexpr (std::is_same_v<T, int64_t>) {
      scratch->push_back(AsInt(v));
    } else if constexpr (std::is_same_v<T, double>) {
      scratch->push_back(AsDouble(v));
    } else {
      scratch->push_back(AsString(v));
    }
  }
  return scratch->data();
}

/// One batch of deltas, grouped per (relation, op) in first-encounter
/// order with columnar per-group storage. This is the one batch type: the
/// runtime's EventBatch builds these groups, the interpreted engines read
/// them, and generated on_batch handlers consume them directly.
class EventBatch {
 public:
  struct Group {
    std::string relation;
    bool is_insert = true;
    std::vector<EventColumn> cols;
    size_t rows = 0;

    /// Append one tuple of `arity` values; `push(col, c)` appends value c
    /// to `col`. Columns past the tuple's arity get 0, and a tuple wider
    /// than the group opens columns back-filled with 0, so every column
    /// always holds `rows` values.
    template <typename Push>
    void add_with(size_t arity, Push&& push) {
      if (cols.size() < arity) {
        const size_t old = cols.size();
        cols.resize(arity);
        for (size_t c = old; c < arity; ++c) cols[c].i64.assign(rows, 0);
      }
      for (size_t c = 0; c < cols.size(); ++c) {
        if (c < arity) {
          push(cols[c], c);
        } else {
          cols[c].push(int64_t{0});
        }
      }
      ++rows;
    }

    /// True when the group has `arity` columns of `rows` values each — the
    /// precondition a generated handler checks before reading lanes.
    bool well_formed(size_t arity) const {
      if (cols.size() != arity) return false;
      for (const EventColumn& c : cols) {
        if (c.size() != rows) return false;
      }
      return true;
    }
  };

  void add(const std::string& relation, bool is_insert,
           const std::vector<Value>& tuple) {
    add_with(relation, is_insert, tuple.size(),
             [&](EventColumn& col, size_t c) { col.push(tuple[c]); });
  }

  /// add() for callers with their own value type (see Group::add_with).
  template <typename Push>
  void add_with(const std::string& relation, bool is_insert, size_t arity,
                Push&& push) {
    find_group(relation, is_insert).add_with(arity, push);
    ++events_;
  }

  /// Append a whole decoded group (batch-log replay); a group whose
  /// (relation, op) is already present merges into it value by value.
  void add_group(Group&& g) {
    events_ += g.rows;
    for (Group& existing : groups_) {
      if (existing.is_insert == g.is_insert &&
          existing.relation == g.relation) {
        for (size_t i = 0; i < g.rows; ++i) {
          existing.add_with(g.cols.size(), [&](EventColumn& col, size_t c) {
            col.push(g.cols[c].get(i));
          });
        }
        return;
      }
    }
    groups_.push_back(std::move(g));
  }

  const std::vector<Group>& groups() const { return groups_; }
  size_t size() const { return events_; }
  bool empty() const { return events_ == 0; }
  void clear() {
    groups_.clear();
    events_ = 0;
  }

 private:
  Group& find_group(const std::string& relation, bool is_insert) {
    // Streams run long (relation, op) bursts; check the most recent group
    // first (the group count is bounded by 2 * #relations).
    if (!groups_.empty() && groups_.back().is_insert == is_insert &&
        groups_.back().relation == relation) {
      return groups_.back();
    }
    for (Group& g : groups_) {
      if (g.is_insert == is_insert && g.relation == relation) return g;
    }
    groups_.push_back(Group{relation, is_insert, {}, 0});
    return groups_.back();
  }

  std::vector<Group> groups_;
  size_t events_ = 0;
};

/// Lane schema of one relation at the dynamic boundary: the EventColumn
/// tags the program expects for each column (dates travel as kI64).
/// Published by generated programs so a driving engine can validate batch
/// arity and lane types before they reach the typed handlers.
struct RelationSchema {
  std::string name;
  std::vector<EventColumn::Tag> lanes;
};

/// Abstract driver interface implemented by every dbtc-generated program:
/// the dynamic surface that makes generated code drivable through the same
/// engine-agnostic interface as the interpreted engines (see
/// runtime::CompiledProgramEngine). The typed per-relation on_<R> handlers
/// remain the entry points for embedded use.
class StreamProgram {
 public:
  virtual ~StreamProgram() = default;

  /// Apply one batch group by group, in group order; returns the number of
  /// events handled. Groups of relations the program has no trigger for,
  /// and groups whose arity does not match the relation, are skipped.
  virtual size_t on_batch(const EventBatch& batch) = 0;

  /// Registered view names, in declaration order.
  virtual std::vector<std::string> view_names() const = 0;

  /// Output column names of `view` (empty for unknown views).
  virtual std::vector<std::string> view_column_names(
      const std::string& view) const = 0;

  /// Materialized rows of `view` at the dynamic boundary (empty for unknown
  /// views); the typed view_<name>() accessors avoid the conversion.
  virtual std::vector<std::vector<Value>> view_rows(
      const std::string& view) = 0;

  /// Total live entries across aggregate maps.
  virtual size_t total_map_entries() const = 0;

  /// Rough retained-bytes estimate of the maintained state.
  virtual size_t state_bytes() const = 0;

  /// Relation lane schemas for boundary validation (empty when the program
  /// predates schema publication; drivers then skip validation). Generated
  /// programs return every catalog relation, so base-table-only relations
  /// validate and are ignored by dispatch, exactly like the interpreter.
  virtual std::vector<RelationSchema> relation_schemas() const { return {}; }

  /// Serialize / restore the program's maintained state (aggregate maps,
  /// base multisets, extreme multisets; slice indexes are rebuilt on load).
  /// Return false when the program does not implement state capture (the
  /// default, kept for hand-written StreamProgram shims); generated
  /// programs override both. load_state must leave a program either fully
  /// restored (true) or report failure (false) — callers treat false as a
  /// corrupt snapshot, not a partial success.
  virtual bool save_state(Ser& ser) const {
    (void)ser;
    return false;
  }
  virtual bool load_state(Deser& deser) {
    (void)deser;
    return false;
  }
};

}  // namespace dbt

#endif  // DBTOASTER_CODEGEN_DBTOASTER_RUNTIME_H_
