#include "src/runtime/stream_engine.h"

#include <algorithm>

#include "src/codegen/dbtoaster_runtime.h"
#include "src/common/str.h"

namespace dbtoaster::runtime {

ShardPlan ShardPlan::Partition(const Row* tuples, size_t count,
                               const std::vector<size_t>& partition_cols) {
  ShardPlan plan;
  const size_t reserve = count / kNumShards + 4;
  for (auto& shard : plan.shards) shard.reserve(reserve);
  for (size_t i = 0; i < count; ++i) {
    size_t h;
    if (partition_cols.empty()) {
      h = RowHash{}(tuples[i]);
    } else {
      h = kHashSeed;
      for (size_t c : partition_cols) {
        h = HashCombine(h, tuples[i][c].Hash());
      }
    }
    plan.shards[dbt::ShardOfHash(h)].push_back(static_cast<uint32_t>(i));
  }
  return plan;
}

EventBatch EventBatch::Of(const Event& event) {
  EventBatch batch;
  batch.Add(event.kind, event.relation, event.tuple);
  return batch;
}

void EventBatch::Add(EventKind kind, const std::string& relation,
                     const Row& tuple) {
  add_with(relation, kind == EventKind::kInsert, tuple.size(),
           [&](EventColumn& col, size_t c) {
             const Value& v = tuple[c];
             if (v.is_string()) {
               col.push(v.AsString());
             } else if (v.is_double()) {
               col.push(v.AsDouble());
             } else {
               col.push(v.AsInt());
             }
           });
}

Row GroupRow(const EventBatch::Group& g, size_t i) {
  Row out;
  out.reserve(g.cols.size());
  for (const EventColumn& c : g.cols) {
    switch (c.tag) {
      case EventColumn::Tag::kF64: out.emplace_back(c.f64[i]); break;
      case EventColumn::Tag::kStr: out.emplace_back(c.str[i]); break;
      default: out.emplace_back(c.i64[i]); break;
    }
  }
  return out;
}

std::vector<Row> GroupRows(const EventBatch::Group& g) {
  std::vector<Row> out;
  out.reserve(g.rows);
  for (size_t i = 0; i < g.rows; ++i) out.push_back(GroupRow(g, i));
  return out;
}

// ---- dynamic value serde ------------------------------------------------

void WriteValue(dbt::Ser& out, const Value& v) {
  if (v.is_string()) {
    out.u8(2);
    out.str(v.AsString());
  } else if (v.is_double()) {
    out.u8(1);
    out.f64(v.AsDouble());
  } else {
    out.u8(0);
    out.i64(v.AsInt());
  }
}

bool ReadValue(dbt::Deser& in, Value* v) {
  switch (in.u8()) {
    case 0: *v = Value(in.i64()); break;
    case 1: *v = Value(in.f64()); break;
    case 2: *v = Value(in.str()); break;
    default: return false;
  }
  return in.ok();
}

void WriteRow(dbt::Ser& out, const Row& row) {
  out.u64(row.size());
  for (const Value& v : row) WriteValue(out, v);
}

bool ReadRow(dbt::Deser& in, Row* row) {
  row->clear();
  const uint64_t n = in.u64();
  // Arity bound: a row longer than the remaining bytes is corrupt (every
  // value encodes to >= 1 byte), so a garbage length cannot OOM us.
  if (!in.ok() || n > in.remaining()) return false;
  row->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    Value v;
    if (!ReadValue(in, &v)) return false;
    row->push_back(std::move(v));
  }
  return true;
}

// ---- IngestValidator ----------------------------------------------------

namespace {

const char* TagName(EventColumn::Tag t) {
  switch (t) {
    case EventColumn::Tag::kF64: return "f64";
    case EventColumn::Tag::kStr: return "str";
    default: return "i64";
  }
}

EventColumn::Tag TagOfType(Type t) {
  switch (t) {
    case Type::kString: return EventColumn::Tag::kStr;
    case Type::kDouble: return EventColumn::Tag::kF64;
    default: return EventColumn::Tag::kI64;  // ints and dates ride i64 lanes
  }
}

EventColumn::Tag TagOfValue(const Value& v) {
  if (v.is_string()) return EventColumn::Tag::kStr;
  return v.is_double() ? EventColumn::Tag::kF64 : EventColumn::Tag::kI64;
}

/// String lanes and numeric lanes never mix; the two numeric lanes do
/// (dates and widened ints legally feed double columns via promotion).
bool LaneCompatible(EventColumn::Tag want, EventColumn::Tag got) {
  const bool want_str = want == EventColumn::Tag::kStr;
  const bool got_str = got == EventColumn::Tag::kStr;
  return want_str == got_str;
}

}  // namespace

void IngestValidator::Register(const std::string& relation,
                               std::vector<EventColumn::Tag> lanes) {
  schemas_[ToUpper(relation)] = std::move(lanes);
}

void IngestValidator::RegisterCatalog(const Catalog& catalog) {
  for (const Schema& schema : catalog.relations()) {
    std::vector<EventColumn::Tag> lanes;
    lanes.reserve(schema.num_columns());
    for (const auto& [col, type] : schema.columns()) {
      (void)col;
      lanes.push_back(TagOfType(type));
    }
    Register(schema.name(), std::move(lanes));
  }
}

const std::vector<EventColumn::Tag>* IngestValidator::Find(
    const std::string& relation) const {
  auto it = schemas_.find(ToUpper(relation));
  return it == schemas_.end() ? nullptr : &it->second;
}

Status IngestValidator::ValidateBatch(const EventBatch& batch) const {
  for (const EventBatch::Group& g : batch.groups()) {
    if (g.rows == 0) continue;
    for (size_t c = 0; c < g.cols.size(); ++c) {
      if (g.cols[c].conflict) {
        return Status::TypeError(StrFormat(
            "ingest: relation '%s' column %zu mixes string and numeric "
            "values within one batch",
            g.relation.c_str(), c));
      }
    }
    if (schemas_.empty()) continue;
    const std::vector<EventColumn::Tag>* lanes = Find(g.relation);
    if (lanes == nullptr) {
      return Status::NotFound(
          StrFormat("ingest: unknown relation '%s'", g.relation.c_str()));
    }
    if (g.cols.size() != lanes->size()) {
      return Status::InvalidArgument(StrFormat(
          "ingest: relation '%s' expects arity %zu, batch group has %zu "
          "columns",
          g.relation.c_str(), lanes->size(), g.cols.size()));
    }
    for (size_t c = 0; c < g.cols.size(); ++c) {
      if (!LaneCompatible((*lanes)[c], g.cols[c].tag)) {
        return Status::TypeError(StrFormat(
            "ingest: relation '%s' column %zu expects %s lane, batch "
            "carries %s",
            g.relation.c_str(), c, TagName((*lanes)[c]),
            TagName(g.cols[c].tag)));
      }
    }
  }
  return Status::OK();
}

Status IngestValidator::ValidateEvent(const Event& event) const {
  if (schemas_.empty()) return Status::OK();
  const std::vector<EventColumn::Tag>* lanes = Find(event.relation);
  if (lanes == nullptr) {
    return Status::NotFound(
        StrFormat("ingest: unknown relation '%s'", event.relation.c_str()));
  }
  if (event.tuple.size() != lanes->size()) {
    return Status::InvalidArgument(StrFormat(
        "ingest: relation '%s' expects arity %zu, event tuple has %zu",
        event.relation.c_str(), lanes->size(), event.tuple.size()));
  }
  for (size_t c = 0; c < event.tuple.size(); ++c) {
    const EventColumn::Tag got = TagOfValue(event.tuple[c]);
    if (!LaneCompatible((*lanes)[c], got)) {
      return Status::TypeError(StrFormat(
          "ingest: relation '%s' column %zu expects %s lane, event "
          "carries %s",
          event.relation.c_str(), c, TagName((*lanes)[c]), TagName(got)));
    }
  }
  return Status::OK();
}

// ---- concurrent view serving ----------------------------------------------

namespace {

/// Rendering diffs fan out over the worker pool past this many total rows;
/// below it the per-shard loop runs inline (pool dispatch costs more than
/// the diff itself for small views).
constexpr size_t kParallelDiffCutoff = 512;

/// A publish with no free buffer copies the snapshot; past this many
/// recycled buffers a returning snapshot is freed instead.
constexpr size_t kMaxFreeSnapshots = 4;

/// Diff one logical shard's rows of `prev` vs `next` into `out`. Row order
/// inside a shard follows the rendering order, so the result is
/// deterministic for a given pair of renderings.
void DiffShard(const exec::QueryResult& prev, const exec::QueryResult& next,
               const std::vector<uint32_t>& prev_rows,
               const std::vector<uint32_t>& next_rows, ViewDelta* out) {
  std::unordered_map<Row, int64_t, RowHash, RowEq> counts;
  counts.reserve(prev_rows.size() + next_rows.size());
  for (uint32_t i : prev_rows) {
    counts[prev.rows[i].first] += prev.rows[i].second;
  }
  for (uint32_t i : next_rows) {
    counts[next.rows[i].first] -= next.rows[i].second;
  }
  for (uint32_t i : next_rows) {
    auto it = counts.find(next.rows[i].first);
    if (it != counts.end() && it->second < 0) {
      out->added.emplace_back(next.rows[i].first, -it->second);
      it->second = 0;
    }
  }
  for (uint32_t i : prev_rows) {
    auto it = counts.find(prev.rows[i].first);
    if (it != counts.end() && it->second > 0) {
      out->removed.emplace_back(prev.rows[i].first, it->second);
      it->second = 0;
    }
  }
}

std::array<std::vector<uint32_t>, kNumShards> ShardRows(
    const exec::QueryResult& r) {
  std::array<std::vector<uint32_t>, kNumShards> shards;
  for (size_t i = 0; i < r.rows.size(); ++i) {
    shards[dbt::ShardOfHash(RowHash{}(r.rows[i].first))].push_back(
        static_cast<uint32_t>(i));
  }
  return shards;
}

}  // namespace

ViewDelta DiffViewRendering(const std::string& name,
                            const exec::QueryResult& prev,
                            const exec::QueryResult& next) {
  ViewDelta delta;
  delta.view = name;
  const auto prev_shards = ShardRows(prev);
  const auto next_shards = ShardRows(next);
  std::array<ViewDelta, kNumShards> per_shard;
  if (prev.rows.size() + next.rows.size() >= kParallelDiffCutoff) {
    dbt::shard_pool().RunShards(kNumShards, [&](size_t s) {
      DiffShard(prev, next, prev_shards[s], next_shards[s], &per_shard[s]);
    });
  } else {
    for (size_t s = 0; s < kNumShards; ++s) {
      DiffShard(prev, next, prev_shards[s], next_shards[s], &per_shard[s]);
    }
  }
  for (ViewDelta& d : per_shard) {
    delta.added.insert(delta.added.end(),
                       std::make_move_iterator(d.added.begin()),
                       std::make_move_iterator(d.added.end()));
    delta.removed.insert(delta.removed.end(),
                         std::make_move_iterator(d.removed.begin()),
                         std::make_move_iterator(d.removed.end()));
  }
  return delta;
}

void ApplyViewDelta(const ViewDelta& delta,
                    std::unordered_map<Row, int64_t, RowHash, RowEq>* rows) {
  for (const auto& [row, count] : delta.removed) {
    auto it = rows->find(row);
    if (it == rows->end()) continue;
    it->second -= count;
    if (it->second == 0) rows->erase(it);
  }
  for (const auto& [row, count] : delta.added) {
    (*rows)[row] += count;
  }
}

std::vector<std::string> ViewSnapshot::view_names() const {
  std::vector<std::string> out;
  if (data_ == nullptr) return out;
  out.reserve(data_->views.size());
  for (const ViewRendering& v : data_->views) out.push_back(v.name);
  return out;
}

const exec::QueryResult* ViewSnapshot::Find(const std::string& name) const {
  if (data_ == nullptr) return nullptr;
  for (const ViewRendering& v : data_->views) {
    if (v.name == name) return &v.result;
  }
  return nullptr;
}

Result<exec::QueryResult> ViewSnapshot::View(const std::string& name) const {
  const exec::QueryResult* r = Find(name);
  if (r == nullptr) return Status::NotFound("snapshot has no view: " + name);
  return *r;
}

std::vector<std::shared_ptr<const EpochDelta>> ViewSubscriber::Poll() {
  std::vector<std::shared_ptr<const EpochDelta>> out;
  if (chan_ == nullptr) return out;
  std::lock_guard<std::mutex> lock(chan_->mu);
  out.assign(chan_->queue.begin(), chan_->queue.end());
  chan_->queue.clear();
  return out;
}

bool ViewSubscriber::lagged() const {
  if (chan_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(chan_->mu);
  return chan_->lagged;
}

bool StreamEngine::TrackView(const std::string& name, bool on,
                             std::vector<std::string>* columns) {
  (void)name;
  (void)on;
  (void)columns;
  return false;
}

bool StreamEngine::ServedGroups(const std::string& name, bool all,
                                const GroupFn& fn) {
  (void)name;
  (void)all;
  (void)fn;
  return false;
}

Status StreamEngine::EnableServing(std::vector<std::string> views) {
  const std::vector<std::string> names = ViewNames();
  if (views.empty()) views = names;
  if (views.empty()) {
    return Status::InvalidArgument("serving: engine exposes no views");
  }
  for (const std::string& v : views) {
    if (std::find(names.begin(), names.end(), v) == names.end()) {
      return Status::NotFound("serving: unknown view: " + v);
    }
  }
  for (const ServedView& sv : served_) {
    if (sv.tracked) TrackView(sv.name, false, nullptr);
  }
  served_.assign(views.size(), ServedView{});
  auto data = std::make_unique<ViewSnapshot::Data>();
  data->epoch = epoch_;
  data->views.resize(views.size());
  Status status = Status::OK();
  for (size_t i = 0; i < views.size() && status.ok(); ++i) {
    ServedView& sv = served_[i];
    ViewRendering& rendering = data->views[i];
    sv.name = rendering.name = views[i];
    sv.tracked = TrackView(sv.name, true, &rendering.result.column_names);
    status = RenderFull(&sv, &rendering.result);
  }
  if (!status.ok()) {
    // A view failed to render: stop serving rather than publish a snapshot
    // that lacks it (readers keep the last published one).
    for (const ServedView& sv : served_) {
      if (sv.tracked) TrackView(sv.name, false, nullptr);
    }
    served_.clear();
    serving_enabled_.store(false, std::memory_order_release);
  } else {
    // Buffers and positions logged for the previous views mean nothing now.
    epoch_log_.clear();
    epoch_log_positions_ = 0;
    pool_ = std::make_shared<SnapshotPool>();
  }
  std::shared_ptr<const ViewSnapshot::Data> published =
      status.ok() ? Adopt(data.release()) : nullptr;
  {
    std::lock_guard<std::mutex> lock(serving_mu_);
    if (published != nullptr) published_ = std::move(published);
    // Existing subscribers' bases lack the new layout (or the new views):
    // their delta streams end here.
    for (const auto& weak : subscribers_) {
      if (auto chan = weak.lock()) {
        std::lock_guard<std::mutex> chan_lock(chan->mu);
        chan->queue.clear();
        chan->lagged = true;
      }
    }
    subscribers_.clear();
  }
  if (status.ok()) serving_enabled_.store(true, std::memory_order_release);
  return status;
}

Status StreamEngine::ResumeAt(uint64_t epoch) {
  epoch_ = epoch;
  if (!serving()) return Status::OK();
  std::vector<std::string> views;
  for (const ServedView& sv : served_) views.push_back(sv.name);
  return EnableServing(std::move(views));
}

ViewSnapshot StreamEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(serving_mu_);
  return ViewSnapshot(published_);
}

Result<ViewSubscriber> StreamEngine::Subscribe() {
  if (!serving()) {
    return Status::InvalidArgument(
        "serving: EnableServing() before subscribing");
  }
  ViewSubscriber sub;
  sub.chan_ = std::make_shared<ViewSubscriber::Channel>();
  std::lock_guard<std::mutex> lock(serving_mu_);
  sub.base_ = ViewSnapshot(published_);
  subscribers_.push_back(sub.chan_);
  return sub;
}

std::shared_ptr<const ViewSnapshot::Data> StreamEngine::Adopt(
    ViewSnapshot::Data* data) {
  return std::shared_ptr<const ViewSnapshot::Data>(
      data, [pool = pool_](const ViewSnapshot::Data* d) {
        // Declared before the lock, so a buffer the pool does not keep is
        // freed after the lock is released.
        std::unique_ptr<ViewSnapshot::Data> owned(
            const_cast<ViewSnapshot::Data*>(d));
        std::lock_guard<std::mutex> lock(pool->mu);
        if (pool->free.size() < kMaxFreeSnapshots) {
          pool->free.push_back(std::move(owned));
        }
      });
}

Status StreamEngine::RenderFull(ServedView* sv, exec::QueryResult* view) {
  std::vector<std::pair<Row, int64_t>>& rows = view->rows;
  auto reset = [&] {
    sv->seeded = false;
    sv->pos.clear();
    sv->key_of.clear();
    rows.clear();
  };
  reset();
  if (sv->tracked) {
    // Every group, in the order the engine reports it: the new layout.
    const bool ok = ServedGroups(sv->name, /*all=*/true,
                                 [&](const Row& key, const Row* row) {
      if (row == nullptr) return;
      auto [it, inserted] = sv->pos.emplace(key, rows.size());
      if (!inserted) return;
      sv->key_of.push_back(&it->first);
      rows.emplace_back(*row, 1);
    });
    if (ok) {
      sv->seeded = true;
      return Status::OK();
    }
    reset();
  }
  DBT_ASSIGN_OR_RETURN(*view, View(sv->name));
  return Status::OK();
}

std::unique_ptr<ViewSnapshot::Data> StreamEngine::TakeBuffer(
    const std::vector<bool>& incremental) {
  std::unique_ptr<ViewSnapshot::Data> buf;
  {
    std::lock_guard<std::mutex> lock(pool_->mu);
    // The most recent free buffer has the least to catch up on.
    auto& free = pool_->free;
    size_t best = free.size();
    for (size_t i = 0; i < free.size(); ++i) {
      if (best == free.size() || free[i]->epoch > free[best]->epoch) best = i;
    }
    if (best < free.size()) {
      buf = std::move(free[best]);
      free.erase(free.begin() + static_cast<long>(best));
    }
  }
  const ViewSnapshot::Data& cur = *published_;
  if (buf == nullptr) {
    buf = std::make_unique<ViewSnapshot::Data>();
    buf->views.resize(cur.views.size());
    for (size_t i = 0; i < cur.views.size(); ++i) {
      buf->views[i].name = cur.views[i].name;
      buf->views[i].result.column_names = cur.views[i].result.column_names;
      if (incremental[i]) buf->views[i].result.rows = cur.views[i].result.rows;
    }
    return buf;
  }
  if (buf->epoch == cur.epoch) return buf;
  // Publishes of one pool are consecutive epochs, so the log covers the
  // buffer when it reaches back to the epoch after the buffer's, and that
  // epoch's entry sits at a known offset.
  const bool logged =
      !epoch_log_.empty() && epoch_log_.front().epoch <= buf->epoch + 1;
  const size_t first = logged ? buf->epoch + 1 - epoch_log_.front().epoch : 0;
  for (size_t i = 0; i < cur.views.size(); ++i) {
    if (!incremental[i]) continue;
    auto& dst = buf->views[i].result.rows;
    const auto& src = cur.views[i].result.rows;
    bool copy_all = !logged;
    for (size_t e = first; !copy_all && e < epoch_log_.size(); ++e) {
      copy_all = epoch_log_[e].full[i];
    }
    if (copy_all) {
      dst = src;
      continue;
    }
    // A position no logged epoch changed holds the same row in both; a
    // position past the buffer's old end was appended, so it is logged.
    dst.resize(src.size());
    for (size_t e = first; e < epoch_log_.size(); ++e) {
      for (uint32_t p : epoch_log_[e].changed[i]) {
        if (p < src.size()) dst[p] = src[p];
      }
    }
  }
  return buf;
}

void StreamEngine::ApplyGroup(ServedView* sv, const Row& key, const Row* row,
                              exec::QueryResult* view,
                              std::vector<uint32_t>* changed,
                              ViewDelta* delta) {
  std::vector<std::pair<Row, int64_t>>& rows = view->rows;
  auto it = sv->pos.find(key);
  if (it == sv->pos.end()) {
    if (row == nullptr) return;
    const auto p = static_cast<uint32_t>(rows.size());
    rows.emplace_back(*row, 1);
    if (delta != nullptr) delta->added.emplace_back(*row, 1);
    sv->key_of.push_back(&sv->pos.emplace(key, p).first->first);
    changed->push_back(p);
    return;
  }
  const uint32_t p = it->second;
  if (row != nullptr) {
    if (*row == rows[p].first) return;  // unchanged
    if (delta != nullptr) {
      delta->removed.emplace_back(rows[p].first, 1);
      delta->added.emplace_back(*row, 1);
    }
    rows[p].first = *row;
    changed->push_back(p);
    return;
  }
  // The group is gone: the last row takes its slot.
  if (delta != nullptr) delta->removed.emplace_back(std::move(rows[p].first), 1);
  const auto last = static_cast<uint32_t>(rows.size() - 1);
  if (p != last) {
    rows[p] = std::move(rows[last]);
    sv->key_of[p] = sv->key_of[last];
    sv->pos.find(*sv->key_of[p])->second = p;
    changed->push_back(p);
  }
  rows.pop_back();
  sv->key_of.pop_back();
  sv->pos.erase(it);
}

Status StreamEngine::PublishSnapshot() {
  // Groups are rendered outside any lock: the writer thread has exclusive
  // access to the live state, and readers keep using the previously
  // published snapshot until the swap below. Deltas are collected only when
  // someone subscribed; a subscriber arriving before the swap is served by
  // a diff instead.
  const size_t n = served_.size();
  bool collect = false;
  {
    std::lock_guard<std::mutex> lock(serving_mu_);
    collect = !subscribers_.empty();
  }
  std::vector<bool> incremental(n);
  for (size_t i = 0; i < n; ++i) {
    incremental[i] = served_[i].tracked && served_[i].seeded;
  }
  std::unique_ptr<ViewSnapshot::Data> buf = TakeBuffer(incremental);
  buf->epoch = epoch_;
  EpochLog log;
  log.epoch = epoch_;
  log.changed.resize(n);
  log.full.assign(n, false);
  std::vector<ViewDelta> deltas(n);
  size_t rows_served = 0;
  for (size_t i = 0; i < n; ++i) {
    ServedView& sv = served_[i];
    exec::QueryResult& view = buf->views[i].result;
    ViewDelta* delta = collect ? &deltas[i] : nullptr;
    if (!incremental[i] ||
        !ServedGroups(sv.name, /*all=*/false,
                      [&](const Row& key, const Row* row) {
                        ApplyGroup(&sv, key, row, &view, &log.changed[i],
                                   delta);
                      })) {
      log.full[i] = true;
      Status st = RenderFull(&sv, &view);
      if (!st.ok()) {
        // Layouts may now describe rows that were never published: the
        // next publish re-seeds every view.
        for (ServedView& other : served_) other.seeded = false;
        return st;
      }
    }
    rows_served += view.rows.size();
  }
  std::shared_ptr<const ViewSnapshot::Data> data = Adopt(buf.release());

  // Short publish section: swap the snapshot in and collect the live
  // subscriber channels as of the swap (a subscriber registered before it
  // has base == prev and needs this delta; one registered after has base ==
  // data and does not).
  std::shared_ptr<const ViewSnapshot::Data> prev;
  std::vector<std::shared_ptr<ViewSubscriber::Channel>> live;
  {
    std::lock_guard<std::mutex> lock(serving_mu_);
    prev = std::move(published_);
    published_ = data;
    size_t kept = 0;
    for (size_t i = 0; i < subscribers_.size(); ++i) {
      if (auto chan = subscribers_[i].lock()) {
        live.push_back(std::move(chan));
        // Guard the compaction against self-move: a weak_ptr move-assigned
        // onto itself is left empty.
        if (kept != i) subscribers_[kept] = std::move(subscribers_[i]);
        ++kept;
      }
    }
    subscribers_.resize(kept);
  }

  std::shared_ptr<EpochDelta> delta;
  if (!live.empty()) {
    // Fully rendered views are diffed off the publish lock; readers are
    // already on the new snapshot.
    delta = std::make_shared<EpochDelta>();
    delta->epoch = data->epoch;
    delta->views.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (log.full[i] || !collect) {
        delta->views.push_back(DiffViewRendering(
            served_[i].name, prev->views[i].result, data->views[i].result));
      } else {
        deltas[i].view = served_[i].name;
        delta->views.push_back(std::move(deltas[i]));
      }
    }
  }

  // The log holds about one view's worth of positions (an epoch counts at
  // least one): a buffer older than that is cheaper to copy than to catch
  // up.
  log.positions = 1;
  for (size_t i = 0; i < n; ++i) {
    log.positions += log.full[i] ? data->views[i].result.rows.size()
                                 : log.changed[i].size();
  }
  epoch_log_positions_ += log.positions;
  epoch_log_.push_back(std::move(log));
  while (epoch_log_.size() > 1 && epoch_log_positions_ > rows_served + 64) {
    epoch_log_positions_ -= epoch_log_.front().positions;
    epoch_log_.pop_front();
  }

  for (auto& chan : live) {
    std::lock_guard<std::mutex> lock(chan->mu);
    if (chan->lagged) continue;
    if (chan->queue.size() >= max_queued_deltas_) {
      // The subscriber fell behind the bound: its stream now has a gap, so
      // the queued prefix is useless — drop it and mark the lag.
      chan->queue.clear();
      chan->lagged = true;
      continue;
    }
    chan->queue.push_back(delta);
  }
  return Status::OK();
}

// ---- StreamEngine wrappers ----------------------------------------------

Status StreamEngine::ApplyBatch(EventBatch&& batch) {
  DBT_RETURN_IF_ERROR(validator_.ValidateBatch(batch));
  DBT_RETURN_IF_ERROR(DoApplyBatch(std::move(batch)));
  ++epoch_;
  if (serving_enabled_.load(std::memory_order_relaxed)) {
    DBT_RETURN_IF_ERROR(PublishSnapshot());
  }
  return Status::OK();
}

Status StreamEngine::OnEvent(const Event& event) {
  DBT_RETURN_IF_ERROR(validator_.ValidateEvent(event));
  DBT_RETURN_IF_ERROR(DoOnEvent(event));
  ++epoch_;
  if (serving_enabled_.load(std::memory_order_relaxed)) {
    DBT_RETURN_IF_ERROR(PublishSnapshot());
  }
  return Status::OK();
}

Result<Value> StreamEngine::ViewScalar(const std::string& name) {
  DBT_ASSIGN_OR_RETURN(exec::QueryResult r, View(name));
  if (r.rows.size() != 1 || r.rows[0].first.size() != 1) {
    return Status::InvalidArgument("view is not single-valued: " + name);
  }
  return r.rows[0].first[0];
}

Status StreamEngine::SaveState(dbt::Ser* out) const {
  (void)out;
  return Status::NotSupported("engine '" + Name() +
                              "' does not implement state capture");
}

Status StreamEngine::LoadState(dbt::Deser* in) {
  (void)in;
  return Status::NotSupported("engine '" + Name() +
                              "' does not implement state restore");
}

// ---- UpsertNormalizer ---------------------------------------------------

void UpsertNormalizer::DeclareKey(const std::string& relation,
                                  std::vector<size_t> key_cols) {
  KeyedRelation& kr = keyed_[ToUpper(relation)];
  kr.key_cols = std::move(key_cols);
}

EventBatch UpsertNormalizer::Normalize(EventBatch&& batch) {
  EventBatch out;
  for (const EventBatch::Group& g : batch.groups()) {
    const EventKind kind = GroupKind(g);
    std::vector<Row> rows = GroupRows(g);
    auto it = keyed_.find(ToUpper(g.relation));
    if (it == keyed_.end()) {
      for (const Row& row : rows) out.Add(kind, g.relation, row);
      continue;
    }
    KeyedRelation& kr = it->second;
    for (Row& row : rows) {
      Row key;
      key.reserve(kr.key_cols.size());
      for (size_t c : kr.key_cols) {
        key.push_back(c < row.size() ? row[c] : Value(int64_t{0}));
      }
      auto cur = kr.current.find(key);
      if (kind == EventKind::kInsert) {
        if (cur != kr.current.end()) {
          if (RowEq{}(cur->second, row)) continue;  // duplicate insert
          out.AddDelete(g.relation, cur->second);   // upsert: replace
          cur->second = row;
        } else {
          kr.current.emplace(std::move(key), row);
        }
        out.AddInsert(g.relation, row);
      } else {
        // Deletes must name the live row; late/duplicated/reordered
        // deletes (unknown key or stale image) are dropped.
        if (cur == kr.current.end() || !RowEq{}(cur->second, row)) continue;
        kr.current.erase(cur);
        out.AddDelete(g.relation, row);
      }
    }
  }
  return out;
}

void UpsertNormalizer::Save(dbt::Ser* out) const {
  out->u64(keyed_.size());
  for (const auto& [name, kr] : keyed_) {
    out->str(name);
    out->u64(kr.key_cols.size());
    for (size_t c : kr.key_cols) out->u64(c);
    out->u64(kr.current.size());
    // std::unordered_map iteration order is not stable across processes;
    // the table is rebuilt entry-by-entry, so order does not matter.
    for (const auto& [key, row] : kr.current) {
      (void)key;  // keys re-derive by projection
      WriteRow(*out, row);
    }
  }
}

Status UpsertNormalizer::Load(dbt::Deser* in) {
  keyed_.clear();
  const uint64_t nrel = in->u64();
  for (uint64_t r = 0; r < nrel && in->ok(); ++r) {
    const std::string name = in->str();
    KeyedRelation& kr = keyed_[name];
    const uint64_t nkeys = in->u64();
    if (!in->ok() || nkeys > in->remaining()) {
      return Status::ParseError("upsert state: corrupt key column list");
    }
    kr.key_cols.reserve(static_cast<size_t>(nkeys));
    for (uint64_t k = 0; k < nkeys; ++k) {
      kr.key_cols.push_back(static_cast<size_t>(in->u64()));
    }
    const uint64_t nrows = in->u64();
    for (uint64_t i = 0; i < nrows && in->ok(); ++i) {
      Row row;
      if (!ReadRow(*in, &row)) {
        return Status::ParseError("upsert state: corrupt row");
      }
      Row key;
      key.reserve(kr.key_cols.size());
      for (size_t c : kr.key_cols) {
        key.push_back(c < row.size() ? row[c] : Value(int64_t{0}));
      }
      kr.current[std::move(key)] = std::move(row);
    }
  }
  if (!in->ok()) return Status::ParseError("upsert state: truncated");
  return Status::OK();
}

size_t UpsertNormalizer::live_rows(const std::string& relation) const {
  auto it = keyed_.find(ToUpper(relation));
  return it == keyed_.end() ? 0 : it->second.current.size();
}

// ---- CompiledProgramEngine ----------------------------------------------

namespace {

Value FromDbtValue(const dbt::Value& v) {
  if (std::holds_alternative<std::string>(v)) {
    return Value(std::get<std::string>(v));
  }
  if (std::holds_alternative<double>(v)) return Value(std::get<double>(v));
  return Value(std::get<int64_t>(v));
}

Row FromDbtRow(const std::vector<dbt::Value>& values) {
  Row r;
  r.reserve(values.size());
  for (const dbt::Value& v : values) r.push_back(FromDbtValue(v));
  return r;
}

}  // namespace

CompiledProgramEngine::CompiledProgramEngine(dbt::StreamProgram* program,
                                             std::string name)
    : program_(program), name_(std::move(name)) {
  // Generated programs publish the catalog's relation layouts; arm the
  // boundary validator with them so malformed batches are rejected before
  // the typed handlers. Programs predating schema emission publish none
  // and keep the permissive boundary.
  for (dbt::RelationSchema& rs : program_->relation_schemas()) {
    RegisterIngestSchema(rs.name, std::move(rs.lanes));
  }
}

size_t CompiledProgramEngine::StateBytes() const {
  return program_->state_bytes();
}

Status CompiledProgramEngine::DoApplyBatch(EventBatch&& batch) {
  program_->on_batch(batch);
  return Status::OK();
}

Status CompiledProgramEngine::SaveState(dbt::Ser* out) const {
  if (!program_->save_state(*out)) {
    return Status::NotSupported("program '" + name_ +
                                "' was generated without state capture");
  }
  return Status::OK();
}

Status CompiledProgramEngine::LoadState(dbt::Deser* in) {
  if (!program_->load_state(*in)) {
    return Status::ParseError("program '" + name_ +
                              "' state restore failed (corrupt snapshot or "
                              "program generated without state capture)");
  }
  return Status::OK();
}

Result<exec::QueryResult> CompiledProgramEngine::View(
    const std::string& name) {
  bool known = false;
  for (const std::string& v : program_->view_names()) {
    if (v == name) {
      known = true;
      break;
    }
  }
  if (!known) return Status::NotFound("unknown view: " + name);
  exec::QueryResult out;
  out.column_names = program_->view_column_names(name);
  for (const std::vector<dbt::Value>& row : program_->view_rows(name)) {
    out.rows.emplace_back(FromDbtRow(row), 1);
  }
  return out;
}

std::vector<std::string> CompiledProgramEngine::ViewNames() const {
  return program_->view_names();
}

bool CompiledProgramEngine::TrackView(const std::string& name, bool on,
                                      std::vector<std::string>* columns) {
  if (!program_->track_view(name, on)) return false;
  if (columns != nullptr) *columns = program_->view_column_names(name);
  return true;
}

bool CompiledProgramEngine::ServedGroups(const std::string& name, bool all,
                                         const GroupFn& fn) {
  struct Sink : dbt::GroupSink {
    const GroupFn* fn;
    Row key, row;  // reused across groups
    static void Assign(const std::vector<dbt::Value>& values, Row* out) {
      out->resize(values.size());
      for (size_t i = 0; i < values.size(); ++i) {
        (*out)[i] = FromDbtValue(values[i]);
      }
    }
    void group(const std::vector<dbt::Value>& k,
               const std::vector<dbt::Value>* r) override {
      Assign(k, &key);
      if (r != nullptr) Assign(*r, &row);
      (*fn)(key, r != nullptr ? &row : nullptr);
    }
  } sink;
  sink.fn = &fn;
  return program_->view_groups(name, all, sink);
}

}  // namespace dbtoaster::runtime
