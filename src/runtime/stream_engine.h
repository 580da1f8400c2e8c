// The unified engine surface of the paper's §2 system model: every consumer
// of an update stream — the trigger interpreter (runtime::Engine), the
// bakeoff baselines (re-evaluation, first-order IVM) and dbtc-generated
// programs — is a standing-query engine fed deltas. StreamEngine is that
// contract; EventBatch is its vectorized unit of ingestion, grouping deltas
// per (relation, op) so engines can amortize dispatch, trigger lookup and
// index maintenance over whole vectors of bindings.
//
// Batch semantics: ApplyBatch(b) is equivalent to sequentially replaying
// b's events grouped by (relation, op) in first-encounter group order. For
// well-formed streams (a delete targets a tuple that is live at batch
// start, or inserted earlier in the same batch) the final views equal those
// of one-at-a-time replay in the original order: views are functions of the
// final database state, which is order-independent under multiset
// semantics, and MIN/MAX multisets tolerate transient negative counts
// (see ExtremeMap).
//
// The ingest boundary is treated as untrusted: ApplyBatch and OnEvent are
// non-virtual wrappers that validate relation names, arity and lane types
// against the engine's registered schemas (returning a structured Status —
// never UB or a silent skip) before handing the batch to the engine's
// DoApplyBatch, and count successfully applied calls as the engine's epoch
// (the exactly-once cursor of the batch-log recovery protocol, see
// src/runtime/batch_log.h).
#ifndef DBTOASTER_RUNTIME_STREAM_ENGINE_H_
#define DBTOASTER_RUNTIME_STREAM_ENGINE_H_

#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/codegen/dbt_flat_map.h"
#include "src/codegen/dbt_serialize.h"
#include "src/codegen/dbt_shard_pool.h"
#include "src/codegen/dbtoaster_runtime.h"
#include "src/common/status.h"
#include "src/exec/executor.h"
#include "src/storage/table.h"

namespace dbtoaster::runtime {

/// The process-wide worker pool and logical shard count, shared by the
/// interpreted engine, the baselines and dbtc-generated programs (see
/// dbt::ShardPool). Thread count is a pool property, not an engine one:
/// every engine reads it at batch time.
using ShardPool = dbt::ShardPool;
inline ShardPool& shard_pool() { return dbt::shard_pool(); }
inline constexpr size_t kNumShards = dbt::kNumShards;

/// Partition of one (relation, op) group's tuples into the fixed logical
/// shards, by finalized hash of the partition columns (or of the whole
/// tuple when no partition-key subset was derivable). Tuple order within a
/// shard preserves group order, so per-shard replay is deterministic and
/// independent of the worker count.
struct ShardPlan {
  std::array<std::vector<uint32_t>, kNumShards> shards;

  static ShardPlan Partition(const Row* tuples, size_t count,
                             const std::vector<size_t>& partition_cols);
};

/// One typed column of a batch group (see dbt::EventColumn: the first value
/// fixes the lane, ints widen to doubles, string/number mixes are flagged).
using EventColumn = dbt::EventColumn;

/// One batch of deltas, grouped per (relation, op) in first-encounter order
/// with typed per-group columns: dbt::EventBatch with the runtime's
/// Row-based builder on top. CompiledProgramEngine hands it to the
/// generated program as is; interpreted engines read each group's tuples
/// through GroupRows.
class EventBatch : public dbt::EventBatch {
 public:
  using Group = dbt::EventBatch::Group;

  /// A one-element batch (the OnEvent convenience path).
  static EventBatch Of(const Event& event);

  /// Append one delta, coalescing into an existing (relation, op) group.
  void Add(EventKind kind, const std::string& relation, const Row& tuple);
  void Add(const Event& event) {
    Add(event.kind, event.relation, event.tuple);
  }
  void AddInsert(const std::string& relation, const Row& tuple) {
    Add(EventKind::kInsert, relation, tuple);
  }
  void AddDelete(const std::string& relation, const Row& tuple) {
    Add(EventKind::kDelete, relation, tuple);
  }

  void Clear() { clear(); }
};

inline EventKind GroupKind(const EventBatch::Group& g) {
  return g.is_insert ? EventKind::kInsert : EventKind::kDelete;
}

/// Tuple `i` of a group as a Row.
Row GroupRow(const EventBatch::Group& g, size_t i);

/// Every tuple of a group as Rows: the one place interpreted engines
/// materialize a group, once per group.
std::vector<Row> GroupRows(const EventBatch::Group& g);

// ---- dynamic value serde (shared by checkpoints, the batch log and the
// ---- upsert adapter) ---------------------------------------------------

/// Tagged encoding of one dynamic Value: u8 tag (0 = int64, 1 = double,
/// 2 = string) + payload. ReadValue/ReadRow return false on a malformed
/// tag; truncation surfaces through the reader's ok() as usual.
void WriteValue(dbt::Ser& out, const Value& v);
bool ReadValue(dbt::Deser& in, Value* v);
void WriteRow(dbt::Ser& out, const Row& row);
bool ReadRow(dbt::Deser& in, Row* row);

/// Boundary validation of untrusted batches against registered relation
/// schemas. An engine registers the lane layout of every relation it is
/// willing to ingest (from its catalog, or from a generated program's
/// published schemas); Validate then rejects, with relation and column
/// context:
///   - unknown relations               -> kNotFound
///   - group arity != schema arity     -> kInvalidArgument
///   - string lane where the schema has a numeric column (or vice versa)
///                                     -> kTypeError
/// Numeric lanes are interchangeable (kI64 carries dates and widened ints;
/// engines promote), so only string/numeric confusion — the one shape the
/// typed handlers cannot absorb — is a type error. A column that mixed
/// strings and numbers while the batch was built (EventColumn::conflict) is
/// a kTypeError whether or not schemas are registered; beyond that, a
/// validator with no registered schemas passes everything through (opt-in
/// hardening).
class IngestValidator {
 public:
  void Register(const std::string& relation,
                std::vector<EventColumn::Tag> lanes);
  void RegisterCatalog(const Catalog& catalog);
  bool empty() const { return schemas_.empty(); }

  Status ValidateBatch(const EventBatch& batch) const;
  Status ValidateEvent(const Event& event) const;

 private:
  const std::vector<EventColumn::Tag>* Find(const std::string& relation) const;

  /// Keyed by upper-cased relation name (catalog semantics).
  std::map<std::string, std::vector<EventColumn::Tag>> schemas_;
};

// ---- concurrent view serving --------------------------------------------
//
// The serving tier decouples view reads from the single-threaded ingest
// path: after every successful ingest call the writer publishes an
// immutable, epoch-stamped snapshot of every registered view and swaps it
// in under a short mutex section. Readers on any thread grab the current
// ViewSnapshot handle — a shared_ptr copy — and read it without ever
// touching live engine state, so they can never observe a half-applied
// batch and never block the writer beyond the pointer swap.
//
// A publish costs O(groups the batch touched), not O(view). Engines that
// can tell which groups their writes touched (toaster-i and toaster-c, for
// every view whose reads sit at its group key, compiler::ViewDirtySources)
// report just those groups with their current rows; the writer keeps a
// group-key -> row-position layout per view and applies each change to a
// recycled snapshot buffer (a superseded snapshot no reader holds any
// more, brought up to date from a short log of the row positions each
// epoch changed). Subscribers receive the per-epoch *deltas* — emitted
// directly from those changes — which replay to exactly the published view
// at every epoch. Views without that knowledge (reeval, ivm1, views reading
// a map at another key, and any view after a map clear or a state load)
// are rendered in full and diffed per shard against the previous rendering.

/// One registered view's materialized content inside a snapshot.
struct ViewRendering {
  std::string name;
  exec::QueryResult result;
};

/// Rows added/removed in one view between two consecutive published
/// epochs, with multiplicities (a count change from 2 to 3 is one added
/// row). Concatenated in logical-shard order, deterministic for a given
/// engine replay.
struct ViewDelta {
  std::string view;
  std::vector<std::pair<Row, int64_t>> added;
  std::vector<std::pair<Row, int64_t>> removed;
};

/// All view deltas of one published epoch.
struct EpochDelta {
  uint64_t epoch = 0;
  std::vector<ViewDelta> views;
};

/// Per-shard diff of two renderings of the same view: rows are partitioned
/// into the fixed logical shards by row hash (large renderings fan the
/// shard diffs out over the worker pool) and each shard is diffed
/// independently; results concatenate in shard order. Exposed for tests
/// and serving tools.
ViewDelta DiffViewRendering(const std::string& name,
                            const exec::QueryResult& prev,
                            const exec::QueryResult& next);

/// Replay helper: apply one view delta to a row->count multiset (zero
/// counts are erased). base + deltas(1..e) == the published rendering at
/// epoch e.
void ApplyViewDelta(const ViewDelta& delta,
                    std::unordered_map<Row, int64_t, RowHash, RowEq>* rows);

/// Receives one group of a served view as an engine reports it (see
/// StreamEngine::ServedGroups): the group key and its current row, or
/// nullptr when the group is gone. Both are valid only during the call.
using GroupFn = std::function<void(const Row& key, const Row* row)>;

/// An immutable, epoch-stamped rendering of every served view. Cheap to
/// copy (shared_ptr); safe to read from any thread, concurrently with the
/// writer, for as long as the handle lives. Rows of an incrementally served
/// view are in publish order (groups append as they appear; a vanished
/// group's slot takes the last row), not View() order; the order is the
/// same at every thread count.
class ViewSnapshot {
 public:
  struct Data {
    uint64_t epoch = 0;
    std::vector<ViewRendering> views;
  };

  ViewSnapshot() = default;

  /// False until the engine has published (serving not enabled).
  bool valid() const { return data_ != nullptr; }
  /// Ingest epoch this snapshot is fresh as of.
  uint64_t epoch() const { return data_ ? data_->epoch : 0; }

  std::vector<std::string> view_names() const;
  /// Borrowed pointer into the snapshot (nullptr for unknown views); valid
  /// for the handle's lifetime.
  const exec::QueryResult* Find(const std::string& name) const;
  /// Copying convenience over Find.
  Result<exec::QueryResult> View(const std::string& name) const;

 private:
  friend class StreamEngine;
  explicit ViewSnapshot(std::shared_ptr<const Data> data)
      : data_(std::move(data)) {}

  std::shared_ptr<const Data> data_;
};

/// A subscription to the engine's per-epoch view delta stream. Created by
/// StreamEngine::Subscribe; dropping the handle unsubscribes. The handle
/// carries the base snapshot it was seeded with: base + the polled deltas
/// (epochs base.epoch()+1, +2, ...) reconstruct the published view at
/// every epoch. Poll may be called from any thread.
class ViewSubscriber {
 public:
  ViewSubscriber() = default;

  bool valid() const { return chan_ != nullptr; }

  /// The snapshot this subscription started from (reconstruction base).
  const ViewSnapshot& base() const { return base_; }

  /// Drain every delta published since the last poll, in epoch order.
  std::vector<std::shared_ptr<const EpochDelta>> Poll();

  /// True once the engine dropped deltas because the subscriber fell more
  /// than the queue bound behind. A lagged stream has a gap and cannot be
  /// replayed; re-subscribe for a fresh base.
  bool lagged() const;

 private:
  friend class StreamEngine;
  struct Channel {
    std::mutex mu;
    std::deque<std::shared_ptr<const EpochDelta>> queue;
    bool lagged = false;
  };

  std::shared_ptr<Channel> chan_;
  ViewSnapshot base_;
};

/// A continuously-maintained standing-query engine fed delta batches.
///
/// ApplyBatch / OnEvent are deliberately non-virtual: they validate the
/// input, delegate to the engine's DoApplyBatch / DoOnEvent, and advance
/// the epoch on success, so every engine shares one hardened boundary and
/// one recovery cursor. Engine classes implement the Do* hooks.
class StreamEngine {
 public:
  virtual ~StreamEngine() = default;

  /// Short label for bench tables ("reeval", "ivm1", "toaster-i", ...).
  virtual std::string Name() const = 0;

  /// Ingest one batch of deltas (see the file comment for semantics).
  Status ApplyBatch(EventBatch&& batch);

  /// One-element convenience: a batch of one unless the engine overrides
  /// DoOnEvent with a leaner path.
  Status OnEvent(const Event& event);

  Status OnInsert(const std::string& relation, Row tuple) {
    return OnEvent(Event::Insert(relation, std::move(tuple)));
  }
  Status OnDelete(const std::string& relation, Row tuple) {
    return OnEvent(Event::Delete(relation, std::move(tuple)));
  }

  /// Current content of the registered view `name` (fresh as of the last
  /// batch). Writer-thread access to live state; concurrent readers use
  /// Snapshot() instead.
  virtual Result<exec::QueryResult> View(const std::string& name) = 0;

  /// Single-valued convenience for global aggregate views.
  virtual Result<Value> ViewScalar(const std::string& name);

  /// Names of the views this engine serves, in registration order (empty
  /// when the engine exposes none).
  virtual std::vector<std::string> ViewNames() const { return {}; }

  // ---- concurrent view serving (see the section comment above) ----

  /// Start publishing epoch-stamped snapshots of `views` (all ViewNames()
  /// when empty) after every ingest call, beginning with an immediate
  /// publish at the current epoch. Call from the writer thread before
  /// concurrent readers attach. Each subsequent ApplyBatch/OnEvent re-renders
  /// only the groups it touched in incrementally served views and renders
  /// the other views in full (see the section comment above). Calling it
  /// again replaces the served views; existing subscribers are then marked
  /// lagged (their base lacks the new views).
  Status EnableServing(std::vector<std::string> views = {});
  bool serving() const {
    return serving_enabled_.load(std::memory_order_acquire);
  }

  /// The latest published snapshot (invalid handle before EnableServing).
  /// Safe from any thread; cost is one mutex-guarded shared_ptr copy.
  ViewSnapshot Snapshot() const;

  /// Register a subscriber for per-epoch view deltas, seeded with the
  /// current snapshot as its base. Registration is atomic with respect to
  /// publishes: the first delta a subscriber sees is for base.epoch()+1.
  Result<ViewSubscriber> Subscribe();

  /// Per-subscriber queue bound; past it a slow subscriber is marked
  /// lagged and its queued deltas are dropped (it must re-subscribe).
  size_t max_queued_deltas() const { return max_queued_deltas_; }
  void set_max_queued_deltas(size_t n) { max_queued_deltas_ = n == 0 ? 1 : n; }

  /// Retained bytes attributable to the engine's state (tables, indexes,
  /// maps), for the memory bench.
  virtual size_t StateBytes() const = 0;

  /// Serialize the engine's dynamic state (base tables, aggregate maps,
  /// multisets) into `out` / restore it from `in`. Engines that implement
  /// state capture override both; the default reports kNotSupported.
  /// Restore protocol: construct the engine the same way (same program /
  /// registered queries), then LoadState — snapshots capture dynamic state,
  /// not query registration. The epoch is owned by the checkpoint envelope
  /// (src/runtime/checkpoint.h), not the payload.
  virtual Status SaveState(dbt::Ser* out) const;
  virtual Status LoadState(dbt::Deser* in);

  /// Number of successfully applied ingest calls (batches or single
  /// events). Monotonic; the batch-log recovery protocol uses it as the
  /// exactly-once replay cursor.
  uint64_t epoch() const { return epoch_; }

  /// Adopt `epoch` after LoadState replaced the engine's state (checkpoint
  /// restore). A serving engine republishes every served view in full at
  /// that epoch, and existing subscribers are marked lagged: their delta
  /// stream cannot bridge the jump.
  Status ResumeAt(uint64_t epoch);

  const IngestValidator& ingest_validator() const { return validator_; }

 protected:
  /// Engine-specific batch ingestion; input has passed boundary validation.
  virtual Status DoApplyBatch(EventBatch&& batch) = 0;
  virtual Status DoOnEvent(const Event& event) {
    return DoApplyBatch(EventBatch::Of(event));
  }

  /// Schema registration for the boundary validator (typically from the
  /// engine's constructor).
  void RegisterIngestCatalog(const Catalog& catalog) {
    validator_.RegisterCatalog(catalog);
  }
  void RegisterIngestSchema(const std::string& relation,
                            std::vector<EventColumn::Tag> lanes) {
    validator_.Register(relation, std::move(lanes));
  }

  /// Incremental-serving hooks (writer thread). TrackView starts (on) or
  /// stops recording which groups of view `name` the engine's writes
  /// touch, and on success stores the view's column names in `columns`
  /// (when non-null); false when the engine cannot tell, and the view is
  /// rendered in full every epoch. ServedGroups passes a tracked view's
  /// groups touched since the last call (all = false) or every present
  /// group (all = true), with their current rows, to `fn` and forgets the
  /// touched set; false, before any call to `fn`, when that set is unknown
  /// (a map was cleared or the state reloaded). Writes made while rendering
  /// must not be recorded.
  virtual bool TrackView(const std::string& name, bool on,
                         std::vector<std::string>* columns);
  virtual bool ServedGroups(const std::string& name, bool all,
                            const GroupFn& fn);

 private:
  /// Writer-side layout of one served view in the published snapshot.
  struct ServedView {
    std::string name;
    bool tracked = false;  ///< TrackView accepted the view
    bool seeded = false;   ///< pos/key_of describe the published rows
    std::unordered_map<Row, uint32_t, RowHash, RowEq> pos;  ///< key -> row
    std::vector<const Row*> key_of;  ///< row -> key (a node key of pos)
  };

  /// Row positions each published epoch changed, per view (`full`: the view
  /// was replaced wholesale). A recycled snapshot buffer catches up by
  /// copying those positions from the latest snapshot.
  struct EpochLog {
    uint64_t epoch = 0;
    std::vector<std::vector<uint32_t>> changed;
    std::vector<bool> full;
    size_t positions = 0;  ///< 1 + changed positions (a full view: rows)
  };

  /// Superseded snapshot buffers, returned by the published shared_ptr's
  /// deleter once no reader holds them (at most kMaxFreeSnapshots; the rest
  /// are freed). Every deleter shares the pool, so it outlives the engine
  /// as long as a snapshot does. The engine swaps in a fresh pool whenever
  /// old buffers stop being comparable (new views, a state jump).
  struct SnapshotPool {
    std::mutex mu;
    std::vector<std::unique_ptr<ViewSnapshot::Data>> free;
  };

  /// Wrap a buffer for publishing; its deleter returns it to the pool.
  std::shared_ptr<const ViewSnapshot::Data> Adopt(ViewSnapshot::Data* data);
  /// Render `sv` in full into `view`: every group of a tracked view
  /// (re-seeding its layout), else View() (column names included).
  Status RenderFull(ServedView* sv, exec::QueryResult* view);
  /// A writable buffer at the published epoch's content for every view in
  /// `incremental` (the others are overwritten wholesale).
  std::unique_ptr<ViewSnapshot::Data> TakeBuffer(
      const std::vector<bool>& incremental);
  /// Apply one reported group to `view` and the layout; logs the changed
  /// position and, when `delta` is set, the removed and added rows.
  void ApplyGroup(ServedView* sv, const Row& key, const Row* row,
                  exec::QueryResult* view, std::vector<uint32_t>* changed,
                  ViewDelta* delta);

  /// Publish the current epoch: apply each served view's change to a
  /// snapshot buffer, swap it in and fan the per-epoch delta out (writer
  /// thread, after a successful ingest).
  Status PublishSnapshot();

  IngestValidator validator_;
  uint64_t epoch_ = 0;

  // Serving state. Only the writer thread mutates published_ (publish),
  // the layouts, the epoch log and served_ (EnableServing); serving_mu_
  // orders published_ and subscribers_ against reader Snapshot()/Subscribe()
  // calls. Subscriber channels are held weakly so dropping a ViewSubscriber
  // handle unsubscribes it.
  std::atomic<bool> serving_enabled_{false};
  mutable std::mutex serving_mu_;
  std::shared_ptr<const ViewSnapshot::Data> published_;
  std::vector<std::weak_ptr<ViewSubscriber::Channel>> subscribers_;
  std::vector<ServedView> served_;
  std::deque<EpochLog> epoch_log_;
  size_t epoch_log_positions_ = 0;
  std::shared_ptr<SnapshotPool> pool_ = std::make_shared<SnapshotPool>();
  size_t max_queued_deltas_ = 4096;
};

/// Upsert/primary-key ingestion adapter: rewrites a raw, possibly
/// duplicated or reordered stream into the exact multiset deltas the
/// engines consume. For each relation declared with a key:
///   - an insert whose key is already live replaces the old row
///     (delete(old) + insert(new));
///   - a byte-identical duplicate insert is dropped;
///   - a delete whose key is not live (late, duplicated, or reordered
///     ahead of its insert) is dropped.
/// Undeclared relations pass through untouched. The adapter's key->row
/// table is itself engine state for recovery purposes (Save/Load), so a
/// restored pipeline dedups exactly where the crashed one would have.
class UpsertNormalizer {
 public:
  void DeclareKey(const std::string& relation, std::vector<size_t> key_cols);

  /// Rewrite `batch` into normalized deltas, in group order, row order
  /// within each group (deterministic for a given input).
  EventBatch Normalize(EventBatch&& batch);

  void Save(dbt::Ser* out) const;
  Status Load(dbt::Deser* in);

  size_t live_rows(const std::string& relation) const;

 private:
  struct KeyedRelation {
    std::vector<size_t> key_cols;
    std::unordered_map<Row, Row, RowHash, RowEq> current;  ///< key -> row
  };

  std::map<std::string, KeyedRelation> keyed_;
};

/// Drives a dbtc-generated program (any dbt::StreamProgram) through the
/// same interface as the interpreted engines: every batch goes to the
/// program's on_batch unchanged. The program's published relation schemas
/// (when present) arm the boundary validator, so malformed batches are
/// rejected before they reach the typed handlers; relations the program
/// knows but has no trigger for remain counted no-ops, matching the
/// generated dispatcher's behaviour.
class CompiledProgramEngine final : public StreamEngine {
 public:
  explicit CompiledProgramEngine(dbt::StreamProgram* program,
                                 std::string name = "toaster-c");

  std::string Name() const override { return name_; }
  Result<exec::QueryResult> View(const std::string& name) override;
  std::vector<std::string> ViewNames() const override;
  size_t StateBytes() const override;

  Status SaveState(dbt::Ser* out) const override;
  Status LoadState(dbt::Deser* in) override;

  dbt::StreamProgram* program() { return program_; }

 protected:
  Status DoApplyBatch(EventBatch&& batch) override;
  bool TrackView(const std::string& name, bool on,
                 std::vector<std::string>* columns) override;
  bool ServedGroups(const std::string& name, bool all,
                    const GroupFn& fn) override;

 private:
  dbt::StreamProgram* program_;
  std::string name_;
};

}  // namespace dbtoaster::runtime

#endif  // DBTOASTER_RUNTIME_STREAM_ENGINE_H_
