// Concurrent view-serving tests: epoch-stamped snapshot consistency under
// a concurrent writer (the TSan stress lane), subscriber delta-stream
// replay, lag handling, compiled-program snapshots, and the incremental
// publish (touched groups only) against a full render at every epoch. The
// mm query is the workhorse: it is all-integer (sums of ints, int group
// keys), so all four engine classes render byte-identical sorted views at
// every epoch — the acceptance bar for cross-engine snapshot identity.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/gen/best_bid.hpp"
#include "bench/gen/micro.hpp"
#include "bench/gen/mm.hpp"
#include "bench/gen/q12s.hpp"
#include "bench/gen/q13s.hpp"
#include "bench/gen/q3s.hpp"
#include "bench/gen/q41.hpp"
#include "bench/gen/q6s.hpp"
#include "bench/gen/revenue.hpp"
#include "bench/gen/selall.hpp"
#include "bench/gen/selhalf.hpp"
#include "bench/gen/selzero.hpp"
#include "bench/gen/sobi_bids.hpp"
#include "bench/gen/vwap.hpp"
#include "src/baseline/ivm1_engine.h"
#include "src/baseline/reeval_engine.h"
#include "src/common/rng.h"
#include "src/compiler/compile.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/engine.h"
#include "src/runtime/stream_engine.h"
#include "src/sql/parser.h"

namespace dbtoaster {
namespace {

using runtime::EpochDelta;
using runtime::EventBatch;
using runtime::StreamEngine;
using runtime::ViewSnapshot;
using runtime::ViewSubscriber;

// ---------------------------------------------------------------------------
// Helpers (stream construction mirrors recovery_test.cc).
// ---------------------------------------------------------------------------

struct ScriptCase {
  std::string name;
  Catalog catalog;
  std::string sql;
};

ScriptCase LoadScript(const std::string& name) {
  ScriptCase out;
  out.name = name;
  const std::string path = std::string(DBT_QUERY_DIR) + "/" + name + ".sql";
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::stringstream ss;
  ss << f.rdbuf();
  auto script = sql::ParseScript(ss.str());
  EXPECT_TRUE(script.ok()) << path << ": " << script.status().ToString();
  for (const sql::CreateTableStmt& t : script.value().tables) {
    EXPECT_TRUE(out.catalog.AddRelation(t).ok());
  }
  EXPECT_EQ(script.value().queries.size(), 1u) << path;
  out.sql = script.value().queries[0].select->ToString();
  return out;
}

/// Seeded mixed insert/delete stream (deletes always target live tuples).
/// mm's columns are all ints, so Range(0, 7) keeps the group count small
/// and the delete rate meaningful.
std::vector<EventBatch> MakeStream(const Catalog& catalog, uint64_t seed,
                                   size_t num_batches) {
  Rng rng(seed);
  std::map<std::string, std::vector<Row>> live;
  std::vector<std::string> rels;
  for (const Schema& s : catalog.relations()) rels.push_back(s.name());
  const size_t kBatchSizes[] = {1, 7, 64, 150};
  std::vector<EventBatch> batches(num_batches);
  for (size_t b = 0; b < num_batches; ++b) {
    const size_t batch_size = kBatchSizes[b % std::size(kBatchSizes)];
    for (size_t ev = 0; ev < batch_size; ++ev) {
      const std::string& rel = rels[rng.Uniform(rels.size())];
      std::vector<Row>& rows = live[rel];
      if (!rows.empty() && rng.Chance(0.35)) {
        size_t pick = rng.Uniform(rows.size());
        Row victim = rows[pick];
        rows.erase(rows.begin() + static_cast<long>(pick));
        batches[b].AddDelete(rel, victim);
      } else {
        const Schema* schema = catalog.FindRelation(rel);
        Row tuple;
        for (size_t c = 0; c < schema->num_columns(); ++c) {
          tuple.push_back(Value(rng.Range(0, 7)));
        }
        rows.push_back(tuple);
        batches[b].AddInsert(rel, tuple);
      }
    }
  }
  return batches;
}

struct EngineInstance {
  std::unique_ptr<dbt::StreamProgram> program;
  std::unique_ptr<StreamEngine> engine;
  std::string view;
};

/// Fresh engine of `kind` for the script (empty when the class legitimately
/// rejects the query — ivm1 outside its fragment).
EngineInstance MakeEngine(const std::string& kind, const ScriptCase& sc) {
  EngineInstance out;
  if (kind == "toaster-i") {
    auto program = compiler::CompileQuery(sc.catalog, "q", sc.sql);
    EXPECT_TRUE(program.ok()) << sc.name << ": " << program.status().ToString();
    if (!program.ok()) return out;
    out.engine = std::make_unique<runtime::Engine>(std::move(program).value());
    out.view = "q";
  } else if (kind == "reeval") {
    auto e = std::make_unique<baseline::ReevalEngine>(sc.catalog,
                                                      /*eager=*/false);
    EXPECT_TRUE(e->AddQuery("q", sc.sql).ok()) << sc.name;
    out.engine = std::move(e);
    out.view = "q";
  } else if (kind == "ivm1") {
    auto e = std::make_unique<baseline::Ivm1Engine>(sc.catalog);
    Status st = e->AddQuery("q", sc.sql);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kNotSupported)
          << sc.name << ": " << st.ToString();
      return out;  // legitimately excluded
    }
    out.engine = std::move(e);
    out.view = "q";
  } else if (kind == "toaster-c") {
    out.program = std::make_unique<dbtoaster_gen::mm_Program>();
    out.engine =
        std::make_unique<runtime::CompiledProgramEngine>(out.program.get());
    out.view = "q0";  // dbtc scripts auto-name their first query q0
  }
  return out;
}

/// Canonical multiset rendering of a view's rows: sorted, equal rows
/// merged, multiplicities explicit. Engine-agnostic (column names and the
/// view's registered name are excluded), so equal canon strings mean
/// byte-identical view content.
std::string CanonRows(const std::vector<std::pair<Row, int64_t>>& rows) {
  exec::QueryResult tmp;
  tmp.rows = rows;
  auto sorted = tmp.SortedRows();
  std::string s;
  for (size_t i = 0; i < sorted.size();) {
    size_t j = i;
    int64_t mult = 0;
    while (j < sorted.size() && sorted[j].first == sorted[i].first) {
      mult += sorted[j].second;
      ++j;
    }
    if (mult != 0) {
      s += RowToString(sorted[i].first);
      s += " x" + std::to_string(mult) + "\n";
    }
    i = j;
  }
  return s;
}

std::string CanonView(const exec::QueryResult& r) { return CanonRows(r.rows); }

std::string CanonMultiset(
    const std::unordered_map<Row, int64_t, RowHash, RowEq>& rows) {
  std::vector<std::pair<Row, int64_t>> flat(rows.begin(), rows.end());
  return CanonRows(flat);
}

/// Uninterrupted single-threaded replay of the stream: canon of the view
/// after each prefix. ref[e] is the (only possible) epoch-e rendering.
std::vector<std::string> BuildReference(const std::string& kind,
                                        const ScriptCase& sc,
                                        const std::vector<EventBatch>& stream) {
  EngineInstance inst = MakeEngine(kind, sc);
  if (inst.engine == nullptr) return {};
  std::vector<std::string> ref;
  ref.reserve(stream.size() + 1);
  auto v0 = inst.engine->View(inst.view);
  EXPECT_TRUE(v0.ok()) << kind << ": " << v0.status().ToString();
  ref.push_back(CanonView(v0.value()));
  for (const EventBatch& b : stream) {
    Status st = inst.engine->ApplyBatch(EventBatch(b));
    EXPECT_TRUE(st.ok()) << kind << ": " << st.ToString();
    auto v = inst.engine->View(inst.view);
    EXPECT_TRUE(v.ok()) << kind << ": " << v.status().ToString();
    ref.push_back(CanonView(v.value()));
  }
  return ref;
}

const char* kEngineKinds[] = {"toaster-i", "reeval", "ivm1", "toaster-c"};

// ---------------------------------------------------------------------------
// Snapshot consistency under a concurrent writer (the TSan stress lane).
// ---------------------------------------------------------------------------

/// For every engine class and reader count in {1, 2, 8}: reader threads
/// spin on Snapshot() while the writer ingests the whole stream. Every
/// snapshot any reader observes must be exactly the epoch-e reference
/// rendering (never a half-applied batch), epochs must be monotone per
/// reader, and the reference renderings themselves are byte-identical
/// across all engine classes.
TEST(ServingStress, EpochConsistentSnapshotsAcrossEngines) {
  const ScriptCase sc = LoadScript("mm");
  const size_t kBatches = 48;
  const std::vector<EventBatch> stream = MakeStream(sc.catalog, 0x5eed, kBatches);

  std::map<std::string, std::vector<std::string>> refs;
  for (const char* kind : kEngineKinds) {
    std::vector<std::string> ref = BuildReference(kind, sc, stream);
    if (!ref.empty()) refs[kind] = std::move(ref);
  }
  ASSERT_GE(refs.size(), 4u) << "expected all four engine classes to run mm";

  // Cross-engine: the published rendering at each epoch is byte-identical
  // across engine classes (mm is all-integer; no float tolerance needed).
  const std::vector<std::string>& base = refs.begin()->second;
  for (const auto& [kind, ref] : refs) {
    ASSERT_EQ(ref.size(), kBatches + 1) << kind;
    for (size_t e = 0; e <= kBatches; ++e) {
      ASSERT_EQ(ref[e], base[e])
          << kind << " vs " << refs.begin()->first << " at epoch " << e;
    }
  }

  for (const char* kind : kEngineKinds) {
    for (const size_t num_readers : {size_t{1}, size_t{2}, size_t{8}}) {
      EngineInstance inst = MakeEngine(kind, sc);
      ASSERT_NE(inst.engine, nullptr) << kind;
      StreamEngine* engine = inst.engine.get();
      const std::vector<std::string>& ref = refs[kind];
      const std::string label =
          std::string(kind) + " x" + std::to_string(num_readers) + " readers";

      ASSERT_FALSE(engine->Snapshot().valid()) << label;
      ASSERT_TRUE(engine->EnableServing().ok()) << label;
      ASSERT_TRUE(engine->serving()) << label;

      std::atomic<bool> done{false};
      std::atomic<uint64_t> snapshots_seen{0};
      std::vector<std::thread> readers;
      readers.reserve(num_readers);
      for (size_t r = 0; r < num_readers; ++r) {
        readers.emplace_back([&, r] {
          uint64_t last_epoch = 0;
          uint64_t seen = 0;
          bool stop = false;
          while (!stop) {
            // One extra pass after the writer finishes so every reader
            // also checks the final snapshot.
            stop = done.load(std::memory_order_acquire);
            ViewSnapshot snap = engine->Snapshot();
            EXPECT_TRUE(snap.valid()) << label << " reader " << r;
            if (!snap.valid()) break;
            const uint64_t e = snap.epoch();
            EXPECT_GE(e, last_epoch) << label << " reader " << r
                                     << ": epoch went backwards";
            EXPECT_LE(e, kBatches) << label << " reader " << r;
            last_epoch = e;
            const exec::QueryResult* v = snap.Find(inst.view);
            EXPECT_NE(v, nullptr) << label << " reader " << r;
            if (v != nullptr) {
              EXPECT_EQ(CanonView(*v), ref[e])
                  << label << " reader " << r
                  << ": snapshot at epoch " << e
                  << " is not the epoch-consistent rendering";
            }
            ++seen;
          }
          snapshots_seen.fetch_add(seen);
        });
      }

      for (const EventBatch& b : stream) {
        Status st = engine->ApplyBatch(EventBatch(b));
        ASSERT_TRUE(st.ok()) << label << ": " << st.ToString();
        // Give readers a slice between publishes so they interleave with
        // the writer instead of racing it only at the end.
        std::this_thread::yield();
      }
      done.store(true, std::memory_order_release);
      for (std::thread& t : readers) t.join();

      EXPECT_GE(snapshots_seen.load(), num_readers) << label;
      ViewSnapshot fin = engine->Snapshot();
      ASSERT_TRUE(fin.valid()) << label;
      EXPECT_EQ(fin.epoch(), kBatches) << label;
      const exec::QueryResult* v = fin.Find(inst.view);
      ASSERT_NE(v, nullptr) << label;
      EXPECT_EQ(CanonView(*v), ref[kBatches]) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Subscriber delta streams.
// ---------------------------------------------------------------------------

/// base + deltas(base.epoch()+1 .. e) replays to exactly the published
/// rendering at every epoch, for every engine class; a subscriber attached
/// mid-stream starts from the then-current snapshot.
TEST(Serving, SubscriberDeltaReplayReconstructsEveryEpoch) {
  const ScriptCase sc = LoadScript("mm");
  const size_t kBatches = 32;
  const size_t kMidEpoch = 17;
  const std::vector<EventBatch> stream = MakeStream(sc.catalog, 99, kBatches);

  for (const char* kind : kEngineKinds) {
    const std::vector<std::string> ref = BuildReference(kind, sc, stream);
    if (ref.empty()) continue;  // class excluded for this query
    EngineInstance inst = MakeEngine(kind, sc);
    StreamEngine* engine = inst.engine.get();

    ASSERT_FALSE(engine->Subscribe().ok()) << kind << ": not serving yet";
    ASSERT_TRUE(engine->EnableServing().ok()) << kind;

    auto sub = engine->Subscribe();
    ASSERT_TRUE(sub.ok()) << kind << ": " << sub.status().ToString();
    ASSERT_TRUE(sub.value().valid()) << kind;
    EXPECT_EQ(sub.value().base().epoch(), 0u) << kind;

    ViewSubscriber mid;
    for (size_t b = 0; b < stream.size(); ++b) {
      ASSERT_TRUE(engine->ApplyBatch(EventBatch(stream[b])).ok()) << kind;
      if (b + 1 == kMidEpoch) {
        auto m = engine->Subscribe();
        ASSERT_TRUE(m.ok()) << kind;
        mid = std::move(m).value();
        EXPECT_EQ(mid.base().epoch(), kMidEpoch) << kind;
      }
    }

    auto replay = [&](ViewSubscriber& s, uint64_t from) {
      const exec::QueryResult* bv = s.base().Find(inst.view);
      ASSERT_NE(bv, nullptr) << kind;
      EXPECT_EQ(CanonView(*bv), ref[from]) << kind << " base epoch " << from;
      std::unordered_map<Row, int64_t, RowHash, RowEq> rows;
      for (const auto& [row, mult] : bv->rows) rows[row] += mult;

      auto deltas = s.Poll();
      EXPECT_FALSE(s.lagged()) << kind;
      ASSERT_EQ(deltas.size(), kBatches - from) << kind;
      uint64_t expect_epoch = from;
      for (const auto& d : deltas) {
        ASSERT_EQ(d->epoch, ++expect_epoch) << kind << ": epoch gap";
        ASSERT_EQ(d->views.size(), 1u) << kind;
        EXPECT_EQ(d->views[0].view, inst.view) << kind;
        runtime::ApplyViewDelta(d->views[0], &rows);
        EXPECT_EQ(CanonMultiset(rows), ref[expect_epoch])
            << kind << ": replay diverges from the published rendering at "
            << "epoch " << expect_epoch;
      }
      EXPECT_TRUE(s.Poll().empty()) << kind << ": drained stream not empty";
    };
    replay(sub.value(), 0);
    replay(mid, kMidEpoch);
  }
}

/// A subscriber that stops polling past the queue bound is marked lagged,
/// its stale queue is dropped, and a fresh Subscribe() recovers.
TEST(Serving, SlowSubscriberLags) {
  const ScriptCase sc = LoadScript("mm");
  const std::vector<EventBatch> stream = MakeStream(sc.catalog, 7, 8);
  EngineInstance inst = MakeEngine("toaster-i", sc);
  StreamEngine* engine = inst.engine.get();
  engine->set_max_queued_deltas(2);
  ASSERT_TRUE(engine->EnableServing().ok());

  auto sub = engine->Subscribe();
  ASSERT_TRUE(sub.ok());
  for (const EventBatch& b : stream) {
    ASSERT_TRUE(engine->ApplyBatch(EventBatch(b)).ok());
  }
  EXPECT_TRUE(sub.value().lagged());
  EXPECT_TRUE(sub.value().Poll().empty()) << "lagged queue must be dropped";

  auto fresh = engine->Subscribe();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().base().epoch(), engine->epoch());
  EXPECT_FALSE(fresh.value().lagged());
}

// ---------------------------------------------------------------------------
// API edges and compiled-program snapshots.
// ---------------------------------------------------------------------------

TEST(Serving, EnableServingRejectsUnknownView) {
  const ScriptCase sc = LoadScript("mm");
  EngineInstance inst = MakeEngine("toaster-i", sc);
  Status st = inst.engine->EnableServing({"no_such_view"});
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(inst.engine->serving());
}

TEST(Serving, ViewNamesCoverAllEngineClasses) {
  const ScriptCase sc = LoadScript("mm");
  for (const char* kind : kEngineKinds) {
    EngineInstance inst = MakeEngine(kind, sc);
    if (inst.engine == nullptr) continue;
    EXPECT_EQ(inst.engine->ViewNames(),
              std::vector<std::string>{inst.view})
        << kind;
  }
}

/// A compiled program's published snapshot is exactly what View() reports.
TEST(Serving, CompiledSnapshotMatchesView) {
  const ScriptCase sc = LoadScript("mm");
  const std::vector<EventBatch> stream = MakeStream(sc.catalog, 3, 12);
  EngineInstance inst = MakeEngine("toaster-c", sc);
  StreamEngine* engine = inst.engine.get();
  ASSERT_TRUE(engine->EnableServing().ok());
  for (const EventBatch& b : stream) {
    ASSERT_TRUE(engine->ApplyBatch(EventBatch(b)).ok());
  }

  auto direct = engine->View("q0");
  ASSERT_TRUE(direct.ok());
  ViewSnapshot snap = engine->Snapshot();
  ASSERT_TRUE(snap.valid());
  const exec::QueryResult* served = snap.Find("q0");
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(CanonView(*served), CanonView(direct.value()));
}

// ---------------------------------------------------------------------------
// Incremental publish: touched groups only, equal to a full render.
// ---------------------------------------------------------------------------

std::unique_ptr<dbt::StreamProgram> MakeGenerated(const std::string& name) {
  if (name == "vwap") return std::make_unique<dbtoaster_gen::vwap_Program>();
  if (name == "sobi_bids") {
    return std::make_unique<dbtoaster_gen::sobi_bids_Program>();
  }
  if (name == "mm") return std::make_unique<dbtoaster_gen::mm_Program>();
  if (name == "best_bid") {
    return std::make_unique<dbtoaster_gen::best_bid_Program>();
  }
  if (name == "q41") return std::make_unique<dbtoaster_gen::q41_Program>();
  if (name == "revenue") {
    return std::make_unique<dbtoaster_gen::revenue_Program>();
  }
  if (name == "q3s") return std::make_unique<dbtoaster_gen::q3s_Program>();
  if (name == "q6s") return std::make_unique<dbtoaster_gen::q6s_Program>();
  if (name == "q12s") return std::make_unique<dbtoaster_gen::q12s_Program>();
  if (name == "q13s") return std::make_unique<dbtoaster_gen::q13s_Program>();
  if (name == "selzero") {
    return std::make_unique<dbtoaster_gen::selzero_Program>();
  }
  if (name == "selhalf") {
    return std::make_unique<dbtoaster_gen::selhalf_Program>();
  }
  if (name == "selall") {
    return std::make_unique<dbtoaster_gen::selall_Program>();
  }
  if (name == "micro") return std::make_unique<dbtoaster_gen::micro_Program>();
  return nullptr;
}

/// A script's catalog and every query in it, named q0, q1, ... as dbtc
/// names them.
struct MultiScript {
  Catalog catalog;
  std::vector<std::string> sqls;
};

MultiScript LoadMultiScript(const std::string& path) {
  MultiScript out;
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::stringstream ss;
  ss << f.rdbuf();
  auto script = sql::ParseScript(ss.str());
  EXPECT_TRUE(script.ok()) << path << ": " << script.status().ToString();
  for (const sql::CreateTableStmt& t : script.value().tables) {
    EXPECT_TRUE(out.catalog.AddRelation(t).ok());
  }
  for (const auto& q : script.value().queries) {
    out.sqls.push_back(q.select->ToString());
  }
  return out;
}

/// Typed random tuples over small domains (joins hit, predicates stay
/// partially selective), in random batch sizes from 1 to past
/// dbt::kShardBatchCutoff, with purge batches so groups appear and vanish;
/// deletes always name live tuples.
std::vector<EventBatch> MakeTypedStream(const Catalog& catalog, uint64_t seed,
                                        size_t num_batches) {
  static const char* kStrings[] = {
      "BUILDING", "MAIL", "SHIP", "RAIL", "1-URGENT", "2-HIGH",
      "3-MEDIUM", "no remarks", "special requests", "customer special requests"};
  static const double kDoubles[] = {0.04, 0.05, 0.06, 0.07, 0.10, 1.5, 20.0};
  const int64_t lo_day = CivilToDays(1993, 6, 1);
  const int64_t hi_day = CivilToDays(1995, 6, 30);
  Rng rng(seed);
  std::map<std::string, std::vector<Row>> live;
  std::vector<std::string> rels;
  for (const Schema& s : catalog.relations()) rels.push_back(s.name());
  std::vector<EventBatch> batches(num_batches);
  for (size_t b = 0; b < num_batches; ++b) {
    // Every eighth batch purges most live tuples, so groups vanish too.
    if (b % 8 == 7) {
      for (auto& [rel, rows] : live) {
        for (size_t i = rows.size(); i-- > 0;) {
          if (!rng.Chance(0.85)) continue;
          batches[b].AddDelete(rel, rows[i]);
          rows.erase(rows.begin() + static_cast<long>(i));
        }
      }
      continue;
    }
    const size_t size = static_cast<size_t>(
        rng.Chance(0.25) ? rng.Range(1, 3)
                         : rng.Range(1, 2 * dbt::kShardBatchCutoff));
    for (size_t ev = 0; ev < size; ++ev) {
      const std::string& rel = rels[rng.Uniform(rels.size())];
      std::vector<Row>& rows = live[rel];
      if (!rows.empty() && rng.Chance(0.3)) {
        const size_t pick = rng.Uniform(rows.size());
        batches[b].AddDelete(rel, rows[pick]);
        rows.erase(rows.begin() + static_cast<long>(pick));
        continue;
      }
      const Schema* schema = catalog.FindRelation(rel);
      Row tuple;
      for (size_t c = 0; c < schema->num_columns(); ++c) {
        switch (schema->column_type(c)) {
          case Type::kInt: tuple.push_back(Value(rng.Range(0, 7))); break;
          case Type::kDouble:
            tuple.push_back(Value(kDoubles[rng.Uniform(std::size(kDoubles))]));
            break;
          case Type::kString:
            tuple.push_back(
                Value(std::string(kStrings[rng.Uniform(std::size(kStrings))])));
            break;
          case Type::kDate:
            tuple.push_back(Value(lo_day + rng.Range(0, hi_day - lo_day)));
            break;
        }
      }
      rows.push_back(tuple);
      batches[b].AddInsert(rel, tuple);
    }
  }
  return batches;
}

/// Serves every view of `engine` over `stream`, and after every batch
/// checks each published view against a full View() render and against the
/// subscriber's base plus deltas. Returns how many epochs some view lost a
/// row, so callers can tell that groups really vanished.
size_t CheckIncrementalPublish(StreamEngine* engine,
                               const std::vector<EventBatch>& stream,
                               const std::string& label) {
  const std::vector<std::string> views = engine->ViewNames();
  EXPECT_FALSE(views.empty()) << label;
  EXPECT_TRUE(engine->EnableServing().ok()) << label;
  auto sub = engine->Subscribe();
  EXPECT_TRUE(sub.ok()) << label;
  if (!sub.ok()) return 0;
  std::map<std::string, std::unordered_map<Row, int64_t, RowHash, RowEq>>
      replay;
  std::map<std::string, size_t> last_rows;
  for (const std::string& v : views) {
    const exec::QueryResult* base = sub.value().base().Find(v);
    EXPECT_NE(base, nullptr) << label << " " << v;
    if (base == nullptr) return 0;
    for (const auto& [row, mult] : base->rows) replay[v][row] += mult;
    last_rows[v] = base->rows.size();
  }
  size_t shrinks = 0;
  for (size_t b = 0; b < stream.size(); ++b) {
    const Status st = engine->ApplyBatch(EventBatch(stream[b]));
    EXPECT_TRUE(st.ok()) << label << ": " << st.ToString();
    if (!st.ok()) return shrinks;
    for (const auto& d : sub.value().Poll()) {
      EXPECT_EQ(d->epoch, b + 1) << label;
      for (const runtime::ViewDelta& vd : d->views) {
        runtime::ApplyViewDelta(vd, &replay[vd.view]);
      }
    }
    const ViewSnapshot snap = engine->Snapshot();
    EXPECT_EQ(snap.epoch(), engine->epoch()) << label;
    bool shrank = false;
    for (const std::string& v : views) {
      auto full = engine->View(v);
      const exec::QueryResult* served = snap.Find(v);
      EXPECT_TRUE(full.ok() && served != nullptr) << label << " " << v;
      if (!full.ok() || served == nullptr) return shrinks;
      const std::string want = CanonView(full.value());
      EXPECT_EQ(CanonView(*served), want)
          << label << " view " << v << " after batch " << b;
      EXPECT_EQ(CanonMultiset(replay[v]), want)
          << label << " view " << v << ": base + deltas diverge after batch "
          << b;
      shrank = shrank || served->rows.size() < last_rows[v];
      last_rows[v] = served->rows.size();
    }
    shrinks += shrank ? 1 : 0;
  }
  EXPECT_FALSE(sub.value().lagged()) << label;
  return shrinks;
}

std::unique_ptr<runtime::Engine> MakeInterpreted(const Catalog& catalog,
                                                 const std::vector<std::string>& sqls) {
  compiler::Compiler c(catalog);
  for (size_t i = 0; i < sqls.size(); ++i) {
    EXPECT_TRUE(c.AddQuery("q" + std::to_string(i), sqls[i]).ok()) << sqls[i];
  }
  auto program = c.Compile();
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) return nullptr;
  return std::make_unique<runtime::Engine>(std::move(program).value());
}

class IncrementalPublish : public ::testing::TestWithParam<const char*> {};

/// For every bench query and the 17-query micro program (one engine serving
/// all 17 views, some sharing maps), on toaster-i and toaster-c: every
/// published snapshot equals the full render, and base + deltas replay it.
/// The streams cover groups that appear and vanish, HAVING flips, LEFT JOIN
/// zero-crossings, MIN/MAX, global views and vwap's re-evaluated map.
TEST_P(IncrementalPublish, EveryEpochEqualsFullRender) {
  const std::string name = GetParam();
  MultiScript ms;
  if (name == "micro") {
    ms = LoadMultiScript(std::string(DBT_TEST_QUERY_DIR) + "/micro.sql");
  } else {
    ms = LoadMultiScript(std::string(DBT_QUERY_DIR) + "/" + name + ".sql");
  }
  ASSERT_FALSE(ms.sqls.empty());
  const std::vector<EventBatch> stream =
      MakeTypedStream(ms.catalog, 0x1c2 + name.size(), 48);

  std::unique_ptr<runtime::Engine> interp = MakeInterpreted(ms.catalog, ms.sqls);
  ASSERT_NE(interp, nullptr);
  const size_t interp_shrinks =
      CheckIncrementalPublish(interp.get(), stream, name + " toaster-i");

  std::unique_ptr<dbt::StreamProgram> program = MakeGenerated(name);
  ASSERT_NE(program, nullptr);
  runtime::CompiledProgramEngine compiled(program.get());
  const size_t compiled_shrinks =
      CheckIncrementalPublish(&compiled, stream, name + " toaster-c");
  EXPECT_EQ(interp_shrinks, compiled_shrinks) << name;
  // Global views never lose their one row, and selzero's guard passes no
  // tuple; every other workload here sees groups vanish.
  if (name != "vwap" && name != "sobi_bids" && name != "best_bid" &&
      name != "q6s" && name != "selzero") {
    EXPECT_GT(interp_shrinks, 0u) << name << ": no group ever vanished";
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, IncrementalPublish,
                         ::testing::Values("vwap", "sobi_bids", "mm",
                                           "best_bid", "q41", "revenue",
                                           "q3s", "q6s", "q12s", "q13s",
                                           "selzero", "selhalf", "selall",
                                           "micro"));

/// Sharded mm (batches past dbt::kShardBatchCutoff, so pool workers write
/// the map partitions and their own touched-key lists) at 1 and 8 threads,
/// with readers spinning on the recycled snapshot buffers: every snapshot
/// is the epoch's rendering, and the published row order is the same at
/// both thread counts.
TEST(ServingStress, ShardedIncrementalPublishIsThreadCountInvariant) {
  const ScriptCase sc = LoadScript("mm");
  Rng rng(0xbadc0de);
  std::vector<EventBatch> stream = MakeStream(sc.catalog, 0x51ab, 40);
  // Re-chunk into batches of kShardBatchCutoff..3x events.
  std::vector<EventBatch> big;
  for (size_t b = 0; b + 2 < stream.size(); b += 3) {
    EventBatch merged;
    for (size_t k = b; k < b + 3; ++k) {
      for (const EventBatch::Group& g : stream[k].groups()) {
        for (const Row& row : runtime::GroupRows(g)) {
          merged.Add(runtime::GroupKind(g), g.relation, row);
        }
      }
    }
    while (merged.size() < dbt::kShardBatchCutoff) {
      merged.AddInsert(rng.Chance(0.5) ? "BIDS" : "ASKS",
                       {Value(rng.Range(0, 7)), Value(rng.Range(0, 7)),
                        Value(rng.Range(0, 7)), Value(rng.Range(0, 7))});
    }
    big.push_back(std::move(merged));
  }

  for (const char* kind : {"toaster-c", "toaster-i"}) {
    std::vector<std::vector<std::pair<Row, int64_t>>> orders[2];
    const size_t threads[2] = {1, 8};
    for (size_t t = 0; t < 2; ++t) {
      runtime::shard_pool().set_threads(threads[t]);
      EngineInstance inst = MakeEngine(kind, sc);
      ASSERT_NE(inst.engine, nullptr);
      StreamEngine* engine = inst.engine.get();
      const std::string label =
          std::string(kind) + " threads=" + std::to_string(threads[t]);
      ASSERT_TRUE(engine->EnableServing().ok()) << label;
      std::vector<std::string> ref;  // canon of the view at each epoch
      ref.push_back(CanonView(engine->View(inst.view).value()));
      std::atomic<bool> done{false};
      std::vector<std::thread> readers;
      std::mutex ref_mu;
      for (int r = 0; r < 3; ++r) {
        readers.emplace_back([&, r] {
          while (!done.load(std::memory_order_acquire)) {
            ViewSnapshot snap = engine->Snapshot();
            const exec::QueryResult* v = snap.Find(inst.view);
            ASSERT_NE(v, nullptr);
            const std::string canon = CanonView(*v);
            std::lock_guard<std::mutex> lock(ref_mu);
            if (snap.epoch() < ref.size()) {
              EXPECT_EQ(canon, ref[snap.epoch()])
                  << label << " reader " << r << " epoch " << snap.epoch();
            }
          }
        });
      }
      // No ASSERT until the readers are joined.
      bool ok = true;
      for (const EventBatch& b : big) {
        ok = engine->ApplyBatch(EventBatch(b)).ok();
        auto v = engine->View(inst.view);
        if (!ok || !v.ok()) break;
        {
          std::lock_guard<std::mutex> lock(ref_mu);
          ref.push_back(CanonView(v.value()));
        }
        orders[t].push_back(engine->Snapshot().Find(inst.view)->rows);
      }
      done.store(true, std::memory_order_release);
      for (std::thread& th : readers) th.join();
      ASSERT_TRUE(ok && orders[t].size() == big.size()) << label;
    }
    runtime::shard_pool().set_threads(1);
    ASSERT_EQ(orders[0].size(), orders[1].size());
    for (size_t e = 0; e < orders[0].size(); ++e) {
      EXPECT_TRUE(orders[0][e] == orders[1][e])
          << kind << ": published row order differs between 1 and 8 threads "
          << "at epoch " << e + 1;
    }
  }
}

/// Restoring a checkpoint into a serving engine republishes at the
/// restored epoch: readers see the restored views, and subscribers (whose
/// delta stream cannot bridge the jump) are marked lagged. Later batches
/// publish incrementally again from the re-seeded layout.
TEST(Serving, RestoreIntoServingEngineRepublishes) {
  const ScriptCase sc = LoadScript("mm");
  const std::vector<EventBatch> stream = MakeStream(sc.catalog, 11, 24);
  for (const char* kind : {"toaster-i", "toaster-c"}) {
    EngineInstance inst = MakeEngine(kind, sc);
    StreamEngine* engine = inst.engine.get();
    const std::string path =
        ::testing::TempDir() + "dbt_serving_restore_" + kind + ".ckpt";
    ASSERT_TRUE(engine->EnableServing().ok()) << kind;
    for (size_t b = 0; b < stream.size(); ++b) {
      ASSERT_TRUE(engine->ApplyBatch(EventBatch(stream[b])).ok()) << kind;
      if (b + 1 == 8) {
        ASSERT_TRUE(runtime::WriteCheckpoint(path, *engine).ok()) << kind;
      }
    }
    auto sub = engine->Subscribe();
    ASSERT_TRUE(sub.ok()) << kind;
    ASSERT_TRUE(runtime::RestoreCheckpoint(path, engine).ok()) << kind;
    EXPECT_EQ(engine->epoch(), 8u) << kind;

    ViewSnapshot snap = engine->Snapshot();
    EXPECT_EQ(snap.epoch(), engine->epoch()) << kind;
    auto live = engine->View(inst.view);
    ASSERT_TRUE(live.ok()) << kind;
    ASSERT_NE(snap.Find(inst.view), nullptr) << kind;
    EXPECT_EQ(CanonView(*snap.Find(inst.view)), CanonView(live.value()))
        << kind << ": snapshot after restore is not the restored view";
    EXPECT_TRUE(sub.value().lagged()) << kind;

    for (size_t b = 8; b < stream.size(); ++b) {
      ASSERT_TRUE(engine->ApplyBatch(EventBatch(stream[b])).ok()) << kind;
      ViewSnapshot s = engine->Snapshot();
      EXPECT_EQ(s.epoch(), b + 1) << kind;
      EXPECT_EQ(CanonView(*s.Find(inst.view)),
                CanonView(engine->View(inst.view).value()))
          << kind << " after batch " << b;
    }
    std::remove(path.c_str());
  }
}

/// EnableServing on an engine that already serves replaces the served
/// views: existing subscribers (whose base lacks the new view) are marked
/// lagged, and a fresh subscriber replays both views exactly.
TEST(Serving, EnableServingAgainMarksSubscribersLagged) {
  const MultiScript ms =
      LoadMultiScript(std::string(DBT_TEST_QUERY_DIR) + "/micro.sql");
  const std::vector<EventBatch> stream = MakeTypedStream(ms.catalog, 5, 12);
  std::unique_ptr<runtime::Engine> interp = MakeInterpreted(ms.catalog, ms.sqls);
  ASSERT_NE(interp, nullptr);
  std::unique_ptr<dbt::StreamProgram> program = MakeGenerated("micro");
  runtime::CompiledProgramEngine compiled(program.get());
  for (StreamEngine* engine : {static_cast<StreamEngine*>(interp.get()),
                               static_cast<StreamEngine*>(&compiled)}) {
    const std::string label = engine->Name();
    ASSERT_TRUE(engine->EnableServing({"q3"}).ok()) << label;
    for (size_t b = 0; b < 4; ++b) {
      ASSERT_TRUE(engine->ApplyBatch(EventBatch(stream[b])).ok()) << label;
    }
    auto old_sub = engine->Subscribe();
    ASSERT_TRUE(old_sub.ok()) << label;
    ASSERT_TRUE(engine->EnableServing({"q3", "q8"}).ok()) << label;
    auto sub = engine->Subscribe();
    ASSERT_TRUE(sub.ok()) << label;
    EXPECT_EQ(sub.value().base().view_names(),
              (std::vector<std::string>{"q3", "q8"}))
        << label;
    std::map<std::string, std::unordered_map<Row, int64_t, RowHash, RowEq>>
        replay;
    for (const std::string v : {"q3", "q8"}) {
      for (const auto& [row, mult] : sub.value().base().Find(v)->rows) {
        replay[v][row] += mult;
      }
    }
    for (size_t b = 4; b < stream.size(); ++b) {
      ASSERT_TRUE(engine->ApplyBatch(EventBatch(stream[b])).ok()) << label;
    }
    EXPECT_TRUE(old_sub.value().lagged()) << label;
    EXPECT_TRUE(old_sub.value().Poll().empty()) << label;
    for (const auto& d : sub.value().Poll()) {
      for (const runtime::ViewDelta& vd : d->views) {
        runtime::ApplyViewDelta(vd, &replay[vd.view]);
      }
    }
    EXPECT_FALSE(sub.value().lagged()) << label;
    for (const std::string v : {"q3", "q8"}) {
      EXPECT_EQ(CanonMultiset(replay[v]), CanonView(engine->View(v).value()))
          << label << " view " << v;
    }
  }
}

}  // namespace
}  // namespace dbtoaster
