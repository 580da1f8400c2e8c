// Concurrent view-serving tests: epoch-stamped snapshot consistency under
// a concurrent writer (the TSan stress lane), subscriber delta-stream
// replay, lag handling, and the generated programs' publish hook. The mm
// query is the workhorse: it is all-integer (sums of ints, int group
// keys), so all four engine classes render byte-identical sorted views at
// every epoch — the acceptance bar for cross-engine snapshot identity.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/gen/mm.hpp"
#include "src/baseline/ivm1_engine.h"
#include "src/baseline/reeval_engine.h"
#include "src/common/rng.h"
#include "src/compiler/compile.h"
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
// API edges and the generated publish hook.
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

/// The generated programs' publish_snapshot() hook (asserted on by
/// lint_gen.sh) renders exactly what View() reports, and the snapshot path
/// uses it.
TEST(Serving, CompiledPublishSnapshotMatchesView) {
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

  // The raw hook agrees with the registered view list.
  std::vector<dbt::ViewRows> published = inst.program->publish_snapshot();
  ASSERT_EQ(published.size(), 1u);
  EXPECT_EQ(published[0].name, "q0");
  EXPECT_EQ(published[0].rows.size(), direct.value().rows.size());
}

}  // namespace
}  // namespace dbtoaster
