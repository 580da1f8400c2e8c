// Durability & recovery tests: serde round-trips, checkpoint envelope
// integrity, batch-log torn-tail handling, exactly-once replay, boundary
// validation of adversarial batches, upsert normalization — and the
// randomized crash-recovery property: for every bench query and every
// engine class, kill the engine at a random batch boundary (optionally
// corrupting the log tail), recover from checkpoint + log, continue the
// stream, and require views byte-identical to an uninterrupted replay of
// the same class at every recovery point.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/gen/best_bid.hpp"
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
#include "src/runtime/batch_log.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/engine.h"
#include "src/runtime/stream_engine.h"
#include "src/sql/parser.h"

namespace dbtoaster {
namespace {

using runtime::BatchLogReader;
using runtime::BatchLogWriter;
using runtime::EventBatch;
using runtime::StreamEngine;

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "dbt_recovery_" + name;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

bool ValuesClose(const Value& a, const Value& b) {
  if (a.is_double() || b.is_double()) {
    if (!a.is_numeric() || !b.is_numeric()) return false;
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    const double diff = x > y ? x - y : y - x;
    const double mag = (x < 0 ? -x : x) + (y < 0 ? -y : y);
    return diff <= 1e-9 * (mag + 1.0);
  }
  return a == b;
}

/// Sorted view comparison. Engines whose views ARE the maintained state
/// (toaster-i, ivm1, toaster-c) must come back byte-identical (`exact`).
/// The re-evaluation baseline recomputes views by scanning its base tables,
/// and a restored hash table may scan in a different slot order than the
/// uninterrupted one — the float sums then differ in the last ulp, so its
/// aggregates are compared at ulp-level tolerance (keys stay exact).
void ExpectViewMatch(const exec::QueryResult& want,
                     const exec::QueryResult& got, const std::string& label,
                     bool exact) {
  auto ws = want.SortedRows();
  auto gs = got.SortedRows();
  ASSERT_EQ(ws.size(), gs.size())
      << label << "\nwant:\n" << want.ToString() << "got:\n" << got.ToString();
  for (size_t i = 0; i < ws.size(); ++i) {
    bool same = ws[i].second == gs[i].second;
    if (same && exact) {
      same = ws[i].first == gs[i].first;
    } else if (same) {
      same = ws[i].first.size() == gs[i].first.size();
      for (size_t c = 0; same && c < ws[i].first.size(); ++c) {
        same = ValuesClose(ws[i].first[c], gs[i].first[c]);
      }
    }
    ASSERT_TRUE(same) << label << " row " << i << " differs\nwant:\n"
                      << want.ToString() << "got:\n" << got.ToString();
  }
}

/// Byte-identical comparison (no tolerance).
void ExpectIdenticalView(const exec::QueryResult& want,
                         const exec::QueryResult& got,
                         const std::string& label) {
  ExpectViewMatch(want, got, label, /*exact=*/true);
}

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
  return nullptr;
}

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

Value RandomValue(Rng* rng, Type type) {
  switch (type) {
    case Type::kInt:
      return Value(rng->Range(0, 7));
    case Type::kDouble: {
      static const double kPool[] = {0.04, 0.05, 0.06, 0.07, 0.10, 1.5, 20.0};
      return Value(kPool[rng->Uniform(std::size(kPool))]);
    }
    case Type::kString: {
      static const char* kPool[] = {"BUILDING",  "AUTOMOBILE", "MAIL",
                                    "SHIP",      "RAIL",       "1-URGENT",
                                    "2-HIGH",    "3-MEDIUM",   "no remarks",
                                    "special requests"};
      return Value(std::string(kPool[rng->Uniform(std::size(kPool))]));
    }
    case Type::kDate: {
      const int64_t lo = CivilToDays(1993, 6, 1);
      const int64_t hi = CivilToDays(1995, 6, 30);
      return Value(lo + rng->Range(0, hi - lo));
    }
  }
  return Value(int64_t{0});
}

/// Seeded mixed insert/delete stream over the catalog, pre-split into
/// batches (deletes always target live tuples).
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
          tuple.push_back(RandomValue(&rng, schema->column_type(c)));
        }
        rows.push_back(tuple);
        batches[b].AddInsert(rel, tuple);
      }
    }
  }
  return batches;
}

/// One engine instance of a given class for a bench query; the generated
/// program (when any) is owned alongside the engine.
struct EngineInstance {
  std::unique_ptr<dbt::StreamProgram> program;
  std::unique_ptr<StreamEngine> engine;
  std::string view;
};

/// Build a fresh engine of `kind` for the script. Returns an empty instance
/// when the engine class legitimately rejects the query (ivm1 outside the
/// first-order fragment, asserted as kNotSupported).
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
    out.program = MakeGenerated(sc.name);
    EXPECT_NE(out.program, nullptr) << sc.name;
    if (out.program == nullptr) return out;
    out.engine =
        std::make_unique<runtime::CompiledProgramEngine>(out.program.get());
    out.view = "q0";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Serde round-trips.
// ---------------------------------------------------------------------------

TEST(StateSerde, SerDeserRoundTrip) {
  const std::string embedded_nul("hello \0 world", 13);
  dbt::Ser s;
  s.u8(7);
  s.u32(0xdeadbeef);
  s.u64(uint64_t{1} << 60);
  s.i64(-42);
  s.f64(3.25);
  s.str(embedded_nul);

  dbt::Deser d(s.data());
  EXPECT_EQ(d.u8(), 7u);
  EXPECT_EQ(d.u32(), 0xdeadbeefu);
  EXPECT_EQ(d.u64(), uint64_t{1} << 60);
  EXPECT_EQ(d.i64(), -42);
  EXPECT_EQ(d.f64(), 3.25);
  EXPECT_EQ(d.str(), embedded_nul);
  EXPECT_TRUE(d.done());

  // Underrun flips ok() and sticks.
  dbt::Deser short_d(s.data().data(), 3);
  (void)short_d.u64();
  EXPECT_FALSE(short_d.ok());
  EXPECT_EQ(short_d.u64(), 0u);
  EXPECT_FALSE(short_d.done());
}

TEST(StateSerde, Crc32MatchesKnownVector) {
  // IEEE 802.3 CRC of "123456789" is the classic check value.
  EXPECT_EQ(dbt::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_NE(dbt::Crc32("123456788", 9), dbt::Crc32("123456789", 9));
}

TEST(StateSerde, ValueAndRowRoundTrip) {
  Row row{Value(int64_t{-5}), Value(2.5), Value(std::string("abc")),
          Value(int64_t{0})};
  dbt::Ser s;
  runtime::WriteRow(s, row);
  dbt::Deser d(s.data());
  Row back;
  ASSERT_TRUE(runtime::ReadRow(d, &back));
  EXPECT_TRUE(d.done());
  ASSERT_EQ(back.size(), row.size());
  EXPECT_TRUE(back == row);
  EXPECT_TRUE(back[1].is_double());
  EXPECT_TRUE(back[2].is_string());

  // A malformed tag is rejected, not misread.
  dbt::Ser bad;
  bad.u64(1);
  bad.u8(9);
  dbt::Deser bd(bad.data());
  Row out;
  EXPECT_FALSE(runtime::ReadRow(bd, &out));
}

TEST(StateSerde, MapRoundTripPreservesDoubleZeroEntries) {
  dbt::Map<std::tuple<int64_t>, double> m;
  m.restore_entry(std::make_tuple(INT64_C(7)), 0.0);
  m.restore_entry(std::make_tuple(INT64_C(8)), 1.5);
  dbt::Ser s;
  m.save(s);
  dbt::Map<std::tuple<int64_t>, double> back;
  dbt::Deser d(s.data());
  ASSERT_TRUE(back.load(d));
  EXPECT_TRUE(d.done());
  EXPECT_EQ(back.size(), 2u);
  // The double-zero entry's presence in the live key set is state and must
  // survive the round trip (set() would have interpreted and erased it).
  double* slot = back.find_value(std::make_tuple(INT64_C(7)));
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(*slot, 0.0);
}

TEST(StateSerde, ExtremeMapDebtSurvivesRoundTrip) {
  dbt::ExtremeMap<std::tuple<int64_t>, int64_t> em;
  const auto key = std::make_tuple(INT64_C(1));
  // A delete reordered ahead of its insert: pure debt, zero live values.
  em.remove(key, 5);
  int64_t v = 0;
  EXPECT_FALSE(em.min(key, &v));

  dbt::Ser s;
  em.save(s);
  dbt::ExtremeMap<std::tuple<int64_t>, int64_t> back;
  dbt::Deser d(s.data());
  ASSERT_TRUE(back.load(d));
  EXPECT_TRUE(d.done());
  EXPECT_FALSE(back.min(key, &v));
  // The late-arriving insert must cancel against the restored debt, not
  // resurrect the already-retracted value.
  back.add(key, 5);
  EXPECT_FALSE(back.min(key, &v));
  back.add(key, 9);
  ASSERT_TRUE(back.min(key, &v));
  EXPECT_EQ(v, 9);
}

// The batch-log frame payload is an on-disk format: the same clean batch
// must keep serializing to exactly these bytes, or existing logs stop
// replaying.
TEST(StateSerde, SerializedBatchBytesArePinned) {
  EventBatch b;
  b.AddInsert("R", {Value(int64_t{1}), Value(2.5), Value("x")});
  b.AddInsert("R", {Value(int64_t{-2}), Value(0.5), Value("yz")});
  b.AddDelete("R", {Value(int64_t{1}), Value(2.5), Value("x")});
  b.AddInsert("S", {Value(int64_t{9})});
  dbt::Ser s;
  runtime::SerializeBatch(b, &s);
  std::string hex;
  for (unsigned char c : s.data()) {
    char buf[3];
    std::snprintf(buf, sizeof(buf), "%02x", c);
    hex += buf;
  }
  const std::string want =
      "0300000000000000010000000000000052000200000000000000030000000000"
      "0000000100000000000000feffffffffffffff01000000000000044000000000"
      "0000e03f020100000000000000780200000000000000797a0100000000000000"
      "5201010000000000000003000000000000000001000000000000000100000000"
      "0000044002010000000000000078010000000000000053000100000000000000"
      "0100000000000000000900000000000000";
  EXPECT_EQ(hex, want);
}

TEST(StateSerde, BatchSerdeRoundTrip) {
  EventBatch b;
  b.AddInsert("R", {Value(int64_t{1}), Value(2.5), Value("x")});
  b.AddInsert("R", {Value(int64_t{2}), Value(0.5), Value("y")});
  b.AddDelete("R", {Value(int64_t{1}), Value(2.5), Value("x")});
  b.AddInsert("S", {Value(int64_t{9})});

  dbt::Ser s;
  runtime::SerializeBatch(b, &s);
  dbt::Deser d(s.data());
  EventBatch back;
  ASSERT_TRUE(runtime::DeserializeBatch(&d, &back).ok());
  EXPECT_TRUE(d.done());

  ASSERT_EQ(back.groups().size(), b.groups().size());
  EXPECT_EQ(back.size(), b.size());
  for (size_t g = 0; g < b.groups().size(); ++g) {
    const EventBatch::Group& want = b.groups()[g];
    const EventBatch::Group& got = back.groups()[g];
    EXPECT_EQ(got.relation, want.relation);
    EXPECT_EQ(got.is_insert, want.is_insert);
    ASSERT_EQ(got.rows, want.rows);
    EXPECT_TRUE(runtime::GroupRows(got) == runtime::GroupRows(want));
  }
}

// ---------------------------------------------------------------------------
// Boundary validation (adversarial batches).
// ---------------------------------------------------------------------------

Catalog MicroCatalog() {
  Catalog c;
  EXPECT_TRUE(
      c.AddRelation(
           sql::ParseCreateTable("create table R(K int, TAG string, V int)")
               .value())
          .ok());
  EXPECT_TRUE(
      c.AddRelation(
           sql::ParseCreateTable("create table S(K int, W double)").value())
          .ok());
  return c;
}

std::unique_ptr<runtime::Engine> MicroEngine() {
  Catalog c = MicroCatalog();
  auto program =
      compiler::CompileQuery(c, "q", "select sum(R.V) from R where R.K > 0");
  EXPECT_TRUE(program.ok());
  return std::make_unique<runtime::Engine>(std::move(program).value());
}

TEST(IngestValidation, UnknownRelationIsNotFoundWithContext) {
  auto e = MicroEngine();
  EventBatch b;
  b.AddInsert("NO_SUCH_REL", {Value(int64_t{1})});
  Status st = e->ApplyBatch(std::move(b));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_NE(st.message().find("NO_SUCH_REL"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(e->epoch(), 0u);  // rejected batches do not advance the epoch
}

TEST(IngestValidation, ArityMismatchIsInvalidArgumentWithContext) {
  auto e = MicroEngine();
  EventBatch b;
  b.AddInsert("R", {Value(int64_t{1}), Value("x")});  // R has 3 columns
  Status st = e->ApplyBatch(std::move(b));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("'R'"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("3"), std::string::npos) << st.ToString();

  Status ste = e->OnInsert("R", {Value(int64_t{1})});
  ASSERT_FALSE(ste.ok());
  EXPECT_EQ(ste.code(), StatusCode::kInvalidArgument);
}

TEST(IngestValidation, LaneTypeMismatchIsTypeErrorWithColumn) {
  auto e = MicroEngine();
  // Column 1 of R is a string; an i64 lane there is a type error.
  EventBatch b;
  b.AddInsert("R", {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{3})});
  Status st = e->ApplyBatch(std::move(b));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
  EXPECT_NE(st.message().find("column 1"), std::string::npos) << st.ToString();

  // Numeric lanes are interchangeable: ints into S's double column is fine.
  Status ok = e->OnInsert("S", {Value(int64_t{1}), Value(int64_t{4})});
  EXPECT_TRUE(ok.ok()) << ok.ToString();
}

// A batch column that mixes strings and numbers is a type error naming the
// relation and column on every engine, in both directions: building the
// batch never throws, nothing is ingested, and the epoch stays put.
void ExpectMixedColumnRejected(const Row& first, const Row& second,
                               const std::string& column) {
  ScriptCase sc = LoadScript("q3s");
  for (const char* kind : {"toaster-i", "ivm1", "reeval", "toaster-c"}) {
    EngineInstance inst = MakeEngine(kind, sc);
    ASSERT_NE(inst.engine, nullptr) << kind;
    EventBatch b;
    b.AddInsert("CUSTOMER", first);
    b.AddInsert("CUSTOMER", second);
    Status st = inst.engine->ApplyBatch(std::move(b));
    ASSERT_FALSE(st.ok()) << kind;
    EXPECT_EQ(st.code(), StatusCode::kTypeError) << kind;
    EXPECT_NE(st.message().find("'CUSTOMER'"), std::string::npos)
        << st.ToString();
    EXPECT_NE(st.message().find(column), std::string::npos) << st.ToString();
    EXPECT_EQ(inst.engine->epoch(), 0u) << kind;
  }
}

TEST(IngestValidation, NumberAfterStringInOneColumnIsTypeError) {
  // MKTSEGMENT (column 1) is a string column; its second value is a number.
  ExpectMixedColumnRejected({Value(int64_t{1}), Value("BUILDING")},
                            {Value(int64_t{2}), Value(int64_t{7})},
                            "column 1");
}

TEST(IngestValidation, StringAfterNumberInOneColumnIsTypeError) {
  // CUSTKEY (column 0) is an int column; its second value is a string.
  ExpectMixedColumnRejected({Value(int64_t{1}), Value("BUILDING")},
                            {Value("oops"), Value("MACHINERY")}, "column 0");
}

TEST(IngestValidation, CatalogRelationWithoutTriggerIsAcceptedNoOp) {
  auto e = MicroEngine();
  // S is in the catalog but the query never reads it: validated, applied to
  // the base-table snapshot, no trigger fired.
  Status st = e->OnInsert("S", {Value(int64_t{1}), Value(2.5)});
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(e->epoch(), 1u);
}

TEST(IngestValidation, CompiledProgramRejectsMalformedBatches) {
  ScriptCase sc = LoadScript("vwap");
  EngineInstance inst = MakeEngine("toaster-c", sc);
  ASSERT_NE(inst.engine, nullptr);

  EventBatch unknown;
  unknown.AddInsert("NOT_A_RELATION", {Value(int64_t{1})});
  Status st = inst.engine->ApplyBatch(std::move(unknown));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_NE(st.message().find("NOT_A_RELATION"), std::string::npos);

  const Schema& first = sc.catalog.relations()[0];
  if (first.num_columns() != 1) {
    EventBatch bad_arity;
    bad_arity.AddInsert(first.name(), {Value(1.0)});
    Status st2 = inst.engine->ApplyBatch(std::move(bad_arity));
    ASSERT_FALSE(st2.ok());
    EXPECT_EQ(st2.code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(inst.engine->epoch(), 0u);
}

// ---------------------------------------------------------------------------
// Upsert / primary-key normalization.
// ---------------------------------------------------------------------------

TEST(UpsertNormalizer, DedupsReplacesAndDropsUnknownDeletes) {
  runtime::UpsertNormalizer norm;
  norm.DeclareKey("R", {0});

  EventBatch in;
  in.AddInsert("R", {Value(int64_t{1}), Value("a")});
  in.AddInsert("R", {Value(int64_t{1}), Value("a")});   // exact duplicate
  in.AddInsert("R", {Value(int64_t{2}), Value("b")});
  in.AddDelete("R", {Value(int64_t{9}), Value("zz")});  // unknown key
  EventBatch out = norm.Normalize(std::move(in));
  // Duplicate dropped, unknown delete dropped -> two net inserts.
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(norm.live_rows("R"), 2u);

  // Upsert: same key, new payload -> delete(old) + insert(new).
  EventBatch upd;
  upd.AddInsert("R", {Value(int64_t{1}), Value("a2")});
  EventBatch out2 = norm.Normalize(std::move(upd));
  EXPECT_EQ(out2.size(), 2u);
  bool saw_delete_old = false, saw_insert_new = false;
  for (const EventBatch::Group& g : out2.groups()) {
    for (const Row& r : runtime::GroupRows(g)) {
      if (!g.is_insert && r[1] == Value("a")) saw_delete_old = true;
      if (g.is_insert && r[1] == Value("a2")) saw_insert_new = true;
    }
  }
  EXPECT_TRUE(saw_delete_old && saw_insert_new);

  // A stale delete naming the replaced image is dropped; the live one lands.
  EventBatch dels;
  dels.AddDelete("R", {Value(int64_t{1}), Value("a")});   // stale image
  dels.AddDelete("R", {Value(int64_t{1}), Value("a2")});  // live image
  EventBatch out3 = norm.Normalize(std::move(dels));
  EXPECT_EQ(out3.size(), 1u);
  EXPECT_EQ(norm.live_rows("R"), 1u);

  // Undeclared relations pass through untouched.
  EventBatch other;
  other.AddInsert("S", {Value(int64_t{5})});
  other.AddInsert("S", {Value(int64_t{5})});
  EXPECT_EQ(norm.Normalize(std::move(other)).size(), 2u);
}

TEST(UpsertNormalizer, StateRoundTripsSoRecoveryDedupsIdentically) {
  runtime::UpsertNormalizer norm;
  norm.DeclareKey("R", {0});
  EventBatch in;
  in.AddInsert("R", {Value(int64_t{1}), Value("a")});
  in.AddInsert("R", {Value(int64_t{2}), Value("b")});
  (void)norm.Normalize(std::move(in));

  dbt::Ser s;
  norm.Save(&s);
  runtime::UpsertNormalizer back;
  dbt::Deser d(s.data());
  ASSERT_TRUE(back.Load(&d).ok());
  EXPECT_TRUE(d.done());
  EXPECT_EQ(back.live_rows("R"), 2u);

  // The restored table dedups exactly where the original would have.
  EventBatch dup;
  dup.AddInsert("R", {Value(int64_t{1}), Value("a")});
  EXPECT_EQ(back.Normalize(std::move(dup)).size(), 0u);
}

// ---------------------------------------------------------------------------
// Checkpoint envelope.
// ---------------------------------------------------------------------------

TEST(Checkpoint, RoundTripRestoresViewsAndEpoch) {
  auto e = MicroEngine();
  ASSERT_TRUE(
      e->OnInsert("R", {Value(int64_t{1}), Value("a"), Value(int64_t{10})})
          .ok());
  ASSERT_TRUE(
      e->OnInsert("R", {Value(int64_t{2}), Value("b"), Value(int64_t{20})})
          .ok());
  const std::string path = TempPath("roundtrip.ckpt");
  ASSERT_TRUE(runtime::WriteCheckpoint(path, *e).ok());

  auto meta = runtime::ReadCheckpointMeta(path);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta.value().version, runtime::kCheckpointVersion);
  EXPECT_EQ(meta.value().engine_name, "toaster-i");
  EXPECT_EQ(meta.value().epoch, 2u);

  auto restored = MicroEngine();
  ASSERT_TRUE(runtime::RestoreCheckpoint(path, restored.get()).ok());
  EXPECT_EQ(restored->epoch(), 2u);
  auto want = e->View("q");
  auto got = restored->View("q");
  ASSERT_TRUE(want.ok() && got.ok());
  ExpectIdenticalView(want.value(), got.value(), "checkpoint roundtrip");
  EXPECT_EQ(restored->TotalMapEntries(), e->TotalMapEntries());
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptionAndTruncationAreRejected) {
  auto e = MicroEngine();
  ASSERT_TRUE(
      e->OnInsert("R", {Value(int64_t{1}), Value("a"), Value(int64_t{5})})
          .ok());
  const std::string path = TempPath("corrupt.ckpt");
  ASSERT_TRUE(runtime::WriteCheckpoint(path, *e).ok());
  const std::string good = ReadBytes(path);

  // Bit flip in the body -> CRC failure.
  std::string flipped = good;
  flipped[good.size() / 2] =
      static_cast<char>(flipped[good.size() / 2] ^ 0x40);
  WriteBytes(path, flipped);
  auto r1 = MicroEngine();
  Status st1 = runtime::RestoreCheckpoint(path, r1.get());
  ASSERT_FALSE(st1.ok());
  EXPECT_EQ(st1.code(), StatusCode::kParseError);
  EXPECT_NE(st1.message().find("CRC"), std::string::npos) << st1.ToString();

  // Torn write: a truncated snapshot fails CRC/magic, never partially
  // restores.
  WriteBytes(path, good.substr(0, good.size() / 2));
  auto r2 = MicroEngine();
  EXPECT_FALSE(runtime::RestoreCheckpoint(path, r2.get()).ok());
  EXPECT_EQ(r2->epoch(), 0u);

  // Not a snapshot at all.
  WriteBytes(path, "definitely not a checkpoint");
  auto r3 = MicroEngine();
  EXPECT_FALSE(runtime::RestoreCheckpoint(path, r3.get()).ok());

  // Missing file.
  std::remove(path.c_str());
  auto r4 = MicroEngine();
  EXPECT_EQ(runtime::RestoreCheckpoint(path, r4.get()).code(),
            StatusCode::kNotFound);
}

TEST(Checkpoint, WrongEngineClassIsRejectedByName) {
  auto e = MicroEngine();
  const std::string path = TempPath("wrongname.ckpt");
  ASSERT_TRUE(runtime::WriteCheckpoint(path, *e).ok());
  baseline::ReevalEngine other(MicroCatalog());
  Status st = runtime::RestoreCheckpoint(path, &other);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("toaster-i"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Batch log.
// ---------------------------------------------------------------------------

TEST(BatchLog, AppendReadRoundTripAndTornTail) {
  const std::string path = TempPath("log_roundtrip.log");
  std::remove(path.c_str());
  Catalog cat = MicroCatalog();
  std::vector<EventBatch> batches = MakeStream(cat, 0xbeef, 5);
  {
    BatchLogWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    w.set_sync_every(2);
    for (size_t i = 0; i < batches.size(); ++i) {
      ASSERT_TRUE(w.Append(i + 1, batches[i]).ok());
    }
    ASSERT_TRUE(w.Sync().ok());
  }

  BatchLogReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  BatchLogReader::Record rec;
  size_t n = 0;
  while (reader.Next(&rec)) {
    EXPECT_EQ(rec.epoch, n + 1);
    EXPECT_EQ(rec.batch.size(), batches[n].size());
    ++n;
  }
  EXPECT_EQ(n, batches.size());
  EXPECT_FALSE(reader.tail_torn());
  const std::string bytes = ReadBytes(path);
  EXPECT_EQ(reader.valid_bytes(), bytes.size());

  // Tear the last record: the reader recovers the prefix and flags the tail.
  WriteBytes(path, bytes.substr(0, bytes.size() - 3));
  BatchLogReader torn;
  ASSERT_TRUE(torn.Open(path).ok());
  size_t m = 0;
  while (torn.Next(&rec)) ++m;
  EXPECT_EQ(m, batches.size() - 1);
  EXPECT_TRUE(torn.tail_torn());
  EXPECT_LT(torn.valid_bytes(), bytes.size() - 3);

  // Bit flip inside the last record: CRC stops the scan at the same prefix.
  std::string flipped = bytes;
  flipped[bytes.size() - 2] = static_cast<char>(flipped[bytes.size() - 2] ^ 1);
  WriteBytes(path, flipped);
  BatchLogReader crc;
  ASSERT_TRUE(crc.Open(path).ok());
  size_t k = 0;
  while (crc.Next(&rec)) ++k;
  EXPECT_EQ(k, batches.size() - 1);
  EXPECT_TRUE(crc.tail_torn());

  // A writer reopening after recovery truncates to the valid prefix and
  // appends cleanly.
  {
    BatchLogWriter w;
    ASSERT_TRUE(w.Open(path, static_cast<int64_t>(crc.valid_bytes())).ok());
    ASSERT_TRUE(w.Append(batches.size(), batches.back()).ok());
  }
  BatchLogReader again;
  ASSERT_TRUE(again.Open(path).ok());
  size_t j = 0;
  while (again.Next(&rec)) ++j;
  EXPECT_EQ(j, batches.size());
  EXPECT_FALSE(again.tail_torn());
  std::remove(path.c_str());
}

/// A non-EINTR write failure mid-frame (simulated full disk) must not
/// strand later records behind a torn frame: the writer truncates back to
/// the pre-append offset, refuses appends until Sync() confirms the
/// rollback, and every record appended after recovery stays replayable.
// A batch whose column mixed strings and numbers is refused before any byte
// reaches the log: ingest rejects it, so replay must never see it.
TEST(BatchLog, AppendRefusesMixedColumnBatch) {
  const std::string path = TempPath("log_mixed.log");
  std::remove(path.c_str());
  EventBatch mixed;
  mixed.AddInsert("R", {Value(int64_t{1}), Value("a"), Value(int64_t{2})});
  mixed.AddInsert("R",
                  {Value(int64_t{2}), Value(int64_t{3}), Value(int64_t{4})});
  BatchLogWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  Status st = w.Append(1, mixed);
  EXPECT_EQ(st.code(), StatusCode::kTypeError) << st.ToString();
  ASSERT_TRUE(w.Sync().ok());
  EXPECT_TRUE(ReadBytes(path).empty());
  std::remove(path.c_str());
}

TEST(BatchLog, MidFrameWriteFailureRollsBackTornFrame) {
  const std::string path = TempPath("log_midframe.log");
  std::remove(path.c_str());
  Catalog cat = MicroCatalog();
  std::vector<EventBatch> batches = MakeStream(cat, 0xd15c, 4);

  BatchLogWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  w.set_sync_every(100);  // keep Sync() out of the way of the fault
  ASSERT_TRUE(w.Append(1, batches[0]).ok());
  ASSERT_TRUE(w.Append(2, batches[1]).ok());
  const std::string before = ReadBytes(path);

  // Let the next frame get 5 bytes (a torn header) before writes fail.
  w.set_write_limit_for_testing(5);
  Status st = w.Append(3, batches[2]);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("rolled back"), std::string::npos)
      << st.ToString();
  EXPECT_TRUE(w.failed());

  // The torn frame is gone from the file, not sitting after the prefix.
  EXPECT_EQ(ReadBytes(path).size(), before.size());

  // Appends are refused until the rollback is confirmed durable.
  w.set_write_limit_for_testing(SIZE_MAX);
  EXPECT_FALSE(w.Append(3, batches[2]).ok());
  ASSERT_TRUE(w.Sync().ok());
  EXPECT_FALSE(w.failed());

  // Post-recovery appends land exactly after the valid prefix...
  ASSERT_TRUE(w.Append(3, batches[2]).ok());
  ASSERT_TRUE(w.Append(4, batches[3]).ok());
  ASSERT_TRUE(w.Sync().ok());
  w.Close();

  // ...and the untrusting reader reaches every record: no torn frame, no
  // unreachable tail.
  BatchLogReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  BatchLogReader::Record rec;
  size_t n = 0;
  while (reader.Next(&rec)) {
    EXPECT_EQ(rec.epoch, n + 1);
    EXPECT_EQ(rec.batch.size(), batches[n].size());
    ++n;
  }
  EXPECT_EQ(n, batches.size());
  EXPECT_FALSE(reader.tail_torn());
  EXPECT_EQ(reader.valid_bytes(), ReadBytes(path).size());
  std::remove(path.c_str());
}

/// Crash injected between the tmp-file fsync and the rename: the
/// checkpoint write fails, the tmp file is left behind (as a real crash
/// would leave it), and the previous checkpoint remains fully restorable.
TEST(Checkpoint, CrashBetweenTmpFsyncAndRenamePreservesPrevious) {
  const std::string path = TempPath("crash.ckpt");
  std::remove(path.c_str());
  const std::string tmp = path + ".tmp";

  auto e = MicroEngine();
  ASSERT_TRUE(
      e->OnInsert("R", {Value(int64_t{1}), Value("a"), Value(int64_t{10})})
          .ok());
  ASSERT_TRUE(runtime::WriteCheckpoint(path, *e).ok());
  const std::string good = ReadBytes(path);

  ASSERT_TRUE(
      e->OnInsert("R", {Value(int64_t{2}), Value("b"), Value(int64_t{20})})
          .ok());
  runtime::SetCheckpointCrashForTesting(
      runtime::CheckpointCrashPoint::kAfterTmpFsync);
  Status st = runtime::WriteCheckpoint(path, *e);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("injected crash"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(ReadBytes(tmp).empty(), false) << "tmp file should be left behind";

  // The previous checkpoint is untouched and restores to epoch 1.
  EXPECT_EQ(ReadBytes(path), good);
  auto meta = runtime::ReadCheckpointMeta(path);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta.value().epoch, 1u);
  auto restored = MicroEngine();
  ASSERT_TRUE(runtime::RestoreCheckpoint(path, restored.get()).ok());
  EXPECT_EQ(restored->epoch(), 1u);

  // The injection is one-shot: a retry writes the epoch-2 snapshot.
  ASSERT_TRUE(runtime::WriteCheckpoint(path, *e).ok());
  auto meta2 = runtime::ReadCheckpointMeta(path);
  ASSERT_TRUE(meta2.ok());
  EXPECT_EQ(meta2.value().epoch, 2u);
  std::remove(path.c_str());
  std::remove(tmp.c_str());
}

TEST(BatchLog, ReplayIsExactlyOnceAndDetectsGaps) {
  const std::string path = TempPath("log_replay.log");
  std::remove(path.c_str());
  Catalog cat = MicroCatalog();
  std::vector<EventBatch> batches = MakeStream(cat, 0xfeed, 6);

  auto reference = MicroEngine();
  {
    BatchLogWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    for (size_t i = 0; i < batches.size(); ++i) {
      ASSERT_TRUE(w.Append(i + 1, batches[i]).ok());
      ASSERT_TRUE(reference->ApplyBatch(EventBatch(batches[i])).ok());
    }
  }

  // A fresh engine (epoch 0): replay applies everything.
  auto fresh = MicroEngine();
  auto stats = runtime::ReplayLog(path, fresh.get());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().replayed, batches.size());
  EXPECT_EQ(stats.value().skipped, 0u);
  EXPECT_EQ(fresh->epoch(), batches.size());
  auto want = reference->View("q");
  auto got = fresh->View("q");
  ASSERT_TRUE(want.ok() && got.ok());
  ExpectIdenticalView(want.value(), got.value(), "full replay");

  // Replaying again over the same engine: every record is a duplicate.
  auto stats2 = runtime::ReplayLog(path, fresh.get());
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(stats2.value().replayed, 0u);
  EXPECT_EQ(stats2.value().skipped, batches.size());
  auto got2 = fresh->View("q");
  ASSERT_TRUE(got2.ok());
  ExpectIdenticalView(want.value(), got2.value(), "idempotent replay");

  // An engine already ahead of part of the log: prefix skipped, rest
  // applied.
  auto partial = MicroEngine();
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(partial->ApplyBatch(EventBatch(batches[i])).ok());
  }
  auto stats3 = runtime::ReplayLog(path, partial.get());
  ASSERT_TRUE(stats3.ok());
  EXPECT_EQ(stats3.value().skipped, 2u);
  EXPECT_EQ(stats3.value().replayed, batches.size() - 2);

  // A gap (engine behind the log's first record) is an error, not a silent
  // hole in the stream.
  {
    BatchLogWriter w;
    ASSERT_TRUE(w.Open(path, /*truncate_to=*/0).ok());
    ASSERT_TRUE(w.Append(5, batches[4]).ok());
  }
  auto behind = MicroEngine();
  auto gap = runtime::ReplayLog(path, behind.get());
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.status().code(), StatusCode::kInternal);
  EXPECT_NE(gap.status().message().find("gap"), std::string::npos);

  // Missing log: clean no-op recovery.
  std::remove(path.c_str());
  auto none = runtime::ReplayLog(path, behind.get());
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value().replayed, 0u);
}

// ---------------------------------------------------------------------------
// Randomized crash-recovery property: all four engine classes, all 13 bench
// queries, kill/restore at random batch boundaries with log corruption.
// ---------------------------------------------------------------------------

void RunCrashRecovery(const ScriptCase& sc, const std::string& kind,
                      uint64_t seed, bool corrupt_tail) {
  EngineInstance reference = MakeEngine(kind, sc);
  if (reference.engine == nullptr) return;  // ivm1 legitimately excluded
  EngineInstance victim = MakeEngine(kind, sc);
  ASSERT_NE(victim.engine, nullptr);

  const std::string label =
      sc.name + "/" + kind + (corrupt_tail ? "/torn" : "/clean");
  const std::string ckpt = TempPath(sc.name + "_" + kind + ".ckpt");
  const std::string log = TempPath(sc.name + "_" + kind + ".log");
  std::remove(ckpt.c_str());
  std::remove(log.c_str());

  const size_t kBatches = 9;
  std::vector<EventBatch> batches = MakeStream(sc.catalog, seed, kBatches);

  Rng rng(seed ^ 0xc0ffee);
  const size_t crash_at = 1 + rng.Uniform(kBatches - 1);  // in [1, kBatches)
  const size_t ckpt_at = rng.Uniform(crash_at + 1);       // in [0, crash_at]

  // Uninterrupted reference: apply everything, remembering the view after
  // every batch boundary.
  std::vector<exec::QueryResult> reference_views;
  for (size_t i = 0; i < kBatches; ++i) {
    ASSERT_TRUE(reference.engine->ApplyBatch(EventBatch(batches[i])).ok())
        << label;
    auto v = reference.engine->View(reference.view);
    ASSERT_TRUE(v.ok()) << label << ": " << v.status().ToString();
    reference_views.push_back(std::move(v).value());
  }

  // Victim: write-ahead log + apply until the crash point, checkpointing
  // along the way.
  {
    BatchLogWriter w;
    ASSERT_TRUE(w.Open(log).ok());
    w.set_sync_every(2);
    if (ckpt_at == 0) {
      ASSERT_TRUE(runtime::WriteCheckpoint(ckpt, *victim.engine).ok())
          << label;
    }
    for (size_t i = 0; i < crash_at; ++i) {
      ASSERT_TRUE(w.Append(i + 1, batches[i]).ok()) << label;
      ASSERT_TRUE(victim.engine->ApplyBatch(EventBatch(batches[i])).ok())
          << label;
      if (i + 1 == ckpt_at) {
        ASSERT_TRUE(runtime::WriteCheckpoint(ckpt, *victim.engine).ok())
            << label;
      }
    }
    ASSERT_TRUE(w.Sync().ok());
  }
  // Crash: the victim engine object dies here; optionally the failing disk
  // tears or bit-flips the last log record.
  victim.engine.reset();
  victim.program.reset();
  if (corrupt_tail) {
    std::string bytes = ReadBytes(log);
    ASSERT_FALSE(bytes.empty()) << label;
    if (rng.Chance(0.5)) {
      WriteBytes(log, bytes.substr(0, bytes.size() - 1 - rng.Uniform(4)));
    } else {
      const size_t at = bytes.size() - 1 - rng.Uniform(4);
      bytes[at] = static_cast<char>(bytes[at] ^ (1u << rng.Uniform(8)));
      WriteBytes(log, bytes);
    }
  }

  // Recover: fresh engine, checkpoint, exactly-once log replay.
  EngineInstance recovered = MakeEngine(kind, sc);
  ASSERT_NE(recovered.engine, nullptr);
  ASSERT_TRUE(runtime::RestoreCheckpoint(ckpt, recovered.engine.get()).ok())
      << label;
  EXPECT_EQ(recovered.engine->epoch(), ckpt_at) << label;
  auto stats = runtime::ReplayLog(log, recovered.engine.get());
  ASSERT_TRUE(stats.ok()) << label << ": " << stats.status().ToString();

  // Corruption costs at most the torn tail record; everything durable must
  // be back.
  const size_t recovered_to = static_cast<size_t>(recovered.engine->epoch());
  if (corrupt_tail) {
    EXPECT_TRUE(stats.value().tail_truncated) << label;
    ASSERT_EQ(recovered_to, std::max(ckpt_at, crash_at - 1)) << label;
  } else {
    EXPECT_EQ(stats.value().skipped, ckpt_at) << label;
    ASSERT_EQ(recovered_to, crash_at) << label;
  }

  // The recovered view must match the uninterrupted reference at the same
  // boundary: byte-identical for maintained views, ulp-tolerant for the
  // recomputing baseline (see ExpectViewMatch).
  const bool exact = kind != "reeval";
  if (recovered_to > 0) {
    auto got = recovered.engine->View(recovered.view);
    ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
    ExpectViewMatch(reference_views[recovered_to - 1], got.value(),
                    label + ": view after recovery", exact);
  }

  // The upstream resends from the recovery epoch (exactly-once cursor);
  // finish the stream and require the final views identical.
  for (size_t i = recovered_to; i < kBatches; ++i) {
    ASSERT_TRUE(recovered.engine->ApplyBatch(EventBatch(batches[i])).ok())
        << label;
  }
  auto final_got = recovered.engine->View(recovered.view);
  ASSERT_TRUE(final_got.ok()) << label;
  ExpectViewMatch(reference_views.back(), final_got.value(),
                  label + ": final view", exact);

  // Recovery must not inflate resident state: within slack of the
  // uninterrupted engine (allocation history differs, so exact byte
  // equality is not required).
  EXPECT_LE(recovered.engine->StateBytes(),
            reference.engine->StateBytes() * 3 / 2 + 4096)
      << label;

  std::remove(ckpt.c_str());
  std::remove(log.c_str());
}

class CrashRecovery : public ::testing::TestWithParam<const char*> {};

TEST_P(CrashRecovery, KillAndRecoverAtRandomBatchBoundaries) {
  ScriptCase sc = LoadScript(GetParam());
  const char* kinds[] = {"toaster-i", "reeval", "ivm1", "toaster-c"};
  for (const char* kind : kinds) {
    for (uint64_t trial = 0; trial < 2; ++trial) {
      RunCrashRecovery(sc, kind, 0xabc123 + trial * 77 + sc.name.size(),
                       /*corrupt_tail=*/false);
      RunCrashRecovery(sc, kind, 0xdef456 + trial * 31 + sc.name.size(),
                       /*corrupt_tail=*/true);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchQueries, CrashRecovery,
                         ::testing::Values("vwap", "sobi_bids", "mm",
                                           "best_bid", "q41", "revenue",
                                           "q3s", "q6s", "q12s", "q13s",
                                           "selzero", "selhalf", "selall"));

}  // namespace
}  // namespace dbtoaster
