// Fault-injection soak harness for the durability layer.
//
// Each iteration drives one bench query on one engine class through a
// seeded mixed insert/delete stream with write-ahead batch logging and
// checkpoints at random batch boundaries, then kills the engine at a random
// boundary. With --faults the "disk" also misbehaves: the log tail is torn
// mid-record, a bit is flipped anywhere in the file, or a checkpoint write
// is killed between its tmp-file fsync and the rename (the previous
// checkpoint must survive). Recovery = restore the latest checkpoint (if
// any), replay the
// log's valid prefix exactly-once, truncate the log to that prefix, resend
// the stream from the recovered epoch, and require the final views
// byte-identical to an uninterrupted reference engine of the same class.
//
// Exit status is non-zero on any mismatch, so CI can run this directly.
//
//   soak_recovery [--iters=N] [--seed=S] [--faults=0|1] [--dir=PATH]
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/gen/mm.hpp"
#include "bench/gen/q3s.hpp"
#include "bench/gen/revenue.hpp"
#include "bench/gen/vwap.hpp"
#include "src/common/rng.h"
#include "src/compiler/compile.h"
#include "src/runtime/batch_log.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/engine.h"
#include "src/runtime/stream_engine.h"
#include "src/sql/parser.h"

namespace dbtoaster {
namespace {

using runtime::BatchLogWriter;
using runtime::EventBatch;
using runtime::StreamEngine;

struct ScriptCase {
  std::string name;
  Catalog catalog;
  std::string sql;
};

bool LoadScript(const std::string& name, ScriptCase* out) {
  out->name = name;
  const std::string path = std::string(DBT_QUERY_DIR) + "/" + name + ".sql";
  std::ifstream f(path);
  if (!f.good()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  auto script = sql::ParseScript(ss.str());
  if (!script.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 script.status().ToString().c_str());
    return false;
  }
  for (const sql::CreateTableStmt& t : script.value().tables) {
    if (!out->catalog.AddRelation(t).ok()) return false;
  }
  if (script.value().queries.size() != 1) return false;
  out->sql = script.value().queries[0].select->ToString();
  return true;
}

std::unique_ptr<dbt::StreamProgram> MakeGenerated(const std::string& name) {
  if (name == "vwap") return std::make_unique<dbtoaster_gen::vwap_Program>();
  if (name == "mm") return std::make_unique<dbtoaster_gen::mm_Program>();
  if (name == "q3s") return std::make_unique<dbtoaster_gen::q3s_Program>();
  if (name == "revenue") {
    return std::make_unique<dbtoaster_gen::revenue_Program>();
  }
  return nullptr;
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
      static const char* kPool[] = {"BUILDING", "AUTOMOBILE", "MAIL", "SHIP",
                                    "RAIL",     "1-URGENT",   "2-HIGH"};
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

struct EngineInstance {
  std::unique_ptr<dbt::StreamProgram> program;
  std::unique_ptr<StreamEngine> engine;
  std::string view;
};

bool MakeEngine(const std::string& kind, const ScriptCase& sc,
                EngineInstance* out) {
  if (kind == "toaster-i") {
    auto program = compiler::CompileQuery(sc.catalog, "q", sc.sql);
    if (!program.ok()) {
      std::fprintf(stderr, "compile %s: %s\n", sc.name.c_str(),
                   program.status().ToString().c_str());
      return false;
    }
    out->engine = std::make_unique<runtime::Engine>(std::move(program).value());
    out->view = "q";
    return true;
  }
  out->program = MakeGenerated(sc.name);
  if (out->program == nullptr) return false;
  out->engine =
      std::make_unique<runtime::CompiledProgramEngine>(out->program.get());
  out->view = "q0";
  return true;
}

bool ViewsIdentical(const exec::QueryResult& a, const exec::QueryResult& b) {
  auto as = a.SortedRows();
  auto bs = b.SortedRows();
  if (as.size() != bs.size()) return false;
  for (size_t i = 0; i < as.size(); ++i) {
    if (!(as[i].first == bs[i].first) || as[i].second != bs[i].second) {
      return false;
    }
  }
  return true;
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct SoakStats {
  size_t iterations = 0;
  size_t crashes = 0;
  size_t checkpoints = 0;
  size_t ckpt_crashes = 0;
  size_t torn_tails = 0;
  size_t bit_flips = 0;
  size_t replayed = 0;
  size_t resent = 0;
  size_t failures = 0;
};

/// One kill/recover cycle. Returns false on a view mismatch or an
/// unexpected error (fault-free operations failing).
bool RunIteration(const ScriptCase& sc, const std::string& kind,
                  uint64_t seed, bool faults, const std::string& dir,
                  SoakStats* stats) {
  const std::string label = sc.name + "/" + kind;
  const std::string ckpt = dir + "/soak_" + sc.name + "_" + kind + ".ckpt";
  const std::string log = dir + "/soak_" + sc.name + "_" + kind + ".log";
  std::remove(ckpt.c_str());
  std::remove(log.c_str());

  const size_t kBatches = 12;
  std::vector<EventBatch> batches = MakeStream(sc.catalog, seed, kBatches);
  Rng rng(seed ^ 0x50a6);

  EngineInstance reference;
  EngineInstance victim;
  if (!MakeEngine(kind, sc, &reference) || !MakeEngine(kind, sc, &victim)) {
    return false;
  }
  for (size_t i = 0; i < kBatches; ++i) {
    Status st = reference.engine->ApplyBatch(EventBatch(batches[i]));
    if (!st.ok()) {
      std::fprintf(stderr, "[%s] reference apply: %s\n", label.c_str(),
                   st.ToString().c_str());
      return false;
    }
  }

  const size_t crash_at = 1 + rng.Uniform(kBatches - 1);
  bool have_ckpt = false;
  {
    BatchLogWriter w;
    if (!w.Open(log).ok()) return false;
    w.set_sync_every(1 + rng.Uniform(4));
    for (size_t i = 0; i < crash_at; ++i) {
      if (!w.Append(i + 1, batches[i]).ok()) return false;
      if (!victim.engine->ApplyBatch(EventBatch(batches[i])).ok()) return false;
      if (rng.Chance(0.3)) {
        // With --faults, sometimes kill the checkpoint between the tmp-file
        // fsync and the rename: the write fails, a .tmp is left behind, and
        // the previously renamed checkpoint (if any) must keep carrying the
        // recovery — the rest of the iteration proves it survives.
        if (faults && rng.Chance(0.25)) {
          runtime::SetCheckpointCrashForTesting(
              runtime::CheckpointCrashPoint::kAfterTmpFsync);
          Status st = runtime::WriteCheckpoint(ckpt, *victim.engine);
          if (st.ok()) {
            std::fprintf(stderr,
                         "[%s] injected checkpoint crash did not fire\n",
                         label.c_str());
            return false;
          }
          ++stats->ckpt_crashes;
        } else {
          Status st = runtime::WriteCheckpoint(ckpt, *victim.engine);
          if (!st.ok()) {
            std::fprintf(stderr, "[%s] checkpoint: %s\n", label.c_str(),
                         st.ToString().c_str());
            return false;
          }
          have_ckpt = true;
          ++stats->checkpoints;
        }
      }
    }
    if (!w.Sync().ok()) return false;
  }
  victim.engine.reset();
  victim.program.reset();
  ++stats->crashes;

  // Fault injection: tear the tail mid-record or flip a bit anywhere in
  // the log (a mid-file flip loses the suffix; the resend path must cover
  // it).
  if (faults) {
    std::string bytes = ReadFile(log);
    if (!bytes.empty()) {
      if (rng.Chance(0.5)) {
        const size_t cut = 1 + rng.Uniform(std::min<size_t>(16, bytes.size()));
        WriteFile(log, bytes.substr(0, bytes.size() - cut));
        ++stats->torn_tails;
      } else {
        const size_t at = rng.Uniform(bytes.size());
        bytes[at] = static_cast<char>(bytes[at] ^ (1u << rng.Uniform(8)));
        WriteFile(log, bytes);
        ++stats->bit_flips;
      }
    }
  }

  // Recover.
  EngineInstance recovered;
  if (!MakeEngine(kind, sc, &recovered)) return false;
  if (have_ckpt) {
    Status st = runtime::RestoreCheckpoint(ckpt, recovered.engine.get());
    if (!st.ok()) {
      std::fprintf(stderr, "[%s] restore: %s\n", label.c_str(),
                   st.ToString().c_str());
      ++stats->failures;
      return false;
    }
  }
  const uint64_t ckpt_epoch = recovered.engine->epoch();
  auto replay = runtime::ReplayLog(log, recovered.engine.get());
  if (!replay.ok()) {
    // A bit flip can land inside a record at or below the checkpoint epoch
    // in a way the CRC catches (scan just stops early) — replay itself must
    // still never fail.
    std::fprintf(stderr, "[%s] replay: %s\n", label.c_str(),
                 replay.status().ToString().c_str());
    ++stats->failures;
    return false;
  }
  stats->replayed += replay.value().replayed;

  // The recovered log prefix is the new WAL head: truncate the torn tail
  // off so future appends never follow garbage (exercised, then discarded).
  {
    BatchLogWriter w;
    if (!w.Open(log, static_cast<int64_t>(replay.value().valid_bytes)).ok()) {
      return false;
    }
  }

  // The upstream resends everything after the recovery epoch.
  const size_t recovered_to = static_cast<size_t>(recovered.engine->epoch());
  if (recovered_to < ckpt_epoch || recovered_to > crash_at) {
    std::fprintf(stderr, "[%s] recovered to epoch %zu outside [%zu, %zu]\n",
                 label.c_str(), recovered_to,
                 static_cast<size_t>(ckpt_epoch), crash_at);
    ++stats->failures;
    return false;
  }
  for (size_t i = recovered_to; i < kBatches; ++i) {
    if (!recovered.engine->ApplyBatch(EventBatch(batches[i])).ok()) {
      ++stats->failures;
      return false;
    }
    ++stats->resent;
  }

  auto want = reference.engine->View(reference.view);
  auto got = recovered.engine->View(recovered.view);
  if (!want.ok() || !got.ok()) {
    ++stats->failures;
    return false;
  }
  if (!ViewsIdentical(want.value(), got.value())) {
    std::fprintf(stderr,
                 "[%s] VIEW MISMATCH after recovery (seed %llu)\n"
                 "reference:\n%s\nrecovered:\n%s\n",
                 label.c_str(), static_cast<unsigned long long>(seed),
                 want.value().ToString().c_str(),
                 got.value().ToString().c_str());
    ++stats->failures;
    return false;
  }

  std::remove(ckpt.c_str());
  std::remove((ckpt + ".tmp").c_str());
  std::remove(log.c_str());
  return true;
}

int Run(int argc, char** argv) {
  size_t iters = 25;
  uint64_t seed = 1;
  bool faults = true;
  std::string dir = "/tmp";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--iters=", 0) == 0) {
      iters = static_cast<size_t>(std::strtoull(arg.c_str() + 8, nullptr, 10));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--faults=", 0) == 0) {
      faults = arg.c_str()[9] != '0';
    } else if (arg.rfind("--dir=", 0) == 0) {
      dir = arg.substr(6);
    } else {
      std::fprintf(stderr,
                   "usage: soak_recovery [--iters=N] [--seed=S] "
                   "[--faults=0|1] [--dir=PATH]\n");
      return 2;
    }
  }

  const char* kQueries[] = {"vwap", "mm", "q3s", "revenue"};
  const char* kKinds[] = {"toaster-i", "toaster-c"};
  std::vector<ScriptCase> cases(std::size(kQueries));
  for (size_t i = 0; i < std::size(kQueries); ++i) {
    if (!LoadScript(kQueries[i], &cases[i])) return 2;
  }

  SoakStats stats;
  bool ok = true;
  for (size_t it = 0; it < iters; ++it) {
    const ScriptCase& sc = cases[it % cases.size()];
    const std::string kind = kKinds[(it / cases.size()) % std::size(kKinds)];
    ++stats.iterations;
    if (!RunIteration(sc, kind, seed + it * 7919, faults, dir, &stats)) {
      ok = false;
    }
  }

  std::printf(
      "soak_recovery: %zu iterations, %zu crashes, %zu checkpoints "
      "(%zu ckpt crashes), %zu torn tails, %zu bit flips, %zu batches "
      "replayed, %zu resent, %zu failures -> %s\n",
      stats.iterations, stats.crashes, stats.checkpoints, stats.ckpt_crashes,
      stats.torn_tails, stats.bit_flips, stats.replayed, stats.resent,
      stats.failures, ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dbtoaster

int main(int argc, char** argv) { return dbtoaster::Run(argc, argv); }
