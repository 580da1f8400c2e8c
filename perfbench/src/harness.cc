#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/compiler/compile.h"
#include "src/runtime/batch_log.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/engine.h"
#include "src/runtime/stream_engine.h"
#include "src/sql/parser.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace rt = dbtoaster::runtime;
using dbtoaster::Rng;
using dbtoaster::RowEq;
using dbtoaster::RowHash;
using dbtoaster::Status;
using dbtoaster::exec::QueryResult;

using RowCounts = std::unordered_map<Row, int64_t, RowHash, RowEq>;

// ---- accounting ------------------------------------------------------------

/// Operations attempted and failed: batches, reads, output checks and
/// recoveries. Safe to call from the reader threads.
class Tally {
 public:
  /// One operation; `what` and `st` only describe a failure.
  void Op(bool ok, std::string_view what, const Status& st = Status::OK()) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (ok) return;
    if (failed_.fetch_add(1, std::memory_order_relaxed) < 10) {
      std::lock_guard<std::mutex> lk(mu_);
      std::fprintf(stderr, "perfbench: failed: %.*s %s\n",
                   static_cast<int>(what.size()), what.data(),
                   st.ok() ? "" : st.ToString().c_str());
    }
  }
  void Op(const Status& st, std::string_view what) { Op(st.ok(), what, st); }
  /// An output check: a failure also marks the run's outputs incorrect.
  void Check(bool ok, const std::string& what) {
    Op(ok, what);
    if (!ok) correct_.store(false);
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  bool correct() const { return correct_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<bool> correct_{true};
  std::mutex mu_;  // serializes the failure messages
};

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::string ReadFile(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of `v` (0 < p <= 1).
double Percentile(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return static_cast<double>(v[rank - 1]);
}

/// The CPUs this process may run on, in increasing order.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

/// Restricts the calling thread (and the threads it starts later) to `cpus`.
void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Appends the p99, in microseconds, of each run of `window` consecutive
/// samples of `v` (0: all of `v` as one window) to `out`. A short remainder
/// joins the last window.
void WindowP99Us(const std::vector<int64_t>& v, size_t window,
                 std::vector<double>* out) {
  if (window == 0 || window > v.size()) window = v.size();
  for (size_t i = 0; window > 0 && i + window <= v.size(); i += window) {
    const size_t end = i + 2 * window > v.size() ? v.size() : i + window;
    out->push_back(Percentile(std::vector<int64_t>(v.begin() + static_cast<long>(i),
                                                   v.begin() + static_cast<long>(end)),
                              0.99) * 1e-3);
  }
}

double FileMib(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<double>(n) / (1024.0 * 1024.0);
}

// ---- view comparison -------------------------------------------------------

std::string RenderValue(const Value& v) {
  char buf[64];
  if (v.is_int()) {
    std::snprintf(buf, sizeof(buf), "i%lld", static_cast<long long>(v.AsInt()));
    return buf;
  }
  if (v.is_double()) {
    std::snprintf(buf, sizeof(buf), "d%a", v.AsDouble());
    return buf;
  }
  return "s" + v.AsString();
}

/// Byte-exact text of a view: type-tagged values (doubles in hex), each
/// row's multiplicity, rows sorted.
std::string Canonical(const std::vector<std::pair<Row, int64_t>>& rows) {
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const auto& [row, mult] : rows) {
    std::string line;
    for (const Value& v : row) line += RenderValue(v) + "|";
    lines.push_back(line + "#" + std::to_string(mult));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

std::string Canonical(const RowCounts& rows) {
  return Canonical(std::vector<std::pair<Row, int64_t>>(rows.begin(), rows.end()));
}

bool LessRow(const Row& a, const Row& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

bool Close(const Value& a, const Value& b, double rel_tol) {
  if (rel_tol == 0 || !a.is_numeric() || !b.is_numeric()) return a == b;
  const double x = a.AsDouble(), y = b.AsDouble();
  return std::fabs(x - y) <= rel_tol * std::max(std::fabs(x), std::fabs(y));
}

/// Compares a view's rows with `want`: the same groups, each once, and
/// aggregates equal (or within `rel_tol` relative error when it is non-zero).
bool SameRows(const QueryResult& got_result, std::vector<Row> want,
              double rel_tol, std::string* why) {
  std::vector<Row> got;
  for (const auto& [row, mult] : got_result.rows) {
    if (mult != 1) {
      *why = "row " + dbtoaster::RowToString(row) + " has multiplicity " +
             std::to_string(mult);
      return false;
    }
    got.push_back(row);
  }
  std::sort(got.begin(), got.end(), LessRow);
  std::sort(want.begin(), want.end(), LessRow);
  if (got.size() != want.size()) {
    *why = std::to_string(got.size()) + " rows, expected " +
           std::to_string(want.size());
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    bool same = got[i].size() == want[i].size();
    for (size_t c = 0; same && c < got[i].size(); ++c) {
      same = c + 1 < got[i].size() ? got[i][c] == want[i][c]
                                   : Close(got[i][c], want[i][c], rel_tol);
    }
    if (!same) {
      *why = "row " + dbtoaster::RowToString(got[i]) + ", expected " +
             dbtoaster::RowToString(want[i]);
      return false;
    }
  }
  return true;
}

// ---- one standing query on the compiled engine -----------------------------

struct Slot {
  const QuerySpec* spec = nullptr;
  std::vector<std::string> relations;  ///< declared by the query's script
  dbtoaster::compiler::Program program;  ///< for toaster-i
  std::unique_ptr<dbt::StreamProgram> gen;
  std::unique_ptr<rt::CompiledProgramEngine> engine;
  std::vector<std::string> views;
  rt::BatchLogWriter log;
  std::string log_path;
  std::string ckpt_path;
  size_t unsynced = 0;  ///< events appended since the last sync
  uint64_t events_logged = 0;
  uint64_t events_at_ckpt = 0;
  rt::ViewSnapshot prefix;  ///< toaster-c views at the end of the interp prefix
  std::string live;         ///< Canonical() of the live views after the round

  bool Declares(const std::string& relation) const {
    return std::find(relations.begin(), relations.end(), relation) !=
           relations.end();
  }
};

using Slots = std::vector<std::unique_ptr<Slot>>;

/// The events of [first, last) on the relations `s` declares: an engine
/// rejects a whole batch that names a relation it does not know.
rt::EventBatch BuildBatch(const Event* first, const Event* last, const Slot& s) {
  rt::EventBatch out;
  for (const Event* e = first; e != last; ++e) {
    if (s.Declares(e->relation)) out.Add(e->kind, e->relation, e->tuple);
  }
  return out;
}

/// One batch per query from events [first, last).
std::vector<rt::EventBatch> BuildBatches(const Event* first, const Event* last,
                                         const Slots& slots) {
  Span span("runtime.batch_build", static_cast<uint64_t>(last - first));
  std::vector<rt::EventBatch> out;
  out.reserve(slots.size());
  for (const auto& s : slots) out.push_back(BuildBatch(first, last, *s));
  return out;
}

/// Write-ahead logs one batch, group-commits once `sync_events` events have
/// been appended since the last sync (when non-zero) and applies it. One
/// operation in the tally.
void Ingest(Slot* s, rt::EventBatch&& batch, size_t sync_events,
            const char* apply_span, Tally* tally) {
  if (batch.empty()) return;
  const size_t n = batch.size();
  Status st;
  {
    Span span("runtime.log_append", n);
    st = s->log.Append(s->engine->epoch() + 1, batch);
  }
  s->unsynced += n;
  if (st.ok() && sync_events != 0 && s->unsynced >= sync_events) {
    Span span("runtime.log_sync");
    st = s->log.Sync();
    s->unsynced = 0;
  }
  if (st.ok()) {
    Span span(apply_span, n);
    st = s->engine->ApplyBatch(std::move(batch));
  }
  s->events_logged += n;
  tally->Op(st, s->spec->name);
}

Status SetUpQuery(const WorkloadSpec& w, const QuerySpec& q,
                  const std::string& sql_text, const Stream& stream,
                  const std::string& dir, Tally* tally,
                  std::unique_ptr<Slot>* out) {
  auto s = std::make_unique<Slot>();
  s->spec = &q;
  dbtoaster::Catalog catalog;
  std::string sql;
  {
    Span span("sql.parse");
    auto script = dbtoaster::sql::ParseScript(sql_text);
    if (!script.ok()) return script.status();
    for (const auto& t : script.value().tables) {
      DBT_RETURN_IF_ERROR(catalog.AddRelation(t));
    }
    if (script.value().queries.size() != 1) {
      return Status::InvalidArgument(q.name + ": expected one query");
    }
    sql = script.value().queries[0].select->ToString();
  }
  for (const auto& schema : catalog.relations()) {
    s->relations.push_back(schema.name());
  }
  {
    Span span("compiler.compile");
    auto program = dbtoaster::compiler::CompileQuery(catalog, "q", sql);
    if (!program.ok()) return program.status();
    s->program = std::move(program).value();
  }
  {
    Span span("runtime.construct");
    s->gen = q.make_program();
    s->engine = std::make_unique<rt::CompiledProgramEngine>(s->gen.get());
    // The subscriber is paced, not spinning; never let a descheduled reader
    // thread turn into a lagged (dropped) delta stream.
    s->engine->set_max_queued_deltas(size_t{1} << 22);
    s->views = s->engine->ViewNames();
  }
  s->log_path = dir + "/" + q.name + ".log";
  s->ckpt_path = dir + "/" + q.name + ".ckpt";
  {
    Span span("runtime.log_open");
    DBT_RETURN_IF_ERROR(s->log.Open(s->log_path, 0));
    s->log.set_sync_every(SIZE_MAX);  // group commit is explicit, in Ingest
  }
  if (!stream.initial.empty()) {
    Span span("runtime.initial_load", stream.initial.size());
    for (size_t i = 0; i < stream.initial.size(); i += w.initial_batch) {
      const size_t end = std::min(stream.initial.size(), i + w.initial_batch);
      Ingest(s.get(), BuildBatch(&stream.initial[i], stream.initial.data() + end, *s),
             w.sync_events, "runtime.initial_apply", tally);
    }
  }
  {
    Span span("runtime.enable_serving");
    DBT_RETURN_IF_ERROR(s->engine->EnableServing());
  }
  *out = std::move(s);
  return Status::OK();
}

// ---- paced readers and the subscriber --------------------------------------

/// Consecutive reads of one reader per read_p99_us window: 25 to 100 ms of
/// reads at the workloads' pacing, short enough that most windows miss the
/// host's stalls, as the open loop's p99 windows do (README.md).
constexpr size_t kReadWindow = 100;

struct ReaderShared {
  const Slots* slots = nullptr;
  size_t readers = 1;
  std::vector<int> cpus;  ///< reader r runs on cpus[r] (empty: unpinned)
  int64_t interval_ns = 0;
  Tally* tally = nullptr;
  std::atomic<bool> done{false};
  std::atomic<bool> sampling{false};  ///< the open-loop phase is running
};

struct ReaderState {
  std::vector<int64_t> samples;  ///< read call latencies while sampling, ns
  uint64_t found = 0;            ///< lookups that hit; keeps them from being elided
  // Reader 0 also drains the subscriber and replays its deltas.
  rt::ViewSubscriber sub;
  std::map<std::string, RowCounts> replay;
  uint64_t last_epoch = 0;
  uint64_t epochs = 0;
  uint64_t delta_rows = 0;
  bool gap = false;
};

/// Finds one group, picked at random among the view's rows, by a scan for
/// its key (every served view ends with one aggregate column).
uint64_t Lookup(const QueryResult& r, Rng* rng) {
  if (r.rows.empty()) return 0;
  const Row& key = r.rows[rng->Uniform(r.rows.size())].first;
  const size_t k = key.size() - 1;
  for (const auto& entry : r.rows) {
    if (std::equal(key.begin(), key.begin() + static_cast<long>(k),
                   entry.first.begin())) {
      return 1;
    }
  }
  return 0;
}

void DrainSubscriber(ReaderState* st) {
  if (!st->sub.valid()) return;
  for (const auto& d : st->sub.Poll()) {
    if (d->epoch != st->last_epoch + 1) st->gap = true;
    st->last_epoch = d->epoch;
    ++st->epochs;
    for (const rt::ViewDelta& v : d->views) {
      st->delta_rows += v.added.size() + v.removed.size();
      rt::ApplyViewDelta(v, &st->replay[v.view]);
    }
  }
  if (st->sub.lagged()) st->gap = true;
}

void ReaderLoop(ReaderShared* sh, ReaderState* st, uint64_t seed, size_t r) {
  if (r < sh->cpus.size()) PinTo({sh->cpus[r]});
  Rng rng(seed);
  const Slots& slots = *sh->slots;
  std::vector<uint64_t> last(slots.size(), 0);
  // Readers start evenly spread over one interval, so they do not contend
  // for the snapshot lock with each other.
  int64_t next = NowNs() + sh->interval_ns * static_cast<int64_t>(r) /
                               static_cast<int64_t>(sh->readers);
  while (!sh->done.load(std::memory_order_acquire)) {
    const bool sampling = sh->sampling.load(std::memory_order_acquire);
    bool ok = true;
    // The handles outlive the timed call: dropping the last reference to a
    // superseded snapshot frees its rows, which is the publisher's garbage,
    // not the cost of a read.
    std::vector<rt::ViewSnapshot> held(slots.size());
    const int64_t t0 = NowNs();
    {
      Span span("runtime.snapshot_read");
      for (size_t i = 0; i < slots.size(); ++i) {
        held[i] = slots[i]->engine->Snapshot();
        const rt::ViewSnapshot& snap = held[i];
        if (!snap.valid() || snap.epoch() < last[i]) ok = false;
        last[i] = snap.epoch();
        for (const std::string& v : slots[i]->views) {
          const QueryResult* r = snap.Find(v);
          if (r == nullptr) {
            ok = false;
          } else {
            st->found += Lookup(*r, &rng);
          }
        }
      }
    }
    const int64_t t1 = NowNs();
    if (sampling) st->samples.push_back(t1 - t0);
    sh->tally->Op(ok, "reader saw an invalid or older snapshot");
    DrainSubscriber(st);
    next += sh->interval_ns;
    const int64_t now = NowNs();
    if (next <= now) {
      next = now;  // a late reader does not burst to catch up
    } else {
      std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
    }
  }
  DrainSubscriber(st);  // the writer has published its last epoch
}

class Readers {
 public:
  Readers(const Slots* slots, const WorkloadSpec& w, const std::vector<int>& cpus,
          uint64_t seed, Tally* tally)
      : states_(w.readers) {
    shared_.slots = slots;
    shared_.readers = w.readers;
    shared_.cpus = cpus;
    shared_.interval_ns = w.read_interval_us * 1000;
    shared_.tally = tally;
    auto sub = (*slots)[0]->engine->Subscribe();
    if (sub.ok()) {
      ReaderState& s0 = states_[0];
      s0.sub = std::move(sub).value();
      s0.last_epoch = s0.sub.base().epoch();
      for (const std::string& v : s0.sub.base().view_names()) {
        for (const auto& [row, mult] : s0.sub.base().Find(v)->rows) {
          s0.replay[v][row] += mult;
        }
      }
    }
    tally->Op(sub.status(), "subscribe");
    for (size_t r = 0; r < states_.size(); ++r) {
      threads_.emplace_back(ReaderLoop, &shared_, &states_[r], seed * 7919 + r, r);
    }
  }
  ~Readers() { Stop(); }
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;

  void set_sampling(bool on) { shared_.sampling.store(on, std::memory_order_release); }
  void Stop() {
    shared_.done.store(true, std::memory_order_release);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
  std::vector<ReaderState>& states() { return states_; }

 private:
  ReaderShared shared_;
  std::vector<ReaderState> states_;
  std::vector<std::thread> threads_;  // declared last: joined before the rest goes
};

// ---- one round ---------------------------------------------------------------

/// One round's measurements. A run reports the median over its rounds, so
/// a round hit by a stall on the shared host moves no metric by itself.
struct RoundOut {
  std::vector<double> setup_s;
  double events_per_s = 0;
  double fresh_p50_us = 0;
  std::vector<double> fresh_p99_us;  ///< one per tail window
  std::vector<double> read_p99_us;   ///< one per read window of each reader
  double interp_events_per_s = 0;
  double recovery_s = 0;
  double mem_peak_mib = 0;
  size_t fresh_samples = 0;
  size_t read_samples = 0;
  std::map<std::string, double> gauges;  ///< per-layer counts and sizes
};

size_t PrefixBatches(const WorkloadSpec& w, const Stream& s) {
  const size_t total = (s.closed.size() + w.closed_batch - 1) / w.closed_batch;
  const size_t want = (w.interp_events + w.closed_batch - 1) / w.closed_batch;
  return std::max<size_t>(1, std::min(total, want));
}

/// Makes every log durable up to its last append (the end of a phase).
void SyncLogs(Slots& slots, Tally* tally) {
  for (auto& sl : slots) {
    Span span("runtime.log_sync");
    tally->Op(sl->log.Sync(), "log sync");
    sl->unsynced = 0;
  }
}

void ClosedLoop(const WorkloadSpec& w, const Stream& s, Slots& slots,
                Tally* tally, RoundOut* out) {
  Span phase("phase.closed", s.closed.size());
  const size_t batches = (s.closed.size() + w.closed_batch - 1) / w.closed_batch;
  const size_t ckpt_at = std::max<size_t>(1, batches / 2);
  const size_t prefix_end = PrefixBatches(w, s);
  const int64_t t0 = NowNs();
  for (size_t b = 0; b < batches; ++b) {
    const size_t first = b * w.closed_batch;
    const size_t last = std::min(s.closed.size(), first + w.closed_batch);
    auto built = BuildBatches(&s.closed[first], s.closed.data() + last, slots);
    for (size_t i = 0; i < slots.size(); ++i) {
      Ingest(slots[i].get(), std::move(built[i]), w.sync_events,
             "runtime.apply_serving", tally);
    }
    if (b + 1 == ckpt_at) {
      for (auto& sl : slots) {
        Span span("runtime.checkpoint_write");
        Status st = rt::WriteCheckpoint(sl->ckpt_path, *sl->engine);
        sl->events_at_ckpt = sl->events_logged;
        tally->Op(st, "checkpoint");
      }
    }
    if (b + 1 == prefix_end) {
      for (auto& sl : slots) sl->prefix = sl->engine->Snapshot();
    }
  }
  SyncLogs(slots, tally);
  const int64_t t1 = NowNs();
  out->events_per_s = static_cast<double>(s.closed.size()) / Seconds(t1 - t0);
}

void OpenLoop(const WorkloadSpec& w, const Stream& s, Slots& slots,
              Tally* tally, RoundOut* out) {
  Span phase("phase.open", s.open.size());
  const double period_ns = 1e9 / w.offered_rate;
  const int64_t start = NowNs();
  auto due = [&](size_t i) {
    return start + static_cast<int64_t>(static_cast<double>(i) * period_ns);
  };
  int64_t max_lag = 0;
  std::vector<int64_t> fresh;
  fresh.reserve(s.open.size());
  for (size_t i = 0; i < s.open.size();) {
    int64_t now = NowNs();
    const int64_t first_due = due(i);
    if (now < first_due) {
      // Sleep only through long gaps: waking from a sleep on a virtual
      // machine can take longer than the gap itself. Spin through the rest
      // so the batch starts on time.
      if (first_due - now > 2000000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(first_due - now - 1000000));
      }
      while ((now = NowNs()) < first_due) std::this_thread::yield();
    }
    size_t end = i;
    while (end < s.open.size() && end - i < w.open_cap && due(end) <= now) ++end;
    max_lag = std::max(max_lag, now - first_due);
    {
      Span span("loadgen.batch", end - i);
      auto built = BuildBatches(&s.open[i], s.open.data() + end, slots);
      for (size_t q = 0; q < slots.size(); ++q) {
        Ingest(slots[q].get(), std::move(built[q]), w.sync_events,
               "runtime.apply_serving", tally);
      }
    }
    const int64_t done = NowNs();
    for (size_t k = i; k < end; ++k) fresh.push_back(done - due(k));
    i = end;
  }
  SyncLogs(slots, tally);
  out->fresh_p50_us = Percentile(fresh, 0.50) * 1e-3;
  WindowP99Us(fresh, w.tail_window, &out->fresh_p99_us);
  out->fresh_samples = fresh.size();
  out->gauges["loadgen.max_lag_ms"] = static_cast<double>(max_lag) * 1e-6;
}

/// Final views against the oracle, the last snapshot and the subscriber.
void CheckOutputs(const WorkloadSpec& w, const Stream& s, Slots& slots,
                  ReaderState* sub, Tally* tally, RoundOut* out) {
  std::unique_ptr<Oracle> oracle = w.make_oracle();
  for (const auto* part : {&s.initial, &s.closed, &s.open}) {
    for (const Event& e : *part) oracle->Apply(e);
  }
  double view_rows = 0, state = 0;
  for (auto& sl : slots) {
    const std::string& view = sl->views[0];
    auto live = sl->engine->View(view);
    if (!live.ok()) {
      tally->Check(false, sl->spec->name + " view: " + live.status().ToString());
      continue;
    }
    std::string why;
    tally->Check(SameRows(live.value(), oracle->Expected(sl->spec->name),
                          w.rel_tol, &why),
                 sl->spec->name + " differs from the benchmark's own result: " + why);
    sl->live = Canonical(live.value().rows);
    rt::ViewSnapshot snap = sl->engine->Snapshot();
    const QueryResult* published = snap.Find(view);
    tally->Check(snap.epoch() == sl->engine->epoch() && published != nullptr &&
                     Canonical(published->rows) == sl->live,
                 sl->spec->name + " last snapshot differs from the live view");
    view_rows += static_cast<double>(live.value().rows.size());
    state += static_cast<double>(sl->engine->StateBytes());
  }
  const std::string& view0 = slots[0]->views[0];
  tally->Check(!sub->gap && sub->last_epoch == slots[0]->engine->epoch() &&
                   Canonical(sub->replay[view0]) == slots[0]->live,
               slots[0]->spec->name +
                   " subscriber base plus deltas differs from the last snapshot");
  out->gauges["runtime.view_rows"] = view_rows;
  out->gauges["runtime.state_mib"] = state / (1024.0 * 1024.0);
  out->gauges["runtime.delta_rows_per_epoch"] =
      sub->epochs ? static_cast<double>(sub->delta_rows) / static_cast<double>(sub->epochs) : 0;
}

/// toaster-i over the initial load (untimed) and the closed-loop prefix.
void Interp(const WorkloadSpec& w, const Stream& s, Slots& slots, Tally* tally,
            RoundOut* out) {
  Span phase("phase.interp");
  std::vector<std::unique_ptr<rt::Engine>> engines;
  for (auto& sl : slots) {
    engines.push_back(std::make_unique<rt::Engine>(std::move(sl->program)));
  }
  auto apply_all = [&](const std::vector<Event>& events, size_t first,
                       size_t last, const char* span_name) {
    auto built = BuildBatches(&events[first], events.data() + last, slots);
    for (size_t q = 0; q < slots.size(); ++q) {
      if (built[q].empty()) continue;
      Span span(span_name, built[q].size());
      Status st = engines[q]->ApplyBatch(std::move(built[q]));
      tally->Op(st, "toaster-i batch");
    }
  };
  for (size_t i = 0; i < s.initial.size(); i += w.initial_batch) {
    apply_all(s.initial, i, std::min(s.initial.size(), i + w.initial_batch),
              "runtime.interp_initial");
  }
  const size_t events =
      std::min(s.closed.size(), PrefixBatches(w, s) * w.closed_batch);
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < events; i += w.closed_batch) {
    apply_all(s.closed, i, std::min(events, i + w.closed_batch),
              "runtime.interp_apply");
  }
  const int64_t t1 = NowNs();
  out->interp_events_per_s = static_cast<double>(events) / Seconds(t1 - t0);
  for (size_t q = 0; q < slots.size(); ++q) {
    const std::vector<std::string> names = engines[q]->ViewNames();
    auto mine = engines[q]->View(names[0]);
    const QueryResult* compiled = slots[q]->prefix.Find(slots[q]->views[0]);
    std::string why = "no view";
    bool ok = mine.ok() && compiled != nullptr;
    if (ok) {
      std::vector<Row> want;
      for (const auto& [row, mult] : compiled->rows) {
        for (int64_t m = 0; m < mult; ++m) want.push_back(row);
      }
      ok = SameRows(mine.value(), std::move(want), w.rel_tol, &why);
    }
    tally->Check(ok, slots[q]->spec->name + " toaster-i differs from toaster-c: " + why);
  }
}

/// Checkpoint restore plus log replay into fresh engines, until their views
/// equal the live engines' views; `reps` times, timed as one block.
void Recover(Slots& slots, size_t reps, Tally* tally, RoundOut* out) {
  Span phase("phase.recovery");
  for (auto& sl : slots) sl->log.Close();
  double ckpt_mib = 0, log_mib = 0, logged = 0;
  const int64_t t0 = NowNs();
  std::vector<std::string> got(slots.size());
  std::vector<Status> status(slots.size());
  for (size_t i = 0; i < reps * slots.size(); ++i) {
    const size_t q = i % slots.size();
    Slot& sl = *slots[q];
    auto gen = sl.spec->make_program();
    rt::CompiledProgramEngine engine(gen.get());
    {
      Span span("runtime.restore");
      status[q] = rt::RestoreCheckpoint(sl.ckpt_path, &engine);
    }
    if (status[q].ok()) {
      Span span("runtime.replay", sl.events_logged - sl.events_at_ckpt);
      auto stats = rt::ReplayLog(sl.log_path, &engine);
      status[q] = stats.status();
    }
    if (status[q].ok()) {
      auto view = engine.View(sl.views[0]);
      status[q] = view.status();
      if (view.ok()) got[q] = Canonical(view.value().rows);
    }
  }
  const int64_t t1 = NowNs();
  out->recovery_s = Seconds(t1 - t0) / static_cast<double>(reps);
  for (size_t q = 0; q < slots.size(); ++q) {
    tally->Check(status[q].ok() && got[q] == slots[q]->live,
                 slots[q]->spec->name + " recovered views differ from the live views: " +
                     status[q].ToString());
    ckpt_mib += FileMib(slots[q]->ckpt_path);
    log_mib += FileMib(slots[q]->log_path);
    logged += static_cast<double>(slots[q]->events_logged);
  }
  out->gauges["runtime.checkpoint_mib"] = ckpt_mib;
  out->gauges["runtime.log_bytes_per_event"] = log_mib * 1024 * 1024 / logged;
}

/// Traced mode only: the toaster-c engines alone (serving and log off) at
/// `threads` pool threads, for apply cost, validation and thread speedup.
void ApplyOnly(const WorkloadSpec& w, const Stream& s, const Slots& shape,
               size_t threads, Tally* tally) {
  rt::shard_pool().set_threads(threads);
  std::vector<std::unique_ptr<dbt::StreamProgram>> gens;
  std::vector<std::unique_ptr<rt::CompiledProgramEngine>> engines;
  for (const auto& sl : shape) {
    gens.push_back(sl->spec->make_program());
    engines.push_back(std::make_unique<rt::CompiledProgramEngine>(gens.back().get()));
  }
  auto run = [&](const std::vector<Event>& events, size_t batch, bool timed) {
    for (size_t i = 0; i < events.size(); i += batch) {
      const size_t end = std::min(events.size(), i + batch);
      auto built = BuildBatches(&events[i], events.data() + end, shape);
      for (size_t q = 0; q < shape.size(); ++q) {
        if (built[q].empty()) continue;
        const size_t n = built[q].size();
        if (timed) {
          Span span("runtime.validate", n);
          Status v = engines[q]->ingest_validator().ValidateBatch(built[q]);
          tally->Op(v, "validate");
        }
        Span span(timed ? "runtime.apply" : "runtime.apply_untimed", n);
        Status st = engines[q]->ApplyBatch(std::move(built[q]));
        tally->Op(st, "apply-only batch");
      }
    }
  };
  run(s.initial, w.initial_batch, false);
  Span phase(threads == 1 ? "phase.apply_1" : "phase.apply_t", s.closed.size());
  run(s.closed, w.closed_batch, true);
}

RoundOut RunRound(const WorkloadSpec& w, const Stream& s,
                  const std::vector<std::string>& sql, bool first_round,
                  bool trace, size_t threads, const std::vector<int>& reader_cpus,
                  uint64_t seed, const std::string& dir, Tally* tally) {
  Span round("round");
  RoundOut out;
  rt::shard_pool().set_threads(threads);
  Slots slots;
  for (size_t rep = 0; rep < w.setup_reps; ++rep) {
    slots.clear();
    Span span("setup");
    const int64_t t0 = NowNs();
    for (size_t q = 0; q < w.queries.size(); ++q) {
      std::unique_ptr<Slot> slot;
      Status st = SetUpQuery(w, w.queries[q], sql[q], s, dir, tally, &slot);
      tally->Op(st, "set-up");
      if (!st.ok()) return out;
      slots.push_back(std::move(slot));
    }
    out.setup_s.push_back(Seconds(NowNs() - t0));
  }
  double maps = 0;
  for (const auto& sl : slots) maps += static_cast<double>(sl->program.maps.size());
  out.gauges["compiler.maps"] = maps;

  {
    Readers readers(&slots, w, reader_cpus, seed, tally);
    ClosedLoop(w, s, slots, tally, &out);
    if (first_round) out.mem_peak_mib = PeakRssMib();
    readers.set_sampling(true);
    OpenLoop(w, s, slots, tally, &out);
    readers.set_sampling(false);
    readers.Stop();
    for (ReaderState& st : readers.states()) {
      WindowP99Us(st.samples, kReadWindow, &out.read_p99_us);
      out.read_samples += st.samples.size();
    }
    CheckOutputs(w, s, slots, &readers.states()[0], tally, &out);
  }
  Interp(w, s, slots, tally, &out);
  Recover(slots, w.recovery_reps, tally, &out);
  if (trace) {
    Slots shape;
    for (auto& sl : slots) {
      auto bare = std::make_unique<Slot>();
      bare->spec = sl->spec;
      bare->relations = sl->relations;
      shape.push_back(std::move(bare));
    }
    slots.clear();
    ApplyOnly(w, s, shape, threads, tally);
    if (threads > 1) ApplyOnly(w, s, shape, 1, tally);
    rt::shard_pool().set_threads(threads);
  }
  return out;
}

// ---- per-layer metrics from the spans ----------------------------------------

class SpanIndex {
 public:
  explicit SpanIndex(std::vector<SpanRecord> spans) : spans_(std::move(spans)) {
    for (size_t i = 0; i < spans_.size(); ++i) by_id_[spans_[i].id] = i;
  }

  struct Sum {
    double ns = 0;
    double count = 0;
    double n = 0;
  };

  /// Totals over the spans named `name` whose parent is named `parent`
  /// (any parent when null).
  Sum Total(const char* name, const char* parent = nullptr) const {
    Sum out;
    for (const SpanRecord& s : spans_) {
      if (std::strcmp(s.name, name) != 0) continue;
      if (parent != nullptr) {
        auto it = by_id_.find(s.parent);
        if (it == by_id_.end() || std::strcmp(spans_[it->second].name, parent) != 0) {
          continue;
        }
      }
      out.ns += static_cast<double>(s.duration_ns());
      out.count += static_cast<double>(s.count);
      out.n += 1;
    }
    return out;
  }

  double MedianNs(const char* name) const {
    std::vector<double> v;
    for (const SpanRecord& s : spans_) {
      if (std::strcmp(s.name, name) == 0) v.push_back(static_cast<double>(s.duration_ns()));
    }
    return Median(std::move(v));
  }

 private:
  std::vector<SpanRecord> spans_;
  std::unordered_map<uint64_t, size_t> by_id_;
};

double PerUnit(const SpanIndex::Sum& s, double scale) {
  return s.count > 0 ? s.ns * scale / s.count : 0;
}
double PerSpan(const SpanIndex::Sum& s, double scale) {
  return s.n > 0 ? s.ns * scale / s.n : 0;
}

std::vector<Metric> PerLayer(const SpanIndex& ix, const std::vector<RoundOut>& rounds,
                             size_t threads, size_t queries) {
  auto gauge = [&](const char* name) {
    std::vector<double> v;
    for (const RoundOut& r : rounds) {
      auto it = r.gauges.find(name);
      if (it != r.gauges.end()) v.push_back(it->second);
    }
    return Median(std::move(v));
  };
  const double setups = ix.Total("setup").n;
  const double round_count = ix.Total("round").n;
  // One recovery restores every query's engine once.
  const auto restore = ix.Total("runtime.restore");
  const double recoveries = restore.n / static_cast<double>(queries);
  const auto apply_t = ix.Total("runtime.apply", "phase.apply_t");
  const auto apply_1 = ix.Total("runtime.apply", "phase.apply_1");
  const auto apply_off = threads > 1 ? apply_t : apply_1;
  const auto serving = ix.Total("runtime.apply_serving", "phase.closed");
  const auto replay = ix.Total("runtime.replay");
  double max_lag = 0;
  for (const RoundOut& r : rounds) max_lag = std::max(max_lag, r.gauges.at("loadgen.max_lag_ms"));
  return {
      {"sql.parse_ms", "ms", ix.Total("sql.parse").ns * 1e-6 / setups},
      {"compiler.compile_ms", "ms", ix.Total("compiler.compile").ns * 1e-6 / setups},
      {"compiler.maps", "count", gauge("compiler.maps")},
      {"runtime.initial_load_s", "s", ix.Total("runtime.initial_load").ns * 1e-9 / setups},
      {"runtime.batch_build_ns_per_event", "ns", PerUnit(ix.Total("runtime.batch_build"), 1)},
      {"runtime.validate_ns_per_event", "ns", PerUnit(ix.Total("runtime.validate"), 1)},
      {"runtime.apply_ns_per_event", "ns", PerUnit(apply_off, 1)},
      {"runtime.state_mib", "MiB", gauge("runtime.state_mib")},
      {"runtime.thread_speedup", "x", threads > 1 && apply_t.ns > 0 ? apply_1.ns / apply_t.ns : 1.0},
      {"runtime.publish_us_per_epoch", "us",
       PerSpan(serving, 1e-3) - PerSpan(apply_off, 1e-3)},
      {"runtime.view_rows", "rows", gauge("runtime.view_rows")},
      {"runtime.delta_rows_per_epoch", "rows", gauge("runtime.delta_rows_per_epoch")},
      {"runtime.snapshot_read_ns", "ns", ix.MedianNs("runtime.snapshot_read")},
      {"runtime.log_append_us_per_batch", "us", PerSpan(ix.Total("runtime.log_append"), 1e-3)},
      {"runtime.log_bytes_per_event", "B", gauge("runtime.log_bytes_per_event")},
      {"runtime.log_sync_ms", "ms", PerSpan(ix.Total("runtime.log_sync"), 1e-6)},
      {"runtime.checkpoint_write_s", "s", ix.Total("runtime.checkpoint_write").ns * 1e-9 / round_count},
      {"runtime.checkpoint_mib", "MiB", gauge("runtime.checkpoint_mib")},
      {"runtime.restore_s", "s", recoveries > 0 ? restore.ns * 1e-9 / recoveries : 0},
      {"runtime.replay_events_per_s", "ev/s", replay.ns > 0 ? replay.count / (replay.ns * 1e-9) : 0},
      {"runtime.interp_apply_ns_per_event", "ns", PerUnit(ix.Total("runtime.interp_apply"), 1)},
      {"loadgen.max_lag_ms", "ms", max_lag},
  };
}

}  // namespace

double PeakRssMib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

RunResult RunWorkload(const WorkloadSpec& w, uint64_t seed, double seconds,
                      bool trace, const std::string& work_dir,
                      const std::string& query_dir) {
  RunResult result;
  if (trace) Tracer::Get().Enable();
  std::vector<std::string> sql;
  for (const QuerySpec& q : w.queries) {
    sql.push_back(ReadFile(query_dir + "/" + q.name + ".sql"));
  }
  // The writer, the pool's other workers and the readers share the host:
  // never run more threads than it has. Each reader gets a CPU of its own
  // and the writer and pool keep the rest, so the scheduler never stacks a
  // reader on the writer's CPU mid-call (that showed as ~1 ms read stalls).
  // The pool's workers start later from this thread and inherit its CPUs.
  std::vector<int> cpus = AllowedCpus();
  if (cpus.empty()) cpus.push_back(0);
  std::vector<int> reader_cpus;
  if (cpus.size() > w.readers) {
    reader_cpus.assign(cpus.end() - static_cast<long>(w.readers), cpus.end());
    cpus.resize(cpus.size() - w.readers);
    PinTo(cpus);
  }
  const size_t threads = std::max<size_t>(1, std::min(w.pool_threads, cpus.size()));
  std::fprintf(stderr, "perfbench: %s seed=%llu pool_threads=%zu readers=%zu%s\n",
               w.name.c_str(), static_cast<unsigned long long>(seed), threads,
               w.readers, reader_cpus.empty() ? "" : " (pinned)");

  Tally tally;
  std::vector<RoundOut> rounds;
  const int64_t start = NowNs();
  while (rounds.empty() || Seconds(NowNs() - start) < seconds) {
    // Each round draws its own stream from the run's seed (round 0 uses the
    // seed itself), so a run's medians span several streams: where a
    // stream's own stalls (map growth) fall differs from stream to stream.
    const uint64_t round_seed = seed ^ (rounds.size() * 0x9E3779B97F4A7C15ULL);
    const Stream stream = w.make_stream(round_seed);
    rounds.push_back(RunRound(w, stream, sql, rounds.empty(), trace, threads,
                              reader_cpus, round_seed, work_dir, &tally));
    const RoundOut& r = rounds.back();
    std::fprintf(stderr,
                 "perfbench: round %zu: %.0f ev/s, fresh p50 %.1f p99 %.1f us "
                 "(%zu), read p99 %.1f us (%zu), interp %.0f ev/s, setup %.4f s, "
                 "recovery %.4f s\n",
                 rounds.size(), r.events_per_s, r.fresh_p50_us, Median(r.fresh_p99_us),
                 r.fresh_samples, Median(r.read_p99_us), r.read_samples,
                 r.interp_events_per_s, Median(r.setup_s), r.recovery_s);
    if (tally.failed() > 0 && rounds.back().setup_s.empty()) break;
  }

  std::vector<double> setup, fresh_p99, read_p99;
  for (const RoundOut& r : rounds) {
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    fresh_p99.insert(fresh_p99.end(), r.fresh_p99_us.begin(), r.fresh_p99_us.end());
    read_p99.insert(read_p99.end(), r.read_p99_us.begin(), r.read_p99_us.end());
  }
  auto median = [&](double RoundOut::*field) {
    std::vector<double> v;
    for (const RoundOut& r : rounds) v.push_back(r.*field);
    return Median(std::move(v));
  };
  std::fprintf(stderr, "perfbench: %zu rounds, %zu set-ups\n", rounds.size(),
               setup.size());
  result.end_to_end = {
      {"events_per_s", "ev/s", median(&RoundOut::events_per_s)},
      {"fresh_p50_us", "us", median(&RoundOut::fresh_p50_us)},
      {"fresh_p99_us", "us", Median(fresh_p99)},
      {"read_p99_us", "us", Median(read_p99)},
      {"interp_events_per_s", "ev/s", median(&RoundOut::interp_events_per_s)},
      {"setup_s", "s", Median(setup)},
      {"recovery_s", "s", median(&RoundOut::recovery_s)},
      {"mem_peak_mib", "MiB", rounds.front().mem_peak_mib},
  };
  if (trace) {
    SpanIndex ix(Tracer::Get().Collect());
    result.per_layer = PerLayer(ix, rounds, threads, w.queries.size());
    const std::string path = work_dir + "/trace-" + w.name + ".csv";
    if (!Tracer::Get().WriteCsv(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }
  result.correct = tally.correct();
  result.attempted = tally.attempted();
  result.failed = tally.failed();
  return result;
}

}  // namespace perfbench
