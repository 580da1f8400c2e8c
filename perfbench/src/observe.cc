// perfbench_observe: re-measures the four observations README.md records,
// on the benchmark's own streams and engines.
//
//   perfbench_observe [--seed <n>]
//
//   1. vwap gains nothing from batching: toaster-c ev/s at batch 1, 16, 256;
//   2. q41 state grows by kilobytes per input event (StateBytes, VmHWM);
//   3. a batch naming a relation the query does not declare is rejected
//      whole (NotFound), its other events included;
//   4. publish is nearly all of a tpch-serve batch: ApplyBatch at batch 64
//      with serving off, on, and on with one (unpolled) subscriber.
// Engines run with serving and the batch log off unless stated.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "gen/vwap.hpp"
#include "harness.h"
#include "src/runtime/stream_engine.h"
#include "src/workload/orderbook.h"
#include "trace.h"

namespace {

namespace rt = dbtoaster::runtime;
using perfbench::Event;
using perfbench::FindWorkload;
using perfbench::NowNs;
using perfbench::PeakRssMib;

struct Engine {
  std::unique_ptr<dbt::StreamProgram> program;
  std::unique_ptr<rt::CompiledProgramEngine> engine;

  explicit Engine(const perfbench::QuerySpec& q)
      : program(q.make_program()),
        engine(std::make_unique<rt::CompiledProgramEngine>(program.get())) {}
};

/// Applies `events` in batches of `batch`, keeping only `relations`;
/// returns the seconds spent in ApplyBatch, or -1 on a failed batch.
double Apply(rt::StreamEngine* e, const std::vector<Event>& events, size_t batch,
             const std::vector<std::string>& relations) {
  int64_t ns = 0;
  for (size_t i = 0; i < events.size(); i += batch) {
    rt::EventBatch b;
    for (size_t k = i; k < std::min(events.size(), i + batch); ++k) {
      for (const std::string& r : relations) {
        if (events[k].relation == r) b.Add(events[k].kind, r, events[k].tuple);
      }
    }
    if (b.empty()) continue;
    const int64_t t0 = NowNs();
    const dbtoaster::Status st = e->ApplyBatch(std::move(b));
    ns += NowNs() - t0;
    if (!st.ok()) {
      std::fprintf(stderr, "batch failed: %s\n", st.ToString().c_str());
      return -1;
    }
  }
  return static_cast<double>(ns) * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  if (argc == 3 && std::string(argv[1]) == "--seed") seed = std::strtoull(argv[2], nullptr, 10);

  // 1. vwap over the BIDS events of the order-book stream.
  {
    dbtoaster::workload::OrderBookConfig cfg;
    cfg.seed = seed;
    dbtoaster::workload::OrderBookGenerator gen(cfg);
    std::vector<Event> bids;
    for (const Event& e : gen.Generate(24000)) {
      if (e.relation == "BIDS") bids.push_back(e);
    }
    const perfbench::QuerySpec vwap{
        "vwap", [] { return std::make_unique<dbtoaster_gen::vwap_Program>(); }};
    std::printf("vwap toaster-c over %zu bid events:", bids.size());
    for (size_t batch : {1, 16, 256}) {
      Engine e(vwap);
      const double secs = Apply(e.engine.get(), bids, batch, {"BIDS"});
      std::printf("  batch %zu: %.0f ev/s", batch, static_cast<double>(bids.size()) / secs);
    }
    std::printf("\n");
  }

  // 2. q41 state per input event over the warehouse-load stream, batch 1024.
  {
    const auto* w = FindWorkload("warehouse-load");
    const perfbench::Stream s = w->make_stream(seed);
    Engine e(w->queries[0]);
    const std::vector<std::string> all = {"CUSTOMER", "SUPPLIER", "PART", "ORDERS", "LINEITEM"};
    Apply(e.engine.get(), s.initial, 1024, all);
    const double rss0 = PeakRssMib();
    const double secs = Apply(e.engine.get(), s.closed, 1024, all) +
                        Apply(e.engine.get(), s.open, 1024, all);
    const size_t events = s.closed.size() + s.open.size();
    const double bytes = static_cast<double>(e.engine->StateBytes());
    std::printf("q41 toaster-c after %zu fact events: StateBytes %.1f MiB = %.2f KB/event, "
                "VmHWM %.1f MiB (%.1f MiB before the facts), %.0f ev/s\n",
                events, bytes / (1 << 20), bytes / 1000 / static_cast<double>(events),
                PeakRssMib(), rss0, static_cast<double>(events) / secs);
  }

  // 3. best_bid declares BIDS only; one ASKS event sinks the whole batch.
  {
    Engine e(FindWorkload("orderbook-tick")->queries[1]);
    rt::EventBatch b;
    b.AddInsert("BIDS", {dbtoaster::Value(int64_t{1}), dbtoaster::Value(int64_t{1}),
                         dbtoaster::Value(int64_t{100}), dbtoaster::Value(int64_t{5})});
    b.AddInsert("ASKS", {dbtoaster::Value(int64_t{2}), dbtoaster::Value(int64_t{1}),
                         dbtoaster::Value(int64_t{101}), dbtoaster::Value(int64_t{5})});
    const dbtoaster::Status st = e.engine->ApplyBatch(std::move(b));
    auto view = e.engine->View(e.engine->ViewNames()[0]);
    std::printf("best_bid fed BIDS+ASKS: %s; epoch %llu; view %s",
                st.ToString().c_str(), static_cast<unsigned long long>(e.engine->epoch()),
                view.ok() ? view.value().ToString().c_str() : "unavailable\n");
  }

  // 4. q3s over the tpch-serve stream at batch 64, serving off then on.
  {
    const auto* w = FindWorkload("tpch-serve");
    const perfbench::Stream s = w->make_stream(seed);
    const std::vector<std::string> rels = {"CUSTOMER", "ORDERS", "LINEITEM"};
    double per_batch[3] = {0, 0, 0};
    size_t rows = 0;
    for (int mode = 0; mode < 3; ++mode) {  // off, serving, serving + subscriber
      Engine e(w->queries[0]);
      Apply(e.engine.get(), s.initial, 4096, rels);
      rt::ViewSubscriber sub;
      if (mode > 0) {
        if (!e.engine->EnableServing().ok()) return 1;
        rows = e.engine->Snapshot().Find(e.engine->ViewNames()[0])->rows.size();
      }
      if (mode == 2) {
        auto r = e.engine->Subscribe();
        if (!r.ok()) return 1;
        sub = std::move(r).value();
      }
      const double secs = Apply(e.engine.get(), s.closed, 64, rels);
      per_batch[mode] = secs / static_cast<double>((s.closed.size() + 63) / 64);
    }
    std::printf("q3s batch 64 over a %zu-row view: %.1f us serving off, %.1f us on, "
                "%.1f us on with a subscriber; publish is %.1f%% of a batch "
                "(%.1f%% with the subscriber)\n",
                rows, per_batch[0] * 1e6, per_batch[1] * 1e6, per_batch[2] * 1e6,
                100 * (per_batch[1] - per_batch[0]) / per_batch[1],
                100 * (per_batch[2] - per_batch[0]) / per_batch[2]);
  }
  return 0;
}
