// The benchmark's workload runner: one fixed-work round structure shared by
// every workload, driven only through the engines' public API.
//
// A run repeats whole rounds until the requested measuring time is used up.
// Round r draws its stream from seed ^ (r * 0x9E3779B97F4A7C15), so the same
// seed always gives the same sequence of streams. Each round, on fresh
// engines:
//   1. set-up, several times: SQL text -> ParseScript -> CompileQuery ->
//      generated-program engine -> batch log open -> initial load ->
//      EnableServing (setup_s);
//   2. closed loop over the round's fixed stream at the workload's batch
//      size, with serving, paced readers, a subscriber, the batch log and one
//      mid-stream checkpoint on (events_per_s);
//   3. open loop over the rest of the stream at a fixed offered rate
//      (fresh_p50_us, fresh_p99_us, and read_p99_us from the readers);
//   4. output checks against the benchmark's own model of the relations;
//   5. toaster-i (the trigger interpreter) over a prefix of the closed-loop
//      stream, checked against toaster-c at the same epoch
//      (interp_events_per_s);
//   6. recovery: checkpoint restore plus log replay into a fresh engine,
//      checked against the live engine (recovery_s).
// The traced mode adds an apply-only pass (serving and log off) at the
// workload's pool size and at one thread, for the per-layer breakdown.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/codegen/dbtoaster_runtime.h"
#include "src/storage/table.h"

namespace perfbench {

using dbtoaster::Event;
using dbtoaster::Row;
using dbtoaster::Value;

/// The benchmark's own model of the live relations, fed the same events as
/// the engines; computes each view without any of the program's code.
class Oracle {
 public:
  virtual ~Oracle() = default;
  virtual void Apply(const Event& e) = 0;
  /// Expected rows of query `query` (group columns then the aggregate), in
  /// any order.
  virtual std::vector<Row> Expected(const std::string& query) const = 0;
};

/// One standing query: its script under queries/ and the dbtc-generated
/// program compiled from the same script at build time.
struct QuerySpec {
  std::string name;
  std::function<std::unique_ptr<dbt::StreamProgram>()> make_program;
};

/// One round's input, generated from the round's seed before any timing
/// starts.
struct Stream {
  std::vector<Event> initial;  ///< loaded during set-up, serving off
  std::vector<Event> closed;   ///< the closed-loop phase
  std::vector<Event> open;     ///< the open-loop phase
};

struct WorkloadSpec {
  std::string name;
  std::vector<QuerySpec> queries;  ///< the first one is subscribed to
  size_t initial_batch = 4096;
  size_t closed_batch = 1;
  size_t open_cap = 1;        ///< max events per open-loop batch
  double offered_rate = 1;    ///< open-loop events per second
  /// Open-loop events per p99 window (0: the whole round). fresh_p99_us is
  /// the median over windows, so a short stall of the shared host moves few
  /// of them; a workload whose own stalls (map growth) are its tail keeps
  /// the whole round, so the windows cannot hide them.
  size_t tail_window = 0;
  size_t pool_threads = 1;    ///< shard pool size, the writer included
  size_t readers = 1;         ///< paced reader threads
  int64_t read_interval_us = 1000;
  size_t sync_events = 0;     ///< logged events per group-commit Sync; 0:
                              ///< at the end of each phase only
  size_t setup_reps = 1;      ///< set-ups timed per round
  size_t interp_events = 0;   ///< closed-loop prefix replayed by toaster-i
  size_t recovery_reps = 1;   ///< recoveries timed together per round
  double rel_tol = 0;         ///< 0: outputs compare exactly
  std::function<Stream(uint64_t seed)> make_stream;
  std::function<std::unique_ptr<Oracle>()> make_oracle;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  ///< filled in traced mode only
};

/// Runs whole rounds of `w` until `seconds` of measuring have passed (at
/// least one round). Logs, checkpoints and the trace go under `work_dir`.
RunResult RunWorkload(const WorkloadSpec& w, uint64_t seed, double seconds,
                      bool trace, const std::string& work_dir,
                      const std::string& query_dir);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMib();

/// The workloads, by name (nullptr for an unknown name).
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
