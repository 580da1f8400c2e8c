// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Runs whole rounds of the named workload for about <s> seconds and prints,
// as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or with
// --trace 1 the per-layer metrics derived from the recorded spans (written
// to <dir>/trace-<workload>.csv). Exits 2 on bad arguments.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

std::string Number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Json(const perfbench::RunResult& r, bool trace) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  const auto& metrics = trace ? r.per_layer : r.end_to_end;
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

int Usage() {
  std::string names;
  for (const std::string& n : perfbench::WorkloadNames()) names += " " + n;
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir>\nworkloads:%s\n",
               names.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::string(value) == "1";
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      return Usage();
    }
  }
  const perfbench::WorkloadSpec* w = perfbench::FindWorkload(workload);
  if (w == nullptr || work_dir.empty() || argc % 2 == 0) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", work_dir.c_str());
    return 1;
  }
  const perfbench::RunResult r =
      perfbench::RunWorkload(*w, seed, seconds, trace, work_dir, PERFBENCH_QUERY_DIR);
  for (const auto& m : r.end_to_end) {
    std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& m : r.per_layer) {
    std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", Json(r, trace).c_str());
  return 0;
}
