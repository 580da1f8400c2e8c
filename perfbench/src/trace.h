// In-memory span recorder for the benchmark's traced mode.
//
// A span wraps one call into a layer of the system (parse, compile, batch
// build, validate, apply, log append, checkpoint write, ...). Each records
// its name, start, end, parent span and an optional count of the work it
// covered (events, rows). Spans are appended to a per-thread buffer, so the
// writer, the pool and the reader threads never contend, and are written out
// once, after every thread has been joined. With tracing off a Span costs a
// single branch.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span
  const char* name = "";
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t count = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Process-wide recorder. Enable() before the first span; Collect() and
/// WriteCsv() only after every recording thread has been joined.
class Tracer {
 public:
  static Tracer& Get();

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// All spans recorded so far, merged across threads in id order.
  std::vector<SpanRecord> Collect() const;

  /// Writes `id,parent,thread,name,start_ns,end_ns,count` lines.
  bool WriteCsv(const std::string& path) const;

 private:
  friend class Span;
  struct ThreadBuffer {
    uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<uint64_t> open;  ///< ids of the spans open on this thread
  };

  ThreadBuffer* Local();

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
  std::atomic<uint64_t> next_id_{1};
};

/// Nanoseconds on the steady clock (the clock every span and timing uses).
int64_t NowNs();

/// RAII span: opens on construction, closes on destruction. A span opened
/// inside another on the same thread records it as its parent.
class Span {
 public:
  explicit Span(const char* name, uint64_t count = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_count(uint64_t count) { count_ = count; }

 private:
  Tracer::ThreadBuffer* buf_ = nullptr;  // null when tracing is off
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_ = 0;
  uint64_t count_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
