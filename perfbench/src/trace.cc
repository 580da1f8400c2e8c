#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer* Tracer::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lk(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    local = buffers_.back().get();
    local->thread = static_cast<uint32_t>(buffers_.size() - 1);
    local->spans.reserve(1 << 16);
  }
  return local;
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<SpanRecord> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return out;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,thread,name,start_ns,end_ns,count\n");
  for (const SpanRecord& s : Collect()) {
    std::fprintf(f, "%llu,%llu,%u,%s,%lld,%lld,%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.thread, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(f) == 0;
}

Span::Span(const char* name, uint64_t count) : name_(name), count_(count) {
  Tracer& t = Tracer::Get();
  if (!t.enabled()) return;
  buf_ = t.Local();
  id_ = t.next_id_.fetch_add(1, std::memory_order_relaxed);
  parent_ = buf_->open.empty() ? 0 : buf_->open.back();
  buf_->open.push_back(id_);
  start_ns_ = NowNs();
}

Span::~Span() {
  if (buf_ == nullptr) return;
  const int64_t end = NowNs();
  buf_->open.pop_back();
  buf_->spans.push_back(
      SpanRecord{id_, parent_, name_, buf_->thread, start_ns_, end, count_});
}

}  // namespace perfbench
