#include "src/runtime/batch_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/str.h"
#include "src/runtime/checkpoint.h"

namespace dbtoaster::runtime {

void SerializeBatch(const EventBatch& batch, dbt::Ser* out) {
  out->u64(batch.groups().size());
  for (const EventBatch::Group& g : batch.groups()) {
    out->str(g.relation);
    out->u8(g.is_insert ? 0 : 1);
    out->u64(g.rows);
    out->u64(g.cols.size());
    for (const EventColumn& c : g.cols) {
      out->u8(static_cast<uint8_t>(c.tag));
      switch (c.tag) {
        case EventColumn::Tag::kI64:
          for (int64_t v : c.i64) out->i64(v);
          break;
        case EventColumn::Tag::kF64:
          for (double v : c.f64) out->f64(v);
          break;
        case EventColumn::Tag::kStr:
          for (const std::string& v : c.str) out->str(v);
          break;
      }
    }
  }
}

Status DeserializeBatch(dbt::Deser* in, EventBatch* out) {
  out->Clear();
  const uint64_t ngroups = in->u64();
  if (!in->ok() || ngroups > in->remaining()) {
    return Status::ParseError("batch: corrupt group count");
  }
  for (uint64_t gi = 0; gi < ngroups; ++gi) {
    // Decode the typed lanes straight into a group; groups are unique per
    // (relation, op) in a serialized batch, so this rebuilds it exactly.
    EventBatch::Group g;
    g.relation = in->str();
    const uint8_t kind_tag = in->u8();
    const uint64_t rows = in->u64();
    const uint64_t ncols = in->u64();
    if (!in->ok() || kind_tag > 1 || ncols > in->remaining()) {
      return Status::ParseError("batch: corrupt group header");
    }
    g.is_insert = kind_tag == 0;
    g.rows = static_cast<size_t>(rows);
    g.cols.resize(static_cast<size_t>(ncols));
    for (EventColumn& c : g.cols) {
      const uint8_t tag = in->u8();
      if (!in->ok() || tag > 2) {
        return Status::ParseError("batch: corrupt column tag");
      }
      c.tag = static_cast<EventColumn::Tag>(tag);
      switch (c.tag) {
        case EventColumn::Tag::kI64:
          if (rows * sizeof(int64_t) > in->remaining()) {
            return Status::ParseError("batch: truncated i64 lane");
          }
          c.i64.reserve(static_cast<size_t>(rows));
          for (uint64_t i = 0; i < rows; ++i) c.i64.push_back(in->i64());
          break;
        case EventColumn::Tag::kF64:
          if (rows * sizeof(double) > in->remaining()) {
            return Status::ParseError("batch: truncated f64 lane");
          }
          c.f64.reserve(static_cast<size_t>(rows));
          for (uint64_t i = 0; i < rows; ++i) c.f64.push_back(in->f64());
          break;
        case EventColumn::Tag::kStr:
          for (uint64_t i = 0; i < rows && in->ok(); ++i) {
            c.str.push_back(in->str());
          }
          break;
      }
      if (!in->ok()) return Status::ParseError("batch: truncated lane");
    }
    if (g.rows > 0) out->add_group(std::move(g));
  }
  return Status::OK();
}

// ---- BatchLogWriter -----------------------------------------------------

Status BatchLogWriter::Open(const std::string& path, int64_t truncate_to) {
  Close();
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) {
    return Status::Internal(StrFormat("batch log: cannot open '%s': %s",
                                      path.c_str(), std::strerror(errno)));
  }
  if (truncate_to >= 0) {
    if (::ftruncate(fd, truncate_to) != 0) {
      const int err = errno;
      ::close(fd);
      return Status::Internal(StrFormat("batch log: truncate '%s' failed: %s",
                                        path.c_str(), std::strerror(err)));
    }
    // Make the truncation durable before new records land after it.
    if (::fsync(fd) != 0) {
      const int err = errno;
      ::close(fd);
      return Status::Internal(StrFormat("batch log: fsync '%s' failed: %s",
                                        path.c_str(), std::strerror(err)));
    }
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(StrFormat("batch log: seek '%s' failed: %s",
                                      path.c_str(), std::strerror(err)));
  }
  // A freshly created log only survives a crash once its directory entry
  // is on disk, same as the checkpoint rename.
  Status dir = FsyncParentDir(path);
  if (!dir.ok()) {
    ::close(fd);
    return dir;
  }
  fd_ = fd;
  since_sync_ = 0;
  failed_ = false;
  rollback_ok_ = true;
  return Status::OK();
}

Status BatchLogWriter::Append(uint64_t epoch, const EventBatch& batch) {
  if (fd_ < 0) return Status::Internal("batch log: append on closed log");
  if (failed_) {
    return Status::Internal(
        rollback_ok_
            ? "batch log: writer failed; Sync() to confirm rollback first"
            : "batch log: writer failed and rollback failed; reopen the log");
  }
  // A column that mixed strings and numbers serializes its placeholders as
  // real values; logging it would let replay apply a batch that live ingest
  // rejects. An empty validator checks exactly that.
  DBT_RETURN_IF_ERROR(IngestValidator().ValidateBatch(batch));
  dbt::Ser payload;
  payload.u64(epoch);
  SerializeBatch(batch, &payload);

  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = dbt::Crc32(payload.data().data(), payload.size());
  std::string frame;
  frame.reserve(sizeof(len) + sizeof(crc) + payload.size());
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  frame.append(payload.data());

  const off_t start = ::lseek(fd_, 0, SEEK_CUR);
  if (start < 0) {
    return Status::Internal(
        StrFormat("batch log: tell failed: %s", std::strerror(errno)));
  }
  size_t off = 0;
  while (off < frame.size()) {
    size_t want = frame.size() - off;
    ssize_t n;
    if (write_limit_ == 0) {  // injected full-disk: write() rejects outright
      errno = ENOSPC;
      n = -1;
    } else {
      if (want > write_limit_) want = write_limit_;
      n = ::write(fd_, frame.data() + off, want);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      // Roll the partial frame back: leaving it in place would strand every
      // later record behind a frame the untrusting reader refuses to cross.
      failed_ = true;
      rollback_ok_ = ::ftruncate(fd_, start) == 0 &&
                     ::lseek(fd_, start, SEEK_SET) == start;
      return Status::Internal(StrFormat(
          "batch log: write failed: %s (%s)", std::strerror(err),
          rollback_ok_ ? "partial frame rolled back; Sync() to resume"
                       : "rollback failed; reopen the log"));
    }
    off += static_cast<size_t>(n);
    if (write_limit_ != SIZE_MAX) write_limit_ -= static_cast<size_t>(n);
  }
  if (++since_sync_ >= sync_every_) return Sync();
  return Status::OK();
}

Status BatchLogWriter::Sync() {
  if (fd_ < 0) return Status::OK();
  if (failed_ && !rollback_ok_) {
    return Status::Internal(
        "batch log: torn frame could not be rolled back; reopen the log");
  }
  since_sync_ = 0;
  if (::fsync(fd_) != 0) {
    return Status::Internal(
        StrFormat("batch log: fsync failed: %s", std::strerror(errno)));
  }
  failed_ = false;
  return Status::OK();
}

void BatchLogWriter::Close() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

// ---- BatchLogReader -----------------------------------------------------

Status BatchLogReader::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound(StrFormat("batch log: cannot open '%s': %s",
                                      path.c_str(), std::strerror(errno)));
  }
  bytes_.clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return Status::Internal(StrFormat("batch log: read '%s' failed: %s",
                                        path.c_str(), std::strerror(err)));
    }
    if (n == 0) break;
    bytes_.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  pos_ = 0;
  valid_bytes_ = 0;
  tail_torn_ = false;
  return Status::OK();
}

bool BatchLogReader::Next(Record* out) {
  const size_t header = 2 * sizeof(uint32_t);
  if (pos_ == bytes_.size()) return false;  // clean end
  if (bytes_.size() - pos_ < header) {
    tail_torn_ = true;  // partial frame header
    return false;
  }
  uint32_t len = 0;
  uint32_t crc = 0;
  std::memcpy(&len, bytes_.data() + pos_, sizeof(len));
  std::memcpy(&crc, bytes_.data() + pos_ + sizeof(len), sizeof(crc));
  if (len > bytes_.size() - pos_ - header) {
    tail_torn_ = true;  // record extends past end of file
    return false;
  }
  const char* payload = bytes_.data() + pos_ + header;
  if (dbt::Crc32(payload, len) != crc) {
    tail_torn_ = true;  // bit rot or torn write inside the record
    return false;
  }
  dbt::Deser d(payload, len);
  out->epoch = d.u64();
  if (!DeserializeBatch(&d, &out->batch).ok() || !d.done()) {
    // CRC passed but the payload doesn't decode: a framing/format bug or a
    // crafted record. Treat like a torn tail — stop at the valid prefix.
    tail_torn_ = true;
    return false;
  }
  pos_ += header + len;
  valid_bytes_ = pos_;
  return true;
}

// ---- recovery -----------------------------------------------------------

Result<RecoveryStats> ReplayLog(const std::string& path,
                                StreamEngine* engine) {
  RecoveryStats stats;
  BatchLogReader reader;
  Status open = reader.Open(path);
  if (open.code() == StatusCode::kNotFound) return stats;  // no log: no-op
  DBT_RETURN_IF_ERROR(open);

  BatchLogReader::Record rec;
  while (reader.Next(&rec)) {
    if (rec.epoch <= engine->epoch()) {
      ++stats.skipped;  // already captured by the checkpoint
      continue;
    }
    if (rec.epoch != engine->epoch() + 1) {
      return Status::Internal(StrFormat(
          "batch log: epoch gap during replay (log record %llu, engine at "
          "%llu) — log does not continue this checkpoint",
          static_cast<unsigned long long>(rec.epoch),
          static_cast<unsigned long long>(engine->epoch())));
    }
    DBT_RETURN_IF_ERROR(engine->ApplyBatch(std::move(rec.batch)));
    ++stats.replayed;
  }
  stats.valid_bytes = reader.valid_bytes();
  stats.tail_truncated = reader.tail_torn();
  return stats;
}

}  // namespace dbtoaster::runtime
