#include "src/runtime/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/codegen/dbt_serialize.h"
#include "src/common/str.h"

namespace dbtoaster::runtime {

namespace {

constexpr char kMagic[8] = {'D', 'B', 'T', 'C', 'K', 'P', 'T', '\n'};

CheckpointCrashPoint g_crash_point = CheckpointCrashPoint::kNone;

Status ReadFileBytes(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound(
        StrFormat("checkpoint: cannot open '%s': %s", path.c_str(),
                  std::strerror(errno)));
  }
  out->clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return Status::Internal(StrFormat("checkpoint: read '%s' failed: %s",
                                        path.c_str(), std::strerror(err)));
    }
    if (n == 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal(StrFormat("checkpoint: cannot create '%s': %s",
                                      tmp.c_str(), std::strerror(errno)));
  }
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::Internal(StrFormat("checkpoint: write '%s' failed: %s",
                                        tmp.c_str(), std::strerror(err)));
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::Internal(StrFormat("checkpoint: fsync '%s' failed: %s",
                                      tmp.c_str(), std::strerror(err)));
  }
  ::close(fd);
  if (g_crash_point == CheckpointCrashPoint::kAfterTmpFsync) {
    // Simulated crash: the tmp file is durable but the rename never happens.
    // The tmp file is deliberately left behind, as a real crash would.
    g_crash_point = CheckpointCrashPoint::kNone;
    return Status::Internal(
        StrFormat("checkpoint: injected crash after tmp fsync, before rename "
                  "('%s' left behind)",
                  tmp.c_str()));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return Status::Internal(StrFormat("checkpoint: rename to '%s' failed: %s",
                                      path.c_str(), std::strerror(err)));
  }
  // The rename is only durable once the directory entry itself reaches disk;
  // without this a crash after rename can roll back to the old (or no)
  // checkpoint despite the atomic-write contract.
  return FsyncParentDir(path);
}

/// Validate magic + CRC and return the body byte range [8, n-4).
Status CheckEnvelope(const std::string& path, const std::string& bytes,
                     const char** body, size_t* body_len) {
  if (bytes.size() < sizeof(kMagic) + sizeof(uint32_t) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError(
        StrFormat("checkpoint: '%s' is not a snapshot (bad magic or "
                  "truncated header)",
                  path.c_str()));
  }
  *body = bytes.data() + sizeof(kMagic);
  *body_len = bytes.size() - sizeof(kMagic) - sizeof(uint32_t);
  uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  const uint32_t actual = dbt::Crc32(*body, *body_len);
  if (stored != actual) {
    return Status::ParseError(
        StrFormat("checkpoint: '%s' failed CRC check (stored %08x, "
                  "computed %08x) — torn or corrupted snapshot",
                  path.c_str(), stored, actual));
  }
  return Status::OK();
}

}  // namespace

Status FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string dir;
  if (slash == std::string::npos) {
    dir = ".";
  } else if (slash == 0) {
    dir = "/";
  } else {
    dir = path.substr(0, slash);
  }
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal(StrFormat("fsync dir: cannot open '%s': %s",
                                      dir.c_str(), std::strerror(errno)));
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(StrFormat("fsync dir '%s' failed: %s", dir.c_str(),
                                      std::strerror(err)));
  }
  ::close(fd);
  return Status::OK();
}

void SetCheckpointCrashForTesting(CheckpointCrashPoint point) {
  g_crash_point = point;
}

Status WriteCheckpoint(const std::string& path, const StreamEngine& engine) {
  dbt::Ser payload;
  DBT_RETURN_IF_ERROR(engine.SaveState(&payload));

  dbt::Ser body;
  body.u32(kCheckpointVersion);
  body.str(engine.Name());
  body.u64(engine.epoch());
  body.str(payload.data());

  std::string bytes;
  bytes.reserve(sizeof(kMagic) + body.size() + sizeof(uint32_t));
  bytes.append(kMagic, sizeof(kMagic));
  bytes.append(body.data());
  const uint32_t crc = dbt::Crc32(body.data().data(), body.size());
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));

  return WriteFileAtomic(path, bytes);
}

Result<CheckpointMeta> ReadCheckpointMeta(const std::string& path) {
  std::string bytes;
  DBT_RETURN_IF_ERROR(ReadFileBytes(path, &bytes));
  const char* body = nullptr;
  size_t body_len = 0;
  DBT_RETURN_IF_ERROR(CheckEnvelope(path, bytes, &body, &body_len));

  dbt::Deser d(body, body_len);
  CheckpointMeta meta;
  meta.version = d.u32();
  meta.engine_name = d.str();
  meta.epoch = d.u64();
  (void)d.str();  // payload
  if (!d.done()) {
    return Status::ParseError(
        StrFormat("checkpoint: '%s' body does not decode", path.c_str()));
  }
  return meta;
}

Status RestoreCheckpoint(const std::string& path, StreamEngine* engine) {
  std::string bytes;
  DBT_RETURN_IF_ERROR(ReadFileBytes(path, &bytes));
  const char* body = nullptr;
  size_t body_len = 0;
  DBT_RETURN_IF_ERROR(CheckEnvelope(path, bytes, &body, &body_len));

  dbt::Deser d(body, body_len);
  const uint32_t version = d.u32();
  const std::string name = d.str();
  const uint64_t epoch = d.u64();
  const std::string payload = d.str();
  if (!d.done()) {
    return Status::ParseError(
        StrFormat("checkpoint: '%s' body does not decode", path.c_str()));
  }
  if (version != kCheckpointVersion) {
    return Status::NotSupported(
        StrFormat("checkpoint: '%s' has format version %u, this build "
                  "reads version %u",
                  path.c_str(), version, kCheckpointVersion));
  }
  if (name != engine->Name()) {
    return Status::InvalidArgument(
        StrFormat("checkpoint: '%s' was written by engine '%s', cannot "
                  "restore into '%s'",
                  path.c_str(), name.c_str(), engine->Name().c_str()));
  }

  dbt::Deser state(payload);
  DBT_RETURN_IF_ERROR(engine->LoadState(&state));
  if (!state.done()) {
    return Status::ParseError(
        StrFormat("checkpoint: '%s' payload has trailing bytes after "
                  "restore — snapshot/engine format mismatch",
                  path.c_str()));
  }
  return engine->ResumeAt(epoch);
}

}  // namespace dbtoaster::runtime
