// Durable engine snapshots: a versioned, checksummed binary envelope around
// StreamEngine::SaveState/LoadState.
//
// File layout (little-endian):
//
//   bytes [0, 8)    magic "DBTCKPT\n"
//   bytes [8, n-4)  body, Ser-encoded:
//                     u32  format version (kCheckpointVersion)
//                     str  engine name (Name() of the writing engine)
//                     u64  epoch (successfully applied ingest calls)
//                     str  engine-specific state payload (SaveState output)
//   bytes [n-4, n)  u32 CRC-32 over bytes [8, n-4)
//
// Writes are atomic: the snapshot is written to `<path>.tmp`, fsync'd,
// renamed over `path`, and the parent directory is fsync'd so the rename
// itself is durable; a crash mid-checkpoint leaves the previous snapshot
// intact. Restore verifies magic, CRC, version and engine name
// before any state is touched, and requires the payload to decode exactly
// (no trailing bytes), so a torn or bit-flipped snapshot is rejected with a
// Status instead of silently corrupting views.
//
// The envelope owns the epoch: RestoreCheckpoint sets the engine's epoch
// cursor (StreamEngine::ResumeAt, which also republishes a serving engine's
// views), and the batch-log replay (src/runtime/batch_log.h) then uses it
// for exactly-once recovery.
#ifndef DBTOASTER_RUNTIME_CHECKPOINT_H_
#define DBTOASTER_RUNTIME_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/runtime/stream_engine.h"

namespace dbtoaster::runtime {

inline constexpr uint32_t kCheckpointVersion = 1;

/// Envelope fields of a snapshot, readable without restoring it.
struct CheckpointMeta {
  uint32_t version = 0;
  std::string engine_name;
  uint64_t epoch = 0;
};

/// Snapshot `engine`'s state to `path` (atomic tmp + fsync + rename +
/// parent-directory fsync).
Status WriteCheckpoint(const std::string& path, const StreamEngine& engine);

/// fsync the directory containing `path`, making a just-completed rename or
/// create of `path` durable. Shared by checkpoint and batch-log writers.
Status FsyncParentDir(const std::string& path);

/// Crash injection for durability tests: the next WriteCheckpoint aborts at
/// the chosen point (one-shot; resets to kNone once it fires).
enum class CheckpointCrashPoint {
  kNone,
  kAfterTmpFsync,  // tmp file written + fsync'd, rename not yet issued
};
void SetCheckpointCrashForTesting(CheckpointCrashPoint point);

/// Validate the envelope (magic, CRC, version) and return its fields.
Result<CheckpointMeta> ReadCheckpointMeta(const std::string& path);

/// Restore `engine` from the snapshot at `path`. The engine must be
/// freshly constructed the same way as the writer (same program / queries):
/// snapshots carry dynamic state, not query registration. On success the
/// engine's epoch equals the snapshot's. Rejects wrong-engine snapshots by
/// name.
Status RestoreCheckpoint(const std::string& path, StreamEngine* engine);

}  // namespace dbtoaster::runtime

#endif  // DBTOASTER_RUNTIME_CHECKPOINT_H_
