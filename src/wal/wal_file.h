// File primitives for the write-ahead log.
//
// WritableFile is the narrow interface the log writer needs: append bytes,
// force them to stable storage, close. The production implementation is a
// buffered POSIX file; FaultInjectingFile wraps any WritableFile and
// simulates the failure modes a real disk exhibits — torn writes (a crash
// mid-write persists only a prefix), bit flips, and failed fsyncs — so the
// recovery path can be tested against provably-corrupt logs instead of
// hand-crafted byte soup.

#ifndef CHRONICLE_WAL_WAL_FILE_H_
#define CHRONICLE_WAL_WAL_FILE_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace chronicle {
namespace wal {

class WritableFile {
 public:
  virtual ~WritableFile() = default;

  // Appends `data` at the end of the file. Durability is NOT implied;
  // call Sync() for that.
  virtual Status Append(std::string_view data) = 0;
  // Flushes library buffers and fsyncs the file to stable storage.
  virtual Status Sync() = 0;
  // Flushes library buffers to the OS without fsync.
  virtual Status Flush() = 0;
  virtual Status Close() = 0;
};

// Opens (creating or truncating) a buffered POSIX file for appending.
Result<std::unique_ptr<WritableFile>> OpenWritableFile(const std::string& path);

// Pluggable factory so tests can substitute fault-injecting files for the
// log writer's segments.
using FileFactory =
    std::function<Result<std::unique_ptr<WritableFile>>(const std::string&)>;

// What a FaultInjectingFile does once its trigger point is reached.
enum class FaultKind : uint8_t {
  kNone = 0,
  // The write that crosses the trigger offset persists only up to it; every
  // later byte (including later Appends) is silently dropped, as if the
  // process died mid-write. Sync/Close still report success — exactly the
  // lie a crashed machine tells.
  kTornWrite,
  // One bit of the byte crossing the trigger offset is flipped in flight;
  // writing continues normally afterwards.
  kBitFlip,
  // Writes pass through untouched but every Sync() past the trigger offset
  // fails with kDataLoss (e.g. a dying device).
  kFailSync,
};

struct FaultPlan {
  FaultKind kind = FaultKind::kNone;
  // Byte offset (counted over all Appends to this file) at which the fault
  // triggers.
  uint64_t trigger_offset = 0;
  // For kBitFlip: which bit of the affected byte to flip.
  int bit = 0;
};

// Wraps a real file and injects the planned fault. The wrapper also counts
// bytes written so tests can place faults on exact record boundaries.
class FaultInjectingFile : public WritableFile {
 public:
  FaultInjectingFile(std::unique_ptr<WritableFile> base, FaultPlan plan)
      : base_(std::move(base)), plan_(plan) {}

  Status Append(std::string_view data) override;
  Status Sync() override;
  Status Flush() override;
  Status Close() override;

  uint64_t bytes_offered() const { return bytes_offered_; }
  bool fault_triggered() const { return triggered_; }

 private:
  std::unique_ptr<WritableFile> base_;
  FaultPlan plan_;
  uint64_t bytes_offered_ = 0;
  bool triggered_ = false;
};

// Reads a whole file into a string. NotFound if the file does not exist.
Result<std::string> ReadFileToString(const std::string& path);

// Writes `data` to `path` atomically: write `path` + ".tmp" in the same
// directory, fsync it, rename it over the target, then fsync the directory
// so the rename itself is durable. A crash leaves either the old file or
// the new one, never a torn mixture; a failure unlinks the temp file and
// leaves the old file untouched. The one durable whole-file write path
// (WAL checkpoints, store segments, CQL CHECKPOINT TO).
Status AtomicWriteFile(const std::string& path, std::string_view data);

}  // namespace wal
}  // namespace chronicle

#endif  // CHRONICLE_WAL_WAL_FILE_H_
