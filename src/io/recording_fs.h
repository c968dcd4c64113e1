// RecordingFileSystem: the test implementation of the io seam.
//
// It performs every operation on the real file system, so the code under
// test reads back what it wrote, but never fsyncs: durability is whatever
// the recorded operation log says. The log is the ordered list of durable
// operations a workload issued (creates, appends, file and directory
// syncs, mkdirs, renames, removes), from which a crash-point sweep can
// rebuild the directory a crash at any operation would have left.
//
// It also injects the failure modes a real disk exhibits, so recovery can
// be tested against provably-corrupt files instead of hand-crafted byte
// soup: torn writes (a crash mid-write persists only a prefix), bit flips,
// failed file fsyncs and failed directory fsyncs.

#ifndef CHRONICLE_IO_RECORDING_FS_H_
#define CHRONICLE_IO_RECORDING_FS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "io/file.h"

namespace chronicle {
namespace io {

// What a fault does once its trigger is reached.
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
  // Every SyncDir of a matching directory fails with kDataLoss.
  kFailDirSync,
};

struct FaultPlan {
  FaultKind kind = FaultKind::kNone;
  // Only files (kFailDirSync: directories) whose path contains this
  // substring are faulted; empty matches every path.
  std::string path_contains;
  // Byte offset, counted over all Appends to one file, at which a file
  // fault triggers. Each matching file counts its own bytes.
  uint64_t trigger_offset = 0;
  // For kBitFlip: which bit of the affected byte to flip.
  int bit = 0;
};

// One durable operation, in issue order.
struct FileOp {
  enum class Kind : uint8_t {
    kCreate,    // NewWritableFile: an empty file at `path`
    kAppend,    // `data` reached the end of `path`
    kSync,      // `path`'s content is durable
    kMakeDir,   // directory `path` created
    kSyncDir,   // the entries of directory `path` are durable
    kRename,    // `path` moved to `target`
    kRemove,    // `path` unlinked
  };
  Kind kind = Kind::kCreate;
  std::string path;
  std::string target;
  std::string data;
};

class RecordingFileSystem : public FileSystem {
 public:
  explicit RecordingFileSystem(FaultPlan plan = {}) : plan_(std::move(plan)) {}

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Status MakeDir(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;

  // The operations completed so far, in order.
  std::vector<FileOp> ops() const;
  bool fault_triggered() const { return triggered_.load(); }

 private:
  class File;

  bool Matches(const std::string& path) const;
  void Record(FileOp op);

  const FaultPlan plan_;
  std::atomic<bool> triggered_{false};
  mutable std::mutex mu_;
  std::vector<FileOp> ops_;
};

}  // namespace io
}  // namespace chronicle

#endif  // CHRONICLE_IO_RECORDING_FS_H_
