// Durable file I/O: the one layer every file the system persists goes
// through — WAL segments and checkpoints, warm-tier segments, CQL
// `CHECKPOINT TO` images, and flight-recorder dumps.
//
// FileSystem is the seam: the handful of primitives whose ordering decides
// what survives a crash (create a file for appending, make a directory,
// fsync a directory, rename, remove). The process-wide instance is a plain
// POSIX implementation; tests install a RecordingFileSystem
// (io/recording_fs.h) to inject faults or to record the ordered operations
// of a workload and replay every crash point.
//
// The helpers below are built on the seam, so they are recorded and
// fault-injectable too:
//
//   * AtomicWriteFile — temp file, fsync, rename, directory fsync;
//   * CreateDirs      — mkdir -p that makes each new entry durable;
//   * RemoveStrayTemps — deletes the temp files a crash mid-write leaves;
//   * ReadFile / ListDir — whole-file read and directory listing (reads are
//     not durable operations and go straight to the OS).
//
// Directory syncs follow one rule: a create, rename or remove inside a
// directory that recovery lists is followed by an fsync of that directory
// before anything depends on it.

#ifndef CHRONICLE_IO_FILE_H_
#define CHRONICLE_IO_FILE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace chronicle {
namespace io {

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

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  // Creates (or truncates) `path` and opens it for appending.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;
  // Creates the single directory `path`; AlreadyExists if it is there.
  virtual Status MakeDir(const std::string& path) = 0;
  // fsyncs directory `dir`, making the creates, renames and removes of its
  // entries durable.
  virtual Status SyncDir(const std::string& dir) = 0;
  // Atomically replaces `to` with `from` (same file system).
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  // Removes the file `path`; NotFound if it does not exist.
  virtual Status Remove(const std::string& path) = 0;
};

// The file system every durable operation goes through.
FileSystem& Fs();
// The POSIX file system (the default Fs()).
FileSystem& Posix();

// Test seam: routes every later durable operation through `fs` (nullptr
// restores the POSIX default) and returns the previous instance. Files
// opened before the swap keep writing through the instance that opened
// them. Install only while no other thread performs durable I/O.
FileSystem* SetFileSystem(FileSystem* fs);

// Installs a file system for one scope.
class ScopedFileSystem {
 public:
  explicit ScopedFileSystem(FileSystem* fs) : previous_(SetFileSystem(fs)) {}
  ~ScopedFileSystem() { SetFileSystem(previous_); }
  ScopedFileSystem(const ScopedFileSystem&) = delete;
  ScopedFileSystem& operator=(const ScopedFileSystem&) = delete;

 private:
  FileSystem* previous_;
};

// Suffix of a file mid-AtomicWriteFile. Such a file is never data: a crash
// leaves it behind, and RemoveStrayTemps deletes it.
inline constexpr char kTempSuffix[] = ".tmp";

// "<dir>" part of "<dir>/<name>" ("." for a bare name).
std::string DirName(const std::string& path);

// Writes `data` to `path` atomically: write `path` + kTempSuffix, fsync
// it, rename it over the target, then fsync the directory so the rename
// itself is durable. A crash leaves either the old file or the new one,
// never a torn mixture. A failure before the rename unlinks the temp file
// and leaves the old file untouched; a failed directory fsync is reported
// (the new file is in place, but its durability is unknown).
Status AtomicWriteFile(const std::string& path, std::string_view data);

// mkdir -p. Every directory it creates is made durable by an fsync of its
// parent; existing directories cost one stat each and no sync.
Status CreateDirs(const std::string& dir);

// Removes every `*kTempSuffix` file directly inside `dir`.
Status RemoveStrayTemps(const std::string& dir);

// Reads a whole file. NotFound if it does not exist.
Result<std::string> ReadFile(const std::string& path);

// Names of the regular files directly inside `dir`, sorted. A missing
// directory lists as empty.
Result<std::vector<std::string>> ListDir(const std::string& dir);

}  // namespace io
}  // namespace chronicle

#endif  // CHRONICLE_IO_FILE_H_
