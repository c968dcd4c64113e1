#include "io/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

namespace chronicle {
namespace io {

namespace {

Status OsError(const std::string& what, const std::string& path) {
  return Status::DataLoss(what + " of '" + path +
                          "' failed: " + std::strerror(errno));
}

// Buffered stdio-backed file: fwrite batches small record appends, Sync
// does fflush + fsync. The default 4 KiB stdio buffer would flush every
// couple of frames; widen it so group commit batches syscalls too.
constexpr size_t kStdioBufferBytes = 64 << 10;

class PosixWritableFile : public WritableFile {
 public:
  explicit PosixWritableFile(std::FILE* f, std::string path)
      : file_(f), path_(std::move(path)) {
    buffer_.resize(kStdioBufferBytes);
    std::setvbuf(file_, buffer_.data(), _IOFBF, buffer_.size());
  }

  ~PosixWritableFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Append(std::string_view data) override {
    if (file_ == nullptr) {
      return Status::FailedPrecondition("write to closed file " + path_);
    }
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return Status::DataLoss("short write to '" + path_ +
                              "': " + std::strerror(errno));
    }
    return Status::OK();
  }

  Status Flush() override {
    if (file_ != nullptr && std::fflush(file_) != 0) {
      return Status::DataLoss("fflush of '" + path_ +
                              "' failed: " + std::strerror(errno));
    }
    return Status::OK();
  }

  Status Sync() override {
    CHRONICLE_RETURN_NOT_OK(Flush());
    if (file_ != nullptr && ::fsync(::fileno(file_)) != 0) {
      return Status::DataLoss("fsync of '" + path_ +
                              "' failed: " + std::strerror(errno));
    }
    return Status::OK();
  }

  Status Close() override {
    if (file_ == nullptr) return Status::OK();
    const int rc = std::fclose(file_);
    file_ = nullptr;
    if (rc != 0) {
      return Status::DataLoss("close of '" + path_ +
                              "' failed: " + std::strerror(errno));
    }
    return Status::OK();
  }

 private:
  std::FILE* file_;
  std::string path_;
  std::vector<char> buffer_;  // must outlive file_ (setvbuf)
};

class PosixFileSystem : public FileSystem {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      return Status::InvalidArgument("cannot open '" + path +
                                     "' for writing: " + std::strerror(errno));
    }
    return std::unique_ptr<WritableFile>(
        std::make_unique<PosixWritableFile>(f, path));
  }

  Status MakeDir(const std::string& path) override {
    if (::mkdir(path.c_str(), 0755) == 0) return Status::OK();
    if (errno == EEXIST) return Status::AlreadyExists(path);
    return OsError("mkdir", path);
  }

  Status SyncDir(const std::string& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return OsError("open directory", dir);
    const int rc = ::fsync(fd);
    Status st = rc == 0 ? Status::OK() : OsError("fsync directory", dir);
    ::close(fd);
    return st;
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) == 0) return Status::OK();
    return OsError("rename to '" + to + "'", from);
  }

  Status Remove(const std::string& path) override {
    if (::unlink(path.c_str()) == 0) return Status::OK();
    if (errno == ENOENT) return Status::NotFound(path);
    return OsError("unlink", path);
  }
};

std::atomic<FileSystem*> g_file_system{nullptr};

Status WriteAndSync(FileSystem& fs, const std::string& path,
                    std::string_view data) {
  CHRONICLE_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                             fs.NewWritableFile(path));
  CHRONICLE_RETURN_NOT_OK(f->Append(data));
  CHRONICLE_RETURN_NOT_OK(f->Sync());
  return f->Close();
}

bool IsDirectory(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

}  // namespace

FileSystem& Posix() {
  static PosixFileSystem posix;
  return posix;
}

FileSystem& Fs() {
  FileSystem* fs = g_file_system.load(std::memory_order_acquire);
  return fs != nullptr ? *fs : Posix();
}

FileSystem* SetFileSystem(FileSystem* fs) {
  return g_file_system.exchange(fs, std::memory_order_acq_rel);
}

std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

Status AtomicWriteFile(const std::string& path, std::string_view data) {
  FileSystem& fs = Fs();
  const std::string tmp = path + kTempSuffix;
  Status written = WriteAndSync(fs, tmp, data);
  if (written.ok()) written = fs.Rename(tmp, path);
  if (!written.ok()) {
    (void)fs.Remove(tmp);
    return written;
  }
  // Make the rename itself durable.
  return fs.SyncDir(DirName(path));
}

Status CreateDirs(const std::string& dir) {
  if (dir.empty()) return Status::InvalidArgument("empty directory path");
  FileSystem& fs = Fs();
  size_t pos = 0;
  while (pos <= dir.size()) {
    const size_t slash = dir.find('/', pos);
    const std::string path =
        slash == std::string::npos ? dir : dir.substr(0, slash);
    pos = slash == std::string::npos ? dir.size() + 1 : slash + 1;
    if (path.empty() || IsDirectory(path)) continue;  // leading '/'
    Status made = fs.MakeDir(path);
    if (made.IsAlreadyExists()) continue;  // lost a race with another mkdir
    CHRONICLE_RETURN_NOT_OK(made);
    CHRONICLE_RETURN_NOT_OK(fs.SyncDir(DirName(path)));
  }
  return Status::OK();
}

Status RemoveStrayTemps(const std::string& dir) {
  CHRONICLE_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir));
  const size_t suffix = std::strlen(kTempSuffix);
  for (const std::string& name : names) {
    if (name.size() > suffix &&
        name.compare(name.size() - suffix, suffix, kTempSuffix) == 0) {
      Status removed = Fs().Remove(dir + "/" + name);
      if (!removed.ok() && !removed.IsNotFound()) return removed;
    }
  }
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::DataLoss("read error on '" + path + "'");
  return data;
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return names;  // missing directory: nothing to list
  for (const auto& entry : it) {
    if (entry.is_regular_file(ec)) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace io
}  // namespace chronicle
