#include "wal/wal_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <vector>

namespace chronicle {
namespace wal {

namespace {

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

}  // namespace

Result<std::unique_ptr<WritableFile>> OpenWritableFile(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open '" + path +
                                   "' for writing: " + std::strerror(errno));
  }
  return std::unique_ptr<WritableFile>(
      std::make_unique<PosixWritableFile>(f, path));
}

Status FaultInjectingFile::Append(std::string_view data) {
  const uint64_t start = bytes_offered_;
  bytes_offered_ += data.size();
  switch (plan_.kind) {
    case FaultKind::kNone:
    case FaultKind::kFailSync:
      return base_->Append(data);
    case FaultKind::kTornWrite: {
      if (triggered_) return Status::OK();  // crashed: drop silently
      if (bytes_offered_ <= plan_.trigger_offset) return base_->Append(data);
      triggered_ = true;
      const size_t keep = static_cast<size_t>(
          plan_.trigger_offset > start ? plan_.trigger_offset - start : 0);
      return base_->Append(data.substr(0, keep));
    }
    case FaultKind::kBitFlip: {
      if (triggered_ || plan_.trigger_offset < start ||
          plan_.trigger_offset >= bytes_offered_) {
        return base_->Append(data);
      }
      triggered_ = true;
      std::string mutated(data);
      mutated[static_cast<size_t>(plan_.trigger_offset - start)] ^=
          static_cast<char>(1u << (plan_.bit & 7));
      return base_->Append(mutated);
    }
  }
  return Status::Internal("unreachable fault kind");
}

Status FaultInjectingFile::Sync() {
  if (plan_.kind == FaultKind::kFailSync &&
      bytes_offered_ >= plan_.trigger_offset) {
    triggered_ = true;
    return Status::DataLoss("injected fsync failure");
  }
  return base_->Sync();
}

Status FaultInjectingFile::Flush() { return base_->Flush(); }

Status FaultInjectingFile::Close() { return base_->Close(); }

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) return Status::DataLoss("read error on '" + path + "'");
  return data;
}

namespace {

Status WriteAndSync(const std::string& path, std::string_view data) {
  CHRONICLE_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                             OpenWritableFile(path));
  CHRONICLE_RETURN_NOT_OK(f->Append(data));
  CHRONICLE_RETURN_NOT_OK(f->Sync());
  return f->Close();
}

}  // namespace

Status AtomicWriteFile(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  Status written = WriteAndSync(tmp, data);
  if (written.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    written = Status::DataLoss("rename '" + tmp + "' -> '" + path +
                               "' failed: " + std::strerror(errno));
  }
  if (!written.ok()) {
    ::unlink(tmp.c_str());
    return written;
  }
  // Make the rename itself durable.
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

}  // namespace wal
}  // namespace chronicle
