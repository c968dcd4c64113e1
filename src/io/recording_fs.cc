#include "io/recording_fs.h"

namespace chronicle {
namespace io {

// A real file (opened through the POSIX file system) whose appends and
// syncs are recorded and faulted according to the plan.
class RecordingFileSystem::File : public WritableFile {
 public:
  File(RecordingFileSystem* fs, std::string path,
       std::unique_ptr<WritableFile> base)
      : fs_(fs),
        path_(std::move(path)),
        base_(std::move(base)),
        kind_(fs->Matches(path_) ? fs->plan_.kind : FaultKind::kNone) {}

  Status Append(std::string_view data) override {
    const uint64_t start = bytes_offered_;
    bytes_offered_ += data.size();
    const uint64_t trigger = fs_->plan_.trigger_offset;
    std::string written(data);
    if (kind_ == FaultKind::kTornWrite) {
      if (torn_) return Status::OK();  // crashed: drop silently
      if (bytes_offered_ > trigger) {
        torn_ = true;
        fs_->triggered_ = true;
        written.resize(static_cast<size_t>(trigger > start ? trigger - start
                                                           : 0));
      }
    } else if (kind_ == FaultKind::kBitFlip && !flipped_ &&
               trigger >= start && trigger < bytes_offered_) {
      flipped_ = true;
      fs_->triggered_ = true;
      written[static_cast<size_t>(trigger - start)] ^=
          static_cast<char>(1u << (fs_->plan_.bit & 7));
    }
    CHRONICLE_RETURN_NOT_OK(base_->Append(written));
    fs_->Record({FileOp::Kind::kAppend, path_, "", std::move(written)});
    return Status::OK();
  }

  Status Sync() override {
    if (kind_ == FaultKind::kFailSync &&
        bytes_offered_ >= fs_->plan_.trigger_offset) {
      fs_->triggered_ = true;
      return Status::DataLoss("injected fsync failure");
    }
    // The recorded kSync is the durability; the OS only needs the bytes.
    CHRONICLE_RETURN_NOT_OK(base_->Flush());
    fs_->Record({FileOp::Kind::kSync, path_, "", ""});
    return Status::OK();
  }

  Status Flush() override { return base_->Flush(); }
  Status Close() override { return base_->Close(); }

 private:
  RecordingFileSystem* fs_;
  const std::string path_;
  std::unique_ptr<WritableFile> base_;
  const FaultKind kind_;
  uint64_t bytes_offered_ = 0;
  bool torn_ = false;
  bool flipped_ = false;
};

bool RecordingFileSystem::Matches(const std::string& path) const {
  return plan_.path_contains.empty() ||
         path.find(plan_.path_contains) != std::string::npos;
}

void RecordingFileSystem::Record(FileOp op) {
  std::lock_guard<std::mutex> lock(mu_);
  ops_.push_back(std::move(op));
}

std::vector<FileOp> RecordingFileSystem::ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

Result<std::unique_ptr<WritableFile>> RecordingFileSystem::NewWritableFile(
    const std::string& path) {
  CHRONICLE_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                             Posix().NewWritableFile(path));
  Record({FileOp::Kind::kCreate, path, "", ""});
  return std::unique_ptr<WritableFile>(
      std::make_unique<File>(this, path, std::move(base)));
}

Status RecordingFileSystem::MakeDir(const std::string& path) {
  CHRONICLE_RETURN_NOT_OK(Posix().MakeDir(path));
  Record({FileOp::Kind::kMakeDir, path, "", ""});
  return Status::OK();
}

Status RecordingFileSystem::SyncDir(const std::string& dir) {
  if (plan_.kind == FaultKind::kFailDirSync && Matches(dir)) {
    triggered_ = true;
    return Status::DataLoss("injected directory fsync failure on '" + dir +
                            "'");
  }
  Record({FileOp::Kind::kSyncDir, dir, "", ""});
  return Status::OK();
}

Status RecordingFileSystem::Rename(const std::string& from,
                                   const std::string& to) {
  CHRONICLE_RETURN_NOT_OK(Posix().Rename(from, to));
  Record({FileOp::Kind::kRename, from, to, ""});
  return Status::OK();
}

Status RecordingFileSystem::Remove(const std::string& path) {
  CHRONICLE_RETURN_NOT_OK(Posix().Remove(path));
  Record({FileOp::Kind::kRemove, path, "", ""});
  return Status::OK();
}

}  // namespace io
}  // namespace chronicle
