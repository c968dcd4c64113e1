#include "wal/wal.h"

#include <algorithm>
#include <cstring>

#include "checkpoint/checkpoint.h"
#include "common/crc32.h"
#include "common/stopwatch.h"

namespace chronicle {
namespace wal {

namespace {

constexpr uint32_t kSegmentMagic = 0x4357414C;     // "CWAL"
constexpr uint32_t kSegmentVersion = 1;
constexpr size_t kSegmentHeaderBytes = 16;         // magic, version, first_lsn
constexpr uint32_t kCheckpointMagic = 0x43434B50;  // "CCKP"
constexpr uint32_t kCheckpointVersion = 1;

void PutU32(std::string* out, uint32_t v) {
  char bytes[4];
  std::memcpy(bytes, &v, 4);
  out->append(bytes, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char bytes[8];
  std::memcpy(bytes, &v, 8);
  out->append(bytes, 8);
}

uint32_t GetU32(const std::string& data, size_t pos) {
  uint32_t v;
  std::memcpy(&v, data.data() + pos, 4);
  return v;
}

uint64_t GetU64(const std::string& data, size_t pos) {
  uint64_t v;
  std::memcpy(&v, data.data() + pos, 8);
  return v;
}

// Parses the zero-padded decimal LSN out of "<prefix><lsn><suffix>".
bool ParseLsnFileName(const std::string& name, const std::string& prefix,
                      const std::string& suffix, uint64_t* lsn) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *lsn = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

Result<std::vector<WalDirEntry>> ListByPattern(const std::string& dir,
                                               const std::string& prefix,
                                               const std::string& suffix) {
  CHRONICLE_ASSIGN_OR_RETURN(std::vector<std::string> names,
                             io::ListDir(dir));
  std::vector<WalDirEntry> entries;
  for (const std::string& name : names) {
    uint64_t lsn = 0;
    if (ParseLsnFileName(name, prefix, suffix, &lsn)) {
      entries.push_back({dir + "/" + name, lsn});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const WalDirEntry& a, const WalDirEntry& b) {
              return a.lsn < b.lsn;
            });
  return entries;
}

std::string FormatLsn(uint64_t lsn) {
  std::string digits = std::to_string(lsn);
  return std::string(20 - std::min<size_t>(20, digits.size()), '0') + digits;
}

}  // namespace

std::string WalSegmentFileName(uint64_t first_lsn) {
  return "wal-" + FormatLsn(first_lsn) + ".log";
}

std::string CheckpointFileName(uint64_t watermark) {
  return "checkpoint-" + FormatLsn(watermark) + ".ckpt";
}

Result<std::vector<WalDirEntry>> ListWalSegments(const std::string& dir) {
  return ListByPattern(dir, "wal-", ".log");
}

Result<std::vector<WalDirEntry>> ListCheckpoints(const std::string& dir) {
  return ListByPattern(dir, "checkpoint-", ".ckpt");
}

Result<SegmentContents> ReadSegment(const std::string& path) {
  CHRONICLE_ASSIGN_OR_RETURN(std::string data, io::ReadFile(path));
  SegmentContents seg;
  uint64_t name_lsn = 0;
  if (!ParseLsnFileName(path.substr(path.find_last_of('/') + 1), "wal-",
                        ".log", &name_lsn)) {
    return Status::InvalidArgument("'" + path + "' is not a wal segment name");
  }
  seg.first_lsn = name_lsn;
  if (data.size() < kSegmentHeaderBytes) {
    seg.corruption_detail = "truncated segment header";
    return seg;
  }
  if (GetU32(data, 0) != kSegmentMagic) {
    seg.corruption_detail = "bad segment magic";
    return seg;
  }
  if (GetU32(data, 4) != kSegmentVersion) {
    seg.corruption_detail = "unsupported segment version";
    return seg;
  }
  if (GetU64(data, 8) != name_lsn) {
    seg.corruption_detail = "segment header/name first_lsn mismatch";
    return seg;
  }

  size_t pos = kSegmentHeaderBytes;
  while (pos < data.size()) {
    if (data.size() - pos < 8) {
      seg.corruption_detail = "truncated frame header at offset " +
                              std::to_string(pos);
      return seg;
    }
    const uint32_t len = GetU32(data, pos);
    const uint32_t crc = GetU32(data, pos + 4);
    if (len > data.size() - pos - 8) {
      seg.corruption_detail = "truncated frame body at offset " +
                              std::to_string(pos);
      return seg;
    }
    const std::string payload = data.substr(pos + 8, len);
    if (Crc32c(payload) != crc) {
      seg.corruption_detail = "crc mismatch at offset " + std::to_string(pos);
      return seg;
    }
    Result<WalRecord> record = DecodeWalRecord(payload);
    if (!record.ok()) {
      // CRC matched but the payload does not decode: writer-side damage.
      seg.corruption_detail = "undecodable record at offset " +
                              std::to_string(pos) + ": " +
                              record.status().message();
      return seg;
    }
    if (record->lsn != seg.first_lsn + seg.records.size()) {
      seg.corruption_detail =
          "lsn discontinuity at offset " + std::to_string(pos) + ": got " +
          std::to_string(record->lsn) + ", expected " +
          std::to_string(seg.first_lsn + seg.records.size());
      return seg;
    }
    seg.records.push_back(std::move(record).value());
    pos += 8 + len;
  }
  seg.clean = true;
  return seg;
}

Status ReplayWal(const std::string& dir, uint64_t watermark,
                 const std::function<Status(const WalRecord&)>& apply,
                 WalReplayStats* stats) {
  WalReplayStats local;
  WalReplayStats* out = stats != nullptr ? stats : &local;
  *out = WalReplayStats{};
  CHRONICLE_ASSIGN_OR_RETURN(std::vector<WalDirEntry> segments,
                             ListWalSegments(dir));
  uint64_t next_needed = watermark + 1;  // next LSN the database is missing
  for (size_t i = 0; i < segments.size(); ++i) {
    CHRONICLE_ASSIGN_OR_RETURN(SegmentContents seg,
                               ReadSegment(segments[i].path));
    if (seg.first_lsn > next_needed) {
      return Status::DataLoss("wal gap: segment " + segments[i].path +
                              " starts at lsn " +
                              std::to_string(seg.first_lsn) + " but lsn " +
                              std::to_string(next_needed) + " is missing");
    }
    for (const WalRecord& record : seg.records) {
      ++out->records_seen;
      if (record.lsn < next_needed) {
        ++out->records_skipped;
        continue;
      }
      Status applied = apply(record);
      if (!applied.ok()) {
        return Status(applied.code(), "replaying wal lsn " +
                                          std::to_string(record.lsn) + ": " +
                                          applied.message());
      }
      ++out->records_applied;
      next_needed = record.lsn + 1;
    }
    if (!seg.clean) {
      const uint64_t valid_end = seg.first_lsn + seg.records.size();
      // A successor segment may legitimately take over exactly where the
      // valid prefix ends (the log was re-opened after a crash). Anything
      // else means records were lost in the middle of the log.
      const bool superseded =
          i + 1 < segments.size() && segments[i + 1].lsn <= valid_end;
      if (!superseded) {
        if (i + 1 < segments.size()) {
          return Status::DataLoss("corrupt record inside the log (" +
                                  segments[i].path + ": " +
                                  seg.corruption_detail + ") with " +
                                  std::to_string(segments.size() - i - 1) +
                                  " newer segment(s) after it");
        }
        out->tail_truncated = true;
        out->tail_detail = segments[i].path + ": " + seg.corruption_detail;
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

std::string WrapCheckpointImage(uint64_t watermark, const std::string& image) {
  std::string out;
  out.reserve(image.size() + 28);
  PutU32(&out, kCheckpointMagic);
  PutU32(&out, kCheckpointVersion);
  PutU64(&out, watermark);
  PutU64(&out, image.size());
  PutU32(&out, Crc32c(image));
  out += image;
  return out;
}

Result<UnwrappedCheckpoint> UnwrapCheckpointImage(const std::string& bytes) {
  if (bytes.size() < 28) {
    return Status::DataLoss("checkpoint file truncated");
  }
  if (GetU32(bytes, 0) != kCheckpointMagic) {
    return Status::DataLoss("bad checkpoint magic");
  }
  if (GetU32(bytes, 4) != kCheckpointVersion) {
    return Status::DataLoss("unsupported checkpoint wrapper version " +
                            std::to_string(GetU32(bytes, 4)));
  }
  UnwrappedCheckpoint out;
  out.watermark = GetU64(bytes, 8);
  const uint64_t len = GetU64(bytes, 16);
  if (len != bytes.size() - 28) {
    return Status::DataLoss("checkpoint length mismatch");
  }
  const uint32_t crc = GetU32(bytes, 24);
  out.image = bytes.substr(28);
  if (Crc32c(out.image) != crc) {
    return Status::DataLoss("checkpoint crc mismatch");
  }
  return out;
}

// --- Wal ---

Wal::Wal(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {}

Wal::~Wal() {
  if (!closed_ && file_ != nullptr) (void)Close();
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& dir,
                                       WalOptions options) {
  Status created = io::CreateDirs(dir);
  if (!created.ok()) {
    return Status::InvalidArgument("cannot create wal directory '" + dir +
                                   "': " + created.message());
  }
  // A crash mid-checkpoint leaves its temp file; it never holds data.
  CHRONICLE_RETURN_NOT_OK(io::RemoveStrayTemps(dir));
  std::unique_ptr<Wal> wal(new Wal(dir, std::move(options)));

  // Resume the LSN sequence past everything already on disk, so a re-opened
  // log never reuses an LSN a checkpoint or a valid record already claims.
  uint64_t max_lsn = 0;
  CHRONICLE_ASSIGN_OR_RETURN(std::vector<WalDirEntry> segments,
                             ListWalSegments(dir));
  for (const WalDirEntry& entry : segments) {
    CHRONICLE_ASSIGN_OR_RETURN(SegmentContents seg, ReadSegment(entry.path));
    if (!seg.records.empty()) {
      max_lsn = std::max(max_lsn, seg.first_lsn + seg.records.size() - 1);
    }
  }
  CHRONICLE_ASSIGN_OR_RETURN(std::vector<WalDirEntry> checkpoints,
                             ListCheckpoints(dir));
  for (const WalDirEntry& entry : checkpoints) {
    max_lsn = std::max(max_lsn, entry.lsn);
  }
  wal->next_lsn_ = max_lsn + 1;
  wal->last_synced_lsn_ = max_lsn;
  CHRONICLE_RETURN_NOT_OK(wal->OpenSegment(wal->next_lsn_));
  return wal;
}

Status Wal::OpenSegment(uint64_t first_lsn) {
  if (file_ != nullptr) {
    CHRONICLE_RETURN_NOT_OK(Sync());
    CHRONICLE_RETURN_NOT_OK(file_->Close());
    file_.reset();
  }
  // Until the new segment is in place the log takes no records: one
  // without its header would be unreadable.
  closed_ = true;
  const std::string path = dir_ + "/" + WalSegmentFileName(first_lsn);
  CHRONICLE_ASSIGN_OR_RETURN(std::unique_ptr<io::WritableFile> file,
                             io::Fs().NewWritableFile(path));
  // Recovery finds segments by listing the directory: the new entry must
  // be durable before any record in it is acknowledged.
  CHRONICLE_RETURN_NOT_OK(io::Fs().SyncDir(dir_));
  std::string header;
  PutU32(&header, kSegmentMagic);
  PutU32(&header, kSegmentVersion);
  PutU64(&header, first_lsn);
  CHRONICLE_RETURN_NOT_OK(file->Append(header));
  file_ = std::move(file);
  closed_ = false;
  segment_bytes_written_ = header.size();
  ++stats_.segments_created;
  return Status::OK();
}

Result<uint64_t> Wal::Log(WalRecord record) {
  if (closed_) return Status::FailedPrecondition("wal is closed");
  record.lsn = next_lsn_;
  return LogPayload(EncodeWalRecord(record));
}

Result<uint64_t> Wal::LogAppend(SeqNum sn, Chronon chronon,
                                const std::vector<AppendBatchRef>& batches) {
  if (closed_) return Status::FailedPrecondition("wal is closed");
  return LogPayload(EncodeAppendRecord(next_lsn_, sn, chronon, batches));
}

Result<uint64_t> Wal::LogAppendGroup(const std::vector<AppendTickRef>& ticks) {
  if (closed_) return Status::FailedPrecondition("wal is closed");
  if (ticks.empty()) return Status::InvalidArgument("empty append group");
  ++stats_.group_commits;
  stats_.group_commit_ticks += ticks.size();
  uint64_t last_lsn = 0;
  for (const AppendTickRef& tick : ticks) {
    CHRONICLE_ASSIGN_OR_RETURN(
        last_lsn,
        LogPayload(EncodeAppendRecord(next_lsn_, tick.sn, tick.chronon,
                                      tick.batches),
                   /*defer_sync=*/true));
  }
  CHRONICLE_RETURN_NOT_OK(ApplyFsyncPolicy());
  return last_lsn;
}

Result<uint64_t> Wal::LogPayload(const std::string& payload, bool defer_sync) {
  // Frame header + payload are appended separately (the stdio layer
  // batches them) to avoid copying the payload into a combined buffer.
  char header[8];
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = Crc32c(payload);
  std::memcpy(header, &len, 4);
  std::memcpy(header + 4, &crc, 4);
  const uint64_t frame_bytes = 8 + payload.size();

  if (segment_bytes_written_ + frame_bytes > options_.segment_bytes &&
      segment_bytes_written_ > kSegmentHeaderBytes) {
    CHRONICLE_RETURN_NOT_OK(OpenSegment(next_lsn_));
  }
  CHRONICLE_RETURN_NOT_OK(file_->Append(std::string_view(header, 8)));
  CHRONICLE_RETURN_NOT_OK(file_->Append(payload));
  const uint64_t lsn = next_lsn_++;
  segment_bytes_written_ += frame_bytes;
  bytes_since_sync_ += frame_bytes;
  ++stats_.records_logged;
  stats_.bytes_logged += frame_bytes;

  if (!defer_sync) CHRONICLE_RETURN_NOT_OK(ApplyFsyncPolicy());
  return lsn;
}

Status Wal::ApplyFsyncPolicy() {
  switch (options_.fsync) {
    case FsyncPolicy::kEveryRecord:
      CHRONICLE_RETURN_NOT_OK(Sync());
      break;
    case FsyncPolicy::kBatch:
      if (bytes_since_sync_ >= options_.group_commit_bytes) {
        CHRONICLE_RETURN_NOT_OK(Sync());
      }
      break;
    case FsyncPolicy::kNever:
      break;
  }
  return Status::OK();
}

Status Wal::Sync() {
  if (file_ == nullptr) return Status::OK();
  Stopwatch watch;
  CHRONICLE_RETURN_NOT_OK(file_->Sync());
  stats_.fsync_latency.Record(watch.ElapsedNanos());
  last_synced_lsn_ = next_lsn_ - 1;
  bytes_since_sync_ = 0;
  ++stats_.syncs;
  return Status::OK();
}

Status Wal::WriteCheckpoint(const ChronicleDatabase& db) {
  if (closed_) return Status::FailedPrecondition("wal is closed");
  CHRONICLE_RETURN_NOT_OK(Sync());
  const uint64_t watermark = next_lsn_ - 1;
  CHRONICLE_ASSIGN_OR_RETURN(std::string image,
                             checkpoint::SaveDatabase(db, watermark));
  const std::string path = dir_ + "/" + CheckpointFileName(watermark);
  CHRONICLE_RETURN_NOT_OK(
      io::AtomicWriteFile(path, WrapCheckpointImage(watermark, image)));
  ++stats_.checkpoints_written;
  return TruncateObsolete(watermark);
}

Status Wal::TruncateObsolete(uint64_t watermark) {
  // Removals need no directory sync: a file that reappears after a crash is
  // an older checkpoint or a segment below every retained watermark, which
  // recovery already tolerates.
  // Prune old checkpoints beyond the configured keep-count.
  CHRONICLE_ASSIGN_OR_RETURN(std::vector<WalDirEntry> checkpoints,
                             ListCheckpoints(dir_));
  const size_t keep = std::max<size_t>(options_.checkpoints_to_keep, 1);
  if (checkpoints.size() > keep) {
    for (size_t i = 0; i + keep < checkpoints.size(); ++i) {
      (void)io::Fs().Remove(checkpoints[i].path);
    }
    checkpoints.erase(checkpoints.begin(),
                      checkpoints.begin() +
                          static_cast<ptrdiff_t>(checkpoints.size() - keep));
  }
  // Segments must survive back to the OLDEST retained checkpoint, not just
  // the one we wrote: if the newest image turns out to be damaged, recovery
  // falls back to an older one and replays forward from ITS watermark.
  uint64_t horizon = watermark;
  if (!checkpoints.empty()) {
    horizon = std::min(horizon, checkpoints.front().lsn);
  }
  // A segment is obsolete when its successor starts at or below horizon+1:
  // every record it holds is then covered by every retained checkpoint.
  // The active segment is always the last one and is never removed.
  CHRONICLE_ASSIGN_OR_RETURN(std::vector<WalDirEntry> segments,
                             ListWalSegments(dir_));
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].lsn <= horizon + 1) {
      if (io::Fs().Remove(segments[i].path).ok()) ++stats_.segments_removed;
    }
  }
  return Status::OK();
}

Status Wal::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  if (file_ == nullptr) return Status::OK();
  CHRONICLE_RETURN_NOT_OK(Sync());
  Status st = file_->Close();
  file_.reset();
  return st;
}

// --- WalMutationLog ---

Status WalMutationLog::LogAppend(
    SeqNum sn, Chronon chronon,
    const std::vector<std::pair<ChronicleId, std::vector<Tuple>>>& inserts) {
  std::vector<AppendBatchRef> batches;
  batches.reserve(inserts.size());
  for (const auto& [id, tuples] : inserts) {
    CHRONICLE_ASSIGN_OR_RETURN(const Chronicle* chron,
                               db_->group().GetChronicle(id));
    batches.push_back({&chron->name(), &tuples});
  }
  CHRONICLE_RETURN_NOT_OK(wal_->LogAppend(sn, chronon, batches).status());
  logged_sn_ = sn;
  return NoteSync(Status::OK());
}

Status WalMutationLog::LogAppendMany(const std::vector<PendingAppend>& ticks) {
  std::vector<Wal::AppendTickRef> group;
  group.reserve(ticks.size());
  for (const PendingAppend& tick : ticks) {
    Wal::AppendTickRef ref;
    ref.sn = tick.sn;
    ref.chronon = tick.chronon;
    ref.batches.reserve(tick.inserts->size());
    for (const auto& [id, tuples] : *tick.inserts) {
      CHRONICLE_ASSIGN_OR_RETURN(const Chronicle* chron,
                                 db_->group().GetChronicle(id));
      ref.batches.push_back({&chron->name(), &tuples});
    }
    group.push_back(std::move(ref));
  }
  CHRONICLE_RETURN_NOT_OK(wal_->LogAppendGroup(group).status());
  if (!ticks.empty()) logged_sn_ = ticks.back().sn;
  return NoteSync(Status::OK());
}

Status WalMutationLog::Sync() { return NoteSync(wal_->Sync()); }

Status WalMutationLog::NoteSync(Status logged) {
  if (logged.ok() && wal_->last_synced_lsn() + 1 == wal_->next_lsn()) {
    durable_sn_ = logged_sn_;
  }
  return logged;
}

Status WalMutationLog::LogRelationInsert(const std::string& relation,
                                         const Tuple& row) {
  return NoteSync(
      wal_->Log(WalRecord::MakeRelationInsert(relation, row)).status());
}

Status WalMutationLog::LogRelationUpdate(const std::string& relation,
                                         const Value& key, const Tuple& row) {
  return NoteSync(
      wal_->Log(WalRecord::MakeRelationUpdate(relation, key, row)).status());
}

Status WalMutationLog::LogRelationDelete(const std::string& relation,
                                         const Value& key) {
  return NoteSync(
      wal_->Log(WalRecord::MakeRelationDelete(relation, key)).status());
}

}  // namespace wal
}  // namespace chronicle
