// Segmented, CRC-checksummed write-ahead log with group commit.
//
// The paper's central trick (Thm 4.2) is maintaining views WITHOUT storing
// the chronicle — which means the in-memory database is the only copy of
// the view state. This module makes the ingest path durable:
//
//   * every DML operation (append tick or proactive relation update) is
//     encoded as a WalRecord and framed into the active segment file as
//     [len u32][crc32c u32][payload] BEFORE the operation is applied;
//   * segments are named wal-<first_lsn>.log and rotated at a size bound;
//     a fresh segment is started on every Open so new records never land
//     after a torn tail;
//   * fsync cost is controlled by FsyncPolicy — per record (strongest),
//     per batch (group commit: one fsync amortized over many records), or
//     never (durability limited to what the OS flushes);
//   * recovery is checkpoint + log-tail replay: Wal::WriteCheckpoint saves
//     a checkpoint image stamped with the log watermark (the LSN of the
//     last record it covers) and then deletes segments that lie entirely
//     below the watermark. wal::Recover (recovery.h) restores the newest
//     valid checkpoint and replays the tail through the normal maintenance
//     path.
//
// Because the primary state is volatile, this is a pure redo log: there is
// nothing to undo after a crash, and a record is "committed" exactly when
// it is fsynced. Replay stops at the first corrupt record; corruption
// anywhere other than the tail of the log is reported as kDataLoss rather
// than silently applying garbage past a hole.

#ifndef CHRONICLE_WAL_WAL_H_
#define CHRONICLE_WAL_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/database.h"
#include "io/file.h"
#include "obs/stats.h"
#include "wal/wal_record.h"

namespace chronicle {
namespace wal {

// When the log fsyncs. The policy trades append latency for the size of
// the window of acknowledged-but-lost operations on power failure.
enum class FsyncPolicy : uint8_t {
  kEveryRecord = 0,  // fsync after every record: no lost acknowledged ops
  kBatch = 1,        // group commit: fsync once per group_commit_bytes
  kNever = 2,        // never fsync: durability is whatever the OS flushed
};

struct WalOptions {
  // Rotate to a new segment once the active one exceeds this many bytes.
  uint64_t segment_bytes = 4ull << 20;
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  // kBatch: fsync when this many bytes have accumulated since the last sync.
  // The window bounds both the fsync rate and the worst-case loss on a
  // power failure.
  uint64_t group_commit_bytes = 256ull << 10;
  // How many checkpoint files to keep (the newest plus N-1 predecessors,
  // as insurance against a latent bad write in the newest).
  size_t checkpoints_to_keep = 2;
};

// The log manager: owns the active segment, assigns LSNs, and runs the
// checkpoint + truncation protocol. Single-writer; not thread-safe.
class Wal {
 public:
  // Opens the log in `dir` (created if missing). Deletes the temp file a
  // crash mid-checkpoint leaves, scans existing segments and checkpoints to
  // resume the LSN sequence past everything already on disk, then starts a
  // fresh segment.
  static Result<std::unique_ptr<Wal>> Open(const std::string& dir,
                                           WalOptions options = {});

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Appends one record (stamping it with the next LSN) and applies the
  // fsync policy. Returns the assigned LSN.
  Result<uint64_t> Log(WalRecord record);

  // Hot-path variant of Log for append ticks: encodes straight from the
  // borrowed batches without building a WalRecord.
  Result<uint64_t> LogAppend(SeqNum sn, Chronon chronon,
                             const std::vector<AppendBatchRef>& batches);

  // One append tick of a LogAppendGroup batch (borrowed, like
  // AppendBatchRef).
  struct AppendTickRef {
    SeqNum sn = 0;
    Chronon chronon = 0;
    std::vector<AppendBatchRef> batches;
  };

  // Group commit for batched ingest (ChronicleDatabase::AppendMany):
  // frames every tick under consecutive LSNs, then applies the fsync
  // policy ONCE for the whole group — under kEveryRecord that is a single
  // sync instead of one per tick. Returns the last LSN written.
  Result<uint64_t> LogAppendGroup(const std::vector<AppendTickRef>& ticks);

  // Forces everything logged so far to stable storage.
  Status Sync();

  // LSN the next record will receive; last logged LSN is next_lsn()-1.
  uint64_t next_lsn() const { return next_lsn_; }
  // Highest LSN known to have reached stable storage.
  uint64_t last_synced_lsn() const { return last_synced_lsn_; }

  // Checkpoint protocol: syncs the log, saves `db` (which this log must be
  // attached to, or at least whose state must cover every logged record)
  // into checkpoint-<watermark>.ckpt via an atomic rename, then prunes
  // checkpoints beyond `checkpoints_to_keep` and deletes every segment
  // whose records are covered by every RETAINED checkpoint — the log is
  // kept back to the oldest retained watermark so recovery can still fall
  // back to an older image if the newest is damaged.
  Status WriteCheckpoint(const ChronicleDatabase& db);

  const obs::WalCounters& stats() const { return stats_; }
  const std::string& dir() const { return dir_; }

  // Syncs and closes the active segment. Further Log calls fail.
  Status Close();

 private:
  Wal(std::string dir, WalOptions options);

  Status OpenSegment(uint64_t first_lsn);
  Status TruncateObsolete(uint64_t watermark);
  // Frames `payload` (already stamped with next_lsn_), writes it, and
  // applies the fsync policy — unless `defer_sync`, which skips the policy
  // so a batch caller can group-commit once at the end. Returns the
  // consumed LSN.
  Result<uint64_t> LogPayload(const std::string& payload,
                              bool defer_sync = false);
  // The per-record half of the fsync policy, factored out so group commits
  // can apply it once per batch.
  Status ApplyFsyncPolicy();

  std::string dir_;
  WalOptions options_;
  std::unique_ptr<io::WritableFile> file_;
  uint64_t next_lsn_ = 1;
  uint64_t last_synced_lsn_ = 0;
  uint64_t segment_bytes_written_ = 0;
  uint64_t bytes_since_sync_ = 0;
  bool closed_ = false;
  obs::WalCounters stats_;
};

// MutationLog adapter: plugs a Wal into ChronicleDatabase's durability
// hook. Resolves chronicle ids to names (the durable identity) through the
// database it is attached to.
class WalMutationLog : public MutationLog {
 public:
  WalMutationLog(Wal* wal, const ChronicleDatabase* db)
      : wal_(wal), db_(db) {}

  Status LogAppend(SeqNum sn, Chronon chronon,
                   const std::vector<std::pair<ChronicleId, std::vector<Tuple>>>&
                       inserts) override;
  Status LogAppendMany(const std::vector<PendingAppend>& ticks) override;
  Status Sync() override;
  SeqNum durable_sn() const override { return durable_sn_; }
  Status LogRelationInsert(const std::string& relation,
                           const Tuple& row) override;
  Status LogRelationUpdate(const std::string& relation, const Value& key,
                           const Tuple& row) override;
  Status LogRelationDelete(const std::string& relation,
                           const Value& key) override;

 private:
  // After a log call: when the log is synced through its last record, every
  // append logged so far is durable.
  Status NoteSync(Status logged);

  Wal* wal_;
  const ChronicleDatabase* db_;
  SeqNum logged_sn_ = 0;   // SN of the last append logged
  SeqNum durable_sn_ = 0;  // SN of the last append a sync covered
};

// --- replay / inspection machinery (used by recovery.h and tests) ---

struct WalReplayStats {
  uint64_t records_seen = 0;     // valid records found across segments
  uint64_t records_applied = 0;  // lsn > watermark, handed to `apply`
  uint64_t records_skipped = 0;  // lsn <= watermark (covered by checkpoint)
  bool tail_truncated = false;   // replay stopped at a corrupt log tail
  std::string tail_detail;       // what the corruption looked like
};

// Replays every record with LSN > `watermark`, in LSN order, through
// `apply`. A corrupt record at the very tail of the log stops replay
// cleanly (tail_truncated); corruption anywhere else — including an LSN
// gap between segments — fails with kDataLoss. An error from `apply`
// aborts the replay.
Status ReplayWal(const std::string& dir, uint64_t watermark,
                 const std::function<Status(const WalRecord&)>& apply,
                 WalReplayStats* stats);

// The parsed valid prefix of one segment file.
struct SegmentContents {
  uint64_t first_lsn = 0;
  std::vector<WalRecord> records;
  bool clean = false;  // parsed to EOF with no corruption
  std::string corruption_detail;
};

// Reads a segment, stopping at the first corrupt frame. Only an unreadable
// file is an error; corruption is reported in the result.
Result<SegmentContents> ReadSegment(const std::string& path);

// File-name helpers (layout: wal-<lsn>.log, checkpoint-<watermark>.ckpt,
// both zero-padded so lexicographic order is LSN order).
std::string WalSegmentFileName(uint64_t first_lsn);
std::string CheckpointFileName(uint64_t watermark);

// Sorted (ascending) lists of the data files present in `dir`. Missing
// directory yields an empty list.
struct WalDirEntry {
  std::string path;
  uint64_t lsn = 0;  // segment first_lsn / checkpoint watermark
};
Result<std::vector<WalDirEntry>> ListWalSegments(const std::string& dir);
Result<std::vector<WalDirEntry>> ListCheckpoints(const std::string& dir);

// Checkpoint file wrapper: [magic][version][watermark u64][len u64]
// [crc32c u32][payload]. The CRC lets recovery validate an image before
// applying it, so a corrupt newest checkpoint is skipped in favor of an
// older one instead of half-restoring.
std::string WrapCheckpointImage(uint64_t watermark, const std::string& image);
struct UnwrappedCheckpoint {
  uint64_t watermark = 0;
  std::string image;
};
Result<UnwrappedCheckpoint> UnwrapCheckpointImage(const std::string& bytes);

}  // namespace wal
}  // namespace chronicle

#endif  // CHRONICLE_WAL_WAL_H_
