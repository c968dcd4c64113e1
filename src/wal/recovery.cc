#include "wal/recovery.h"

#include <utility>

#include "checkpoint/checkpoint.h"

namespace chronicle {
namespace wal {

namespace {

// Re-applies one logged operation through the normal DML path.
Status ApplyRecord(const WalRecord& record, ChronicleDatabase* db) {
  switch (record.type) {
    case WalRecordType::kAppend: {
      CHRONICLE_ASSIGN_OR_RETURN(AppendResult result,
                                 db->AppendMulti(record.inserts,
                                                 record.chronon));
      if (result.event.sn != record.sn) {
        return Status::DataLoss(
            "append replayed under sn " + std::to_string(result.event.sn) +
            " but the log recorded sn " + std::to_string(record.sn) +
            " (log and checkpoint disagree)");
      }
      return Status::OK();
    }
    case WalRecordType::kRelationInsert:
      return db->InsertInto(record.relation, record.row);
    case WalRecordType::kRelationUpdate:
      return db->UpdateRelation(record.relation, record.key, record.row);
    case WalRecordType::kRelationDelete:
      return db->DeleteFrom(record.relation, record.key);
  }
  return Status::Internal("unreachable wal record type");
}

}  // namespace

Result<RecoveryReport> Recover(const std::string& dir,
                               ChronicleDatabase* db) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  if (db->appends_processed() != 0 || db->group().last_sn() != 0) {
    return Status::FailedPrecondition(
        "recovery needs a fresh database with only DDL applied");
  }
  if (db->durability().mutation_log != nullptr) {
    return Status::FailedPrecondition(
        "detach the mutation log before recovery: replayed operations must "
        "not be re-logged (attach after Recover returns)");
  }

  RecoveryReport report;

  // Newest checkpoint whose wrapper CRC validates wins. A checkpoint that
  // validates but fails to apply is a real error (DDL mismatch), not
  // corruption — retrying an older image into a half-restored database
  // would compound the damage.
  CHRONICLE_ASSIGN_OR_RETURN(std::vector<WalDirEntry> checkpoints,
                             ListCheckpoints(dir));
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    Result<std::string> bytes = io::ReadFile(it->path);
    if (!bytes.ok()) {
      ++report.checkpoints_skipped;
      continue;
    }
    Result<UnwrappedCheckpoint> unwrapped = UnwrapCheckpointImage(*bytes);
    if (!unwrapped.ok()) {
      ++report.checkpoints_skipped;
      continue;
    }
    CHRONICLE_ASSIGN_OR_RETURN(uint64_t image_watermark,
                               checkpoint::CheckpointWatermark(
                                   unwrapped->image));
    if (image_watermark != unwrapped->watermark) {
      return Status::DataLoss("checkpoint '" + it->path +
                              "': wrapper and image watermarks disagree");
    }
    CHRONICLE_RETURN_NOT_OK(
        checkpoint::RestoreDatabase(unwrapped->image, db));
    report.checkpoint_restored = true;
    report.checkpoint_path = it->path;
    report.watermark = unwrapped->watermark;
    break;
  }

  CHRONICLE_RETURN_NOT_OK(ReplayWal(
      dir, report.watermark,
      [db](const WalRecord& record) { return ApplyRecord(record, db); },
      &report.replay));
  // Replay handed batches to the sealer; recovery ends with them sealed,
  // the same segment layout an uninterrupted run reaches. A failed seal
  // keeps its rows in flight, as at run time.
  (void)db->DrainSeals();
  return report;
}

}  // namespace wal
}  // namespace chronicle
