// End-to-end crash recovery: a WAL-attached database is killed (dropped)
// at various points — mid-log, after a checkpoint, with a torn final
// record, with a corrupt newest checkpoint — and Recover() must rebuild
// view-for-view identical state up to the last fully-persisted record.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "io/file.h"
#include "wal/recovery.h"
#include "wal/wal.h"
#include "workload/call_records.h"

namespace chronicle {
namespace wal {
namespace {

namespace fs = std::filesystem;

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() / ("chronicle_recovery_" + name +
                                           "_" +
                                           std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

// The shared DDL: one chronicle, one aggregation view over it, and a keyed
// relation receiving proactive updates.
void ApplyDdl(ChronicleDatabase* db) {
  ASSERT_TRUE(db->CreateChronicle("calls", CallRecordGenerator::RecordSchema())
                  .ok());
  ASSERT_TRUE(db->CreateRelation("cust",
                                 Schema({{"acct", DataType::kInt64},
                                         {"state", DataType::kString}}),
                                 "acct")
                  .ok());
  CaExprPtr scan = db->ScanChronicle("calls").value();
  ASSERT_TRUE(db->CreateView("minutes", scan,
                             SummarySpec::GroupBy(scan->schema(), {"caller"},
                                                  {AggSpec::Sum("minutes", "m"),
                                                   AggSpec::Count("n")})
                                 .value())
                  .ok());
}

// One deterministic "workload step" — the same call with the same step
// index produces the same mutation on any database, so a reference run and
// a logged run can be replayed tick-for-tick.
void ApplyStep(ChronicleDatabase* db, CallRecordGenerator* gen, int step) {
  if (step % 7 == 3) {
    ASSERT_TRUE(
        db->InsertInto("cust", Tuple{Value(step), Value("NJ")}).ok());
  } else if (step % 7 == 5) {
    ASSERT_TRUE(
        db->UpdateRelation("cust", Value(step - 2),
                           Tuple{Value(step - 2), Value("CA")})
            .ok());
  } else {
    ASSERT_TRUE(db->Append("calls", gen->NextBatch(3)).ok());
  }
}

// Reference state after `steps` workload steps, computed with no WAL.
struct Snapshot {
  std::vector<Tuple> minutes;
  std::vector<Tuple> cust;
  uint64_t last_sn = 0;
  uint64_t appends = 0;
};

Snapshot ReferenceAfter(int steps) {
  ChronicleDatabase db;
  ApplyDdl(&db);
  CallRecordGenerator gen;
  for (int step = 0; step < steps; ++step) ApplyStep(&db, &gen, step);
  Snapshot snap;
  snap.minutes = db.ScanView("minutes").value();
  snap.cust = db.GetRelation("cust").value()->rows();
  snap.last_sn = db.group().last_sn();
  snap.appends = db.appends_processed();
  return snap;
}

void ExpectMatches(const ChronicleDatabase& db, const Snapshot& snap) {
  EXPECT_EQ(db.ScanView("minutes").value(), snap.minutes);
  EXPECT_EQ(db.GetRelation("cust").value()->rows(), snap.cust);
  EXPECT_EQ(db.group().last_sn(), snap.last_sn);
  EXPECT_EQ(db.appends_processed(), snap.appends);
}

// Runs `steps` workload steps with a WAL attached, checkpointing after
// step `checkpoint_after` (if >= 0). The database is then dropped — the
// "crash" — leaving only the log directory behind.
void RunAndCrash(const std::string& dir, int steps, int checkpoint_after,
                 WalOptions options = {}) {
  auto wal = Wal::Open(dir, std::move(options));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ChronicleDatabase db;
  ApplyDdl(&db);
  WalMutationLog log(wal->get(), &db);
  db.AttachMutationLog(&log);
  CallRecordGenerator gen;
  for (int step = 0; step < steps; ++step) {
    ApplyStep(&db, &gen, step);
    if (step == checkpoint_after) {
      ASSERT_TRUE((*wal)->WriteCheckpoint(db).ok());
    }
  }
  ASSERT_TRUE((*wal)->Close().ok());
  // `db` and the wal die here; the directory is all that survives.
}

TEST(RecoveryTest, ReplayFromGenesisWithoutCheckpoint) {
  ScratchDir dir("genesis");
  RunAndCrash(dir.path, 30, /*checkpoint_after=*/-1);

  ChronicleDatabase recovered;
  ApplyDdl(&recovered);
  Result<RecoveryReport> report = Recover(dir.path, &recovered);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->checkpoint_restored);
  EXPECT_EQ(report->watermark, 0u);
  EXPECT_EQ(report->replay.records_applied, 30u);
  ExpectMatches(recovered, ReferenceAfter(30));
}

TEST(RecoveryTest, CheckpointPlusTailReplay) {
  ScratchDir dir("ckpt_tail");
  RunAndCrash(dir.path, 40, /*checkpoint_after=*/24);

  ChronicleDatabase recovered;
  ApplyDdl(&recovered);
  Result<RecoveryReport> report = Recover(dir.path, &recovered);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->checkpoint_restored);
  EXPECT_EQ(report->watermark, 25u);  // 25 records logged by step 24
  EXPECT_EQ(report->replay.records_applied, 15u);
  EXPECT_EQ(report->recovered_lsn(), 40u);
  ExpectMatches(recovered, ReferenceAfter(40));
}

TEST(RecoveryTest, TornFinalRecordRecoversEverythingBeforeIt) {
  ScratchDir dir("torn");
  WalOptions options;
  options.fsync = FsyncPolicy::kNever;
  RunAndCrash(dir.path, 30, /*checkpoint_after=*/9, options);

  // Tear the last record: chop a few bytes off the newest segment, as a
  // crash mid-write would.
  auto segments = ListWalSegments(dir.path).value();
  ASSERT_FALSE(segments.empty());
  const std::string& last = segments.back().path;
  std::string bytes = io::ReadFile(last).value();
  ASSERT_TRUE(io::AtomicWriteFile(
                  last, std::string_view(bytes).substr(0, bytes.size() - 3))
                  .ok());

  ChronicleDatabase recovered;
  ApplyDdl(&recovered);
  Result<RecoveryReport> report = Recover(dir.path, &recovered);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->replay.tail_truncated);
  EXPECT_EQ(report->recovered_lsn(), 29u);
  // State equals the uninterrupted run up to the last intact record.
  ExpectMatches(recovered, ReferenceAfter(29));
}

TEST(RecoveryTest, CorruptNewestCheckpointFallsBackToOlder) {
  ScratchDir dir("fallback");
  WalOptions options;
  options.checkpoints_to_keep = 2;
  RunAndCrash(dir.path, 20, /*checkpoint_after=*/5, options);
  // Second run in the same dir: resumes LSNs, writes a second checkpoint.
  {
    auto wal = Wal::Open(dir.path, options);
    ASSERT_TRUE(wal.ok());
    ChronicleDatabase db;
    ApplyDdl(&db);
    Result<RecoveryReport> report = Recover(dir.path, &db);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE((*wal)->WriteCheckpoint(db).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }
  auto checkpoints = ListCheckpoints(dir.path).value();
  ASSERT_EQ(checkpoints.size(), 2u);
  // Vandalize the newest checkpoint.
  std::string bytes = io::ReadFile(checkpoints.back().path).value();
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(io::AtomicWriteFile(checkpoints.back().path, bytes).ok());

  ChronicleDatabase recovered;
  ApplyDdl(&recovered);
  Result<RecoveryReport> report = Recover(dir.path, &recovered);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->checkpoints_skipped, 1u);
  EXPECT_EQ(report->checkpoint_path, checkpoints.front().path);
  ExpectMatches(recovered, ReferenceAfter(20));
}

TEST(RecoveryTest, ResumeLoggingAfterRecoveryAndRecoverAgain) {
  ScratchDir dir("resume");
  RunAndCrash(dir.path, 15, /*checkpoint_after=*/7);

  // Recover, re-attach a WAL in the same directory, and keep working.
  {
    ChronicleDatabase db;
    ApplyDdl(&db);
    Result<RecoveryReport> report = Recover(dir.path, &db);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    auto wal = Wal::Open(dir.path);
    ASSERT_TRUE(wal.ok());
    WalMutationLog log(wal->get(), &db);
    db.AttachMutationLog(&log);
    // Re-sync the generator past the batches the first run consumed (only
    // append steps draw from it).
    CallRecordGenerator gen;
    for (int step = 0; step < 15; ++step) {
      if (step % 7 != 3 && step % 7 != 5) gen.NextBatch(3);
    }
    for (int step = 15; step < 25; ++step) ApplyStep(&db, &gen, step);
    ASSERT_TRUE((*wal)->Close().ok());
  }

  ChronicleDatabase recovered;
  ApplyDdl(&recovered);
  Result<RecoveryReport> report = Recover(dir.path, &recovered);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectMatches(recovered, ReferenceAfter(25));
}

TEST(RecoveryTest, RefusesUnpreparedDatabases) {
  ScratchDir dir("refuse");
  RunAndCrash(dir.path, 5, -1);

  // Non-fresh database (already has data).
  {
    ChronicleDatabase db;
    ApplyDdl(&db);
    CallRecordGenerator gen;
    ASSERT_TRUE(db.Append("calls", gen.NextBatch(1)).ok());
    EXPECT_TRUE(Recover(dir.path, &db).status().IsFailedPrecondition());
  }
  // Mutation log still attached (replay would re-log itself).
  {
    auto wal = Wal::Open(dir.path);
    ASSERT_TRUE(wal.ok());
    ChronicleDatabase db;
    ApplyDdl(&db);
    WalMutationLog log(wal->get(), &db);
    db.AttachMutationLog(&log);
    EXPECT_TRUE(Recover(dir.path, &db).status().IsFailedPrecondition());
    ASSERT_TRUE((*wal)->Close().ok());
  }
}

TEST(RecoveryTest, EmptyDirectoryRecoversToEmptyState) {
  ScratchDir dir("empty");
  ChronicleDatabase db;
  ApplyDdl(&db);
  Result<RecoveryReport> report = Recover(dir.path, &db);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->checkpoint_restored);
  EXPECT_EQ(report->recovered_lsn(), 0u);
  EXPECT_EQ(db.appends_processed(), 0u);
}

}  // namespace
}  // namespace wal
}  // namespace chronicle
