// Tiered store × WAL recovery: sealed segments are the checkpoint of the
// chronicle prefix. After a crash — right after a seal, mid-seal (stray
// temp file), or with a vandalized segment — recovery must rebuild state
// identical to a clean uninterrupted run: same views, same retained rows,
// and (because seal boundaries are a pure function of the row stream) the
// same segment files on disk.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "wal/recovery.h"
#include "wal/wal.h"
#include "workload/call_records.h"

namespace chronicle {
namespace wal {
namespace {

namespace fs = std::filesystem;

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() /
              ("chronicle_storerec_" + name + "_" + std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string wal_dir() const { return path + "/wal"; }
  std::string store_dir() const { return path + "/store"; }
  std::string path;
};

DatabaseOptions TieredOptions(const std::string& store_dir) {
  DatabaseOptions options;
  store::StorageOptions storage;
  storage.data_dir = store_dir;
  storage.hot_rows = 8;
  storage.segment_rows = 4;
  options.storage = storage;
  return options;
}

void ApplyDdl(ChronicleDatabase* db) {
  ASSERT_TRUE(db->CreateChronicle("calls", CallRecordGenerator::RecordSchema(),
                                  RetentionPolicy::Tiered(8))
                  .ok());
  CaExprPtr scan = db->ScanChronicle("calls").value();
  ASSERT_TRUE(db->CreateView("minutes", scan,
                             SummarySpec::GroupBy(scan->schema(), {"caller"},
                                                  {AggSpec::Sum("minutes", "m"),
                                                   AggSpec::Count("n")})
                                 .value())
                  .ok());
}

void ApplyStep(ChronicleDatabase* db, CallRecordGenerator* gen, int step) {
  ASSERT_TRUE(db->Append("calls", gen->NextBatch(1 + step % 3)).ok());
}

struct Snapshot {
  std::vector<Tuple> minutes;
  std::vector<std::pair<SeqNum, Tuple>> retained;  // warm + hot, merged
  uint64_t last_sn = 0;
  uint64_t num_retained = 0;
  // filename -> size of every sealed segment file.
  std::map<std::string, uint64_t> segments;
};

Snapshot Capture(const ChronicleDatabase& db, const std::string& store_dir) {
  Snapshot snap;
  snap.minutes = db.ScanView("minutes").value();
  const Chronicle* chron = db.group().GetChronicle(0).value();
  EXPECT_TRUE(chron
                  ->ScanRetained([&snap](const ChronicleRow& row) {
                    snap.retained.emplace_back(row.sn, row.values);
                  })
                  .ok());
  snap.last_sn = db.group().last_sn();
  snap.num_retained = chron->num_retained();
  for (const auto& entry : fs::directory_iterator(store_dir + "/calls")) {
    if (entry.path().extension() == ".seg") {
      snap.segments[entry.path().filename().string()] = fs::file_size(entry);
    }
  }
  return snap;
}

void ExpectMatches(const Snapshot& got, const Snapshot& want) {
  EXPECT_EQ(got.minutes, want.minutes);
  EXPECT_EQ(got.retained, want.retained);
  EXPECT_EQ(got.last_sn, want.last_sn);
  EXPECT_EQ(got.num_retained, want.num_retained);
  EXPECT_EQ(got.segments, want.segments);
}

// A clean uninterrupted run of `steps` ticks, tiered but WAL-free.
Snapshot ReferenceAfter(const std::string& store_dir, int steps) {
  ChronicleDatabase db(TieredOptions(store_dir));
  ApplyDdl(&db);
  CallRecordGenerator gen;
  for (int step = 0; step < steps; ++step) ApplyStep(&db, &gen, step);
  EXPECT_TRUE(db.DrainSeals().ok());  // recovery ends drained
  return Capture(db, store_dir);
}

// Runs `steps` ticks with WAL + tiered store attached, then "crashes".
void RunAndCrash(const ScratchDir& dir, int steps, int checkpoint_after = -1) {
  auto wal = Wal::Open(dir.wal_dir());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ChronicleDatabase db(TieredOptions(dir.store_dir()));
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
}

Snapshot RecoverAndCapture(const ScratchDir& dir) {
  ChronicleDatabase db(TieredOptions(dir.store_dir()));
  ApplyDdl(&db);
  Result<RecoveryReport> report = Recover(dir.wal_dir(), &db);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return Capture(db, dir.store_dir());
}

TEST(StoreRecovery, KillAfterSealMatchesCleanRun) {
  ScratchDir crash("afterseal"), clean("afterseal_ref");
  const int kSteps = 50;  // plenty of seals at segment_rows = 4
  RunAndCrash(crash, kSteps);
  ExpectMatches(RecoverAndCapture(crash),
                ReferenceAfter(clean.store_dir(), kSteps));
}

TEST(StoreRecovery, KillMidSegmentLeavesTempAndConverges) {
  ScratchDir crash("midseg"), clean("midseg_ref");
  const int kSteps = 40;
  RunAndCrash(crash, kSteps);
  // Simulate dying inside io::AtomicWriteFile: a partial temp file
  // survives.
  {
    std::ofstream tmp(crash.store_dir() + "/calls/seg-000.tmp",
                      std::ios::binary);
    tmp << "partial segment image cut off mid-";
  }
  const Snapshot recovered = RecoverAndCapture(crash);
  ExpectMatches(recovered, ReferenceAfter(clean.store_dir(), kSteps));
  // The temp file was swept at attach.
  for (const auto& entry :
       fs::directory_iterator(crash.store_dir() + "/calls")) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

TEST(StoreRecovery, CorruptSegmentFallsBackToWalTail) {
  ScratchDir crash("corrupt"), clean("corrupt_ref");
  const int kSteps = 40;
  RunAndCrash(crash, kSteps);
  // Vandalize the newest segment: the whole warm tier is quarantined and
  // every row must come back from the WAL.
  std::vector<std::string> segs;
  for (const auto& entry :
       fs::directory_iterator(crash.store_dir() + "/calls")) {
    if (entry.path().extension() == ".seg") segs.push_back(entry.path());
  }
  std::sort(segs.begin(), segs.end());
  ASSERT_FALSE(segs.empty());
  {
    std::fstream f(segs.back(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(20);
    f.put('\xff');
  }

  const Snapshot recovered = RecoverAndCapture(crash);
  const Snapshot reference = ReferenceAfter(clean.store_dir(), kSteps);
  // Views and rows match; deterministic seal boundaries mean even the
  // re-sealed segment files match the clean run (quarantined leftovers
  // aside, which keep the .quarantined extension).
  ExpectMatches(recovered, reference);
}

TEST(StoreRecovery, CheckpointPlusSegmentsPlusTail) {
  ScratchDir crash("ckpt"), clean("ckpt_ref");
  const int kSteps = 60;
  RunAndCrash(crash, kSteps, /*checkpoint_after=*/30);
  ExpectMatches(RecoverAndCapture(crash),
                ReferenceAfter(clean.store_dir(), kSteps));
}

TEST(StoreRecovery, RecoverResumeAndRecoverAgain) {
  ScratchDir crash("resume"), clean("resume_ref");
  RunAndCrash(crash, 30);
  {
    ChronicleDatabase db(TieredOptions(crash.store_dir()));
    ApplyDdl(&db);
    ASSERT_TRUE(Recover(crash.wal_dir(), &db).ok());
    auto wal = Wal::Open(crash.wal_dir());
    ASSERT_TRUE(wal.ok());
    WalMutationLog log(wal->get(), &db);
    db.AttachMutationLog(&log);
    CallRecordGenerator gen;
    for (int step = 0; step < 30; ++step) ApplyStep(&db, &gen, step);
    // Note: the generator restarts, so this run's rows differ from a
    // single 60-step run; build the matching reference the same way.
    ASSERT_TRUE((*wal)->Close().ok());
  }
  const Snapshot recovered = RecoverAndCapture(crash);

  ChronicleDatabase ref(TieredOptions(clean.store_dir()));
  ApplyDdl(&ref);
  {
    CallRecordGenerator gen;
    for (int step = 0; step < 30; ++step) ApplyStep(&ref, &gen, step);
  }
  {
    CallRecordGenerator gen;
    for (int step = 0; step < 30; ++step) ApplyStep(&ref, &gen, step);
  }
  ASSERT_TRUE(ref.DrainSeals().ok());  // recovery ends drained
  ExpectMatches(recovered, Capture(ref, clean.store_dir()));
}

}  // namespace
}  // namespace wal
}  // namespace chronicle
