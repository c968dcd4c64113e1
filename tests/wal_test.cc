// Unit tests for the WAL building blocks: CRC32C, record serde, segment
// framing, rotation, group commit, the checkpoint + truncation protocol,
// the recording file system's fault injection, and the WAL's use of the
// io layer (directory syncs, stray-temp cleanup, failed syncs).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "common/crc32.h"
#include "common/crc32_internal.h"
#include "common/random.h"
#include "io/file.h"
#include "io/recording_fs.h"
#include "wal/recovery.h"
#include "wal/wal.h"
#include "wal/wal_record.h"
#include "workload/call_records.h"

namespace chronicle {
namespace wal {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test, removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() / ("chronicle_wal_test_" + name +
                                           "_" +
                                           std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

TEST(Crc32Test, KnownVectors) {
  // Standard CRC-32C test vector (iSCSI / RFC 3720 appendix).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // Incremental form matches one-shot.
  const std::string data = "the quick brown fox";
  uint32_t inc = Crc32cExtend(0, data.data(), 9);
  inc = Crc32cExtend(inc, data.data() + 9, data.size() - 9);
  EXPECT_EQ(inc, Crc32c(data));
}

// The dispatched Crc32cExtend (SSE4.2 where the CPU has it) must agree
// with the portable table path on every length and alignment.
TEST(Crc32Test, DispatchedMatchesPortable) {
  const uint64_t seed = FuzzSeed(4096);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  Rng rng(seed);
  std::string buffer(4096 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.Uniform(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 4096; ++len) {
      const char* p = buffer.data() + offset;
      const uint32_t start = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(Crc32cExtend(start, p, len),
                internal::Crc32cExtendPortable(start, p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, IncrementalSplitsMatchOneShot) {
  const uint64_t seed = FuzzSeed(977);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    std::string data(rng.Uniform(1024), '\0');
    for (char& c : data) c = static_cast<char>(rng.Uniform(256));
    const uint32_t whole = Crc32c(data);
    ASSERT_EQ(whole,
              internal::Crc32cExtendPortable(0, data.data(), data.size()));
    // Up to four random cut points; every piece extends the running CRC.
    std::vector<size_t> cuts = {0, data.size()};
    for (uint64_t k = rng.Uniform(4); k > 0; --k) {
      cuts.push_back(data.empty() ? 0 : rng.Uniform(data.size() + 1));
    }
    std::sort(cuts.begin(), cuts.end());
    uint32_t dispatched = 0;
    uint32_t portable = 0;
    for (size_t i = 1; i < cuts.size(); ++i) {
      const char* piece = data.data() + cuts[i - 1];
      const size_t len = cuts[i] - cuts[i - 1];
      dispatched = Crc32cExtend(dispatched, piece, len);
      portable = internal::Crc32cExtendPortable(portable, piece, len);
    }
    EXPECT_EQ(dispatched, whole) << "trial " << trial;
    EXPECT_EQ(portable, whole) << "trial " << trial;
  }
}

TEST(WalRecordTest, AppendRoundTrip) {
  WalRecord r = WalRecord::MakeAppend(
      7, 42,
      {{"calls", {Tuple{Value(1), Value("a")}, Tuple{Value(2), Value()}}},
       {"trades", {Tuple{Value(3.5)}}}});
  r.lsn = 99;
  Result<WalRecord> decoded = DecodeWalRecord(EncodeWalRecord(r));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == r);
}

TEST(WalRecordTest, RelationOpsRoundTrip) {
  WalRecord ins = WalRecord::MakeRelationInsert(
      "plans", Tuple{Value(1), Value("basic"), Value(0.1)});
  ins.lsn = 1;
  WalRecord upd = WalRecord::MakeRelationUpdate(
      "plans", Value(1), Tuple{Value(1), Value("gold"), Value(0.2)});
  upd.lsn = 2;
  WalRecord del = WalRecord::MakeRelationDelete("plans", Value("k"));
  del.lsn = 3;
  for (const WalRecord& r : {ins, upd, del}) {
    Result<WalRecord> decoded = DecodeWalRecord(EncodeWalRecord(r));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(*decoded == r);
  }
}

TEST(WalRecordTest, TrailingBytesRejected) {
  WalRecord r = WalRecord::MakeRelationDelete("t", Value(1));
  std::string payload = EncodeWalRecord(r);
  payload += "x";
  EXPECT_FALSE(DecodeWalRecord(payload).ok());
}

TEST(WalTest, LogAndReplay) {
  ScratchDir dir("log_replay");
  {
    WalOptions options;
    options.fsync = FsyncPolicy::kNever;
    auto wal = Wal::Open(dir.path, options);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (int i = 1; i <= 5; ++i) {
      Result<uint64_t> lsn = (*wal)->Log(
          WalRecord::MakeRelationInsert("r", Tuple{Value(i)}));
      ASSERT_TRUE(lsn.ok());
      EXPECT_EQ(*lsn, static_cast<uint64_t>(i));
    }
    ASSERT_TRUE((*wal)->Close().ok());
  }
  std::vector<WalRecord> seen;
  WalReplayStats stats;
  Status st = ReplayWal(
      dir.path, 0,
      [&](const WalRecord& r) {
        seen.push_back(r);
        return Status::OK();
      },
      &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.records_applied, 5u);
  EXPECT_FALSE(stats.tail_truncated);
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen[2].row[0], Value(3));
}

TEST(WalTest, WatermarkSkipsReplayedPrefix) {
  ScratchDir dir("watermark");
  {
    auto wal = Wal::Open(dir.path);
    ASSERT_TRUE(wal.ok());
    for (int i = 1; i <= 6; ++i) {
      ASSERT_TRUE(
          (*wal)->Log(WalRecord::MakeRelationInsert("r", Tuple{Value(i)})).ok());
    }
    ASSERT_TRUE((*wal)->Close().ok());
  }
  WalReplayStats stats;
  uint64_t first_applied = 0;
  ASSERT_TRUE(ReplayWal(dir.path, 4,
                        [&](const WalRecord& r) {
                          if (first_applied == 0) first_applied = r.lsn;
                          return Status::OK();
                        },
                        &stats)
                  .ok());
  EXPECT_EQ(stats.records_applied, 2u);
  EXPECT_EQ(stats.records_skipped, 4u);
  EXPECT_EQ(first_applied, 5u);
}

TEST(WalTest, RotationCreatesSegmentsAndReopenResumesLsns) {
  ScratchDir dir("rotation");
  WalOptions options;
  options.segment_bytes = 128;  // force rotation every few records
  options.fsync = FsyncPolicy::kNever;
  {
    auto wal = Wal::Open(dir.path, options);
    ASSERT_TRUE(wal.ok());
    for (int i = 1; i <= 20; ++i) {
      ASSERT_TRUE(
          (*wal)->Log(WalRecord::MakeRelationInsert("r", Tuple{Value(i)})).ok());
    }
    EXPECT_GT((*wal)->stats().segments_created, 2u);
    ASSERT_TRUE((*wal)->Close().ok());
  }
  // Re-open: the LSN sequence continues past everything on disk.
  {
    auto wal = Wal::Open(dir.path, options);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ((*wal)->next_lsn(), 21u);
    Result<uint64_t> lsn =
        (*wal)->Log(WalRecord::MakeRelationInsert("r", Tuple{Value(21)}));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, 21u);
    ASSERT_TRUE((*wal)->Close().ok());
  }
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(dir.path, 0,
                        [](const WalRecord&) { return Status::OK(); }, &stats)
                  .ok());
  EXPECT_EQ(stats.records_applied, 21u);
}

TEST(WalTest, FsyncPolicyControlsSyncCount) {
  ScratchDir dir("fsync");
  auto count_syncs = [&](FsyncPolicy policy, uint64_t group_bytes) {
    fs::remove_all(dir.path);
    WalOptions options;
    options.fsync = policy;
    options.group_commit_bytes = group_bytes;
    auto wal = Wal::Open(dir.path, options);
    EXPECT_TRUE(wal.ok());
    for (int i = 0; i < 32; ++i) {
      EXPECT_TRUE(
          (*wal)->Log(WalRecord::MakeRelationInsert("r", Tuple{Value(i)})).ok());
    }
    const uint64_t syncs = (*wal)->stats().syncs;
    EXPECT_TRUE((*wal)->Close().ok());
    return syncs;
  };
  EXPECT_EQ(count_syncs(FsyncPolicy::kEveryRecord, 1 << 16), 32u);
  EXPECT_LT(count_syncs(FsyncPolicy::kBatch, 1 << 16), 4u);
  EXPECT_EQ(count_syncs(FsyncPolicy::kNever, 1 << 16), 0u);
}

void ApplyDdl(ChronicleDatabase* db) {
  ASSERT_TRUE(db->CreateChronicle("calls", CallRecordGenerator::RecordSchema())
                  .ok());
  CaExprPtr scan = db->ScanChronicle("calls").value();
  ASSERT_TRUE(db->CreateView("minutes", scan,
                             SummarySpec::GroupBy(scan->schema(), {"caller"},
                                                  {AggSpec::Sum("minutes", "m")})
                                 .value())
                  .ok());
}

TEST(WalTest, CheckpointTruncatesObsoleteSegments) {
  ScratchDir dir("truncate");
  WalOptions options;
  options.segment_bytes = 256;
  options.checkpoints_to_keep = 1;
  auto wal = Wal::Open(dir.path, options);
  ASSERT_TRUE(wal.ok());

  ChronicleDatabase db;
  ApplyDdl(&db);
  WalMutationLog log(wal->get(), &db);
  db.AttachMutationLog(&log);

  CallRecordGenerator gen;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(db.Append("calls", gen.NextBatch(2)).ok());
  }
  const uint64_t segments_before =
      ListWalSegments(dir.path).value().size();
  ASSERT_GT(segments_before, 2u);
  ASSERT_TRUE((*wal)->WriteCheckpoint(db).ok());
  // All segments strictly below the watermark are gone; the active one and
  // a checkpoint file remain.
  EXPECT_LE(ListWalSegments(dir.path).value().size(), 2u);
  EXPECT_EQ(ListCheckpoints(dir.path).value().size(), 1u);
  EXPECT_GT((*wal)->stats().segments_removed, 0u);
  ASSERT_TRUE((*wal)->Close().ok());

  // Recovery from checkpoint + (empty) tail reproduces the view.
  ChronicleDatabase recovered;
  ApplyDdl(&recovered);
  Result<RecoveryReport> report = Recover(dir.path, &recovered);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->checkpoint_restored);
  EXPECT_EQ(recovered.ScanView("minutes").value(),
            db.ScanView("minutes").value());
}

// Opens `path` through `fs`, which applies its fault plan to it.
std::unique_ptr<io::WritableFile> FaultedFile(io::RecordingFileSystem* fs,
                                              const std::string& path) {
  auto file = fs->NewWritableFile(path);
  EXPECT_TRUE(file.ok());
  return std::move(file).value();
}

io::FaultPlan Plan(io::FaultKind kind, uint64_t trigger_offset) {
  io::FaultPlan plan;
  plan.kind = kind;
  plan.trigger_offset = trigger_offset;
  return plan;
}

TEST(FaultInjectingFileTest, TornWriteKeepsPrefixOnly) {
  ScratchDir dir("torn");
  const std::string path = dir.path + "/f";
  io::RecordingFileSystem fs(Plan(io::FaultKind::kTornWrite, 10));
  auto f = FaultedFile(&fs, path);
  ASSERT_TRUE(f->Append("0123456789").ok());   // exactly at the edge
  ASSERT_TRUE(f->Append("abcdef").ok());       // silently dropped
  ASSERT_TRUE(f->Sync().ok());                 // the crash "lies"
  ASSERT_TRUE(f->Close().ok());
  EXPECT_TRUE(fs.fault_triggered());
  EXPECT_EQ(io::ReadFile(path).value(), "0123456789");
}

TEST(FaultInjectingFileTest, TornWriteMidAppendKeepsPartialBytes) {
  ScratchDir dir("torn_mid");
  const std::string path = dir.path + "/f";
  io::RecordingFileSystem fs(Plan(io::FaultKind::kTornWrite, 4));
  auto f = FaultedFile(&fs, path);
  ASSERT_TRUE(f->Append("0123456789").ok());
  ASSERT_TRUE(f->Close().ok());
  EXPECT_EQ(io::ReadFile(path).value(), "0123");
}

TEST(FaultInjectingFileTest, BitFlipCorruptsOneBit) {
  ScratchDir dir("flip");
  const std::string path = dir.path + "/f";
  io::FaultPlan plan = Plan(io::FaultKind::kBitFlip, 2);
  plan.bit = 0;
  io::RecordingFileSystem fs(plan);
  auto f = FaultedFile(&fs, path);
  ASSERT_TRUE(f->Append("aaaa").ok());
  ASSERT_TRUE(f->Close().ok());
  EXPECT_EQ(io::ReadFile(path).value(), std::string("aa`a"));
}

TEST(FaultInjectingFileTest, FailSyncReportsDataLoss) {
  ScratchDir dir("failsync");
  io::RecordingFileSystem fs(Plan(io::FaultKind::kFailSync, 0));
  auto f = FaultedFile(&fs, dir.path + "/f");
  ASSERT_TRUE(f->Append("x").ok());
  EXPECT_TRUE(f->Sync().IsDataLoss());
}

// The recorded log is what the sweep replays: every completed durable
// operation, in order, with the bytes that reached the file.
TEST(FaultInjectingFileTest, RecordsDurableOperationsInOrder) {
  ScratchDir dir("record");
  io::RecordingFileSystem fs;
  io::ScopedFileSystem scoped(&fs);
  ASSERT_TRUE(io::CreateDirs(dir.path + "/a/b").ok());
  ASSERT_TRUE(io::AtomicWriteFile(dir.path + "/a/b/f", "hello").ok());
  ASSERT_TRUE(io::Fs().Remove(dir.path + "/a/b/f").ok());
  using K = io::FileOp::Kind;
  std::vector<std::pair<K, std::string>> got;
  for (const io::FileOp& op : fs.ops()) got.emplace_back(op.kind, op.path);
  const std::string a = dir.path + "/a", b = a + "/b", f = b + "/f";
  const std::vector<std::pair<K, std::string>> want = {
      {K::kMakeDir, a},          {K::kSyncDir, dir.path},
      {K::kMakeDir, b},          {K::kSyncDir, a},
      {K::kCreate, f + ".tmp"},  {K::kAppend, f + ".tmp"},
      {K::kSync, f + ".tmp"},    {K::kRename, f + ".tmp"},
      {K::kSyncDir, b},          {K::kRemove, f}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(fs.ops()[5].data, "hello");
  EXPECT_EQ(fs.ops()[7].target, f);
}

TEST(AtomicWriteFileTest, FailedDirectorySyncIsAnError) {
  ScratchDir dir("dirsync");
  io::FaultPlan plan;
  plan.kind = io::FaultKind::kFailDirSync;
  io::RecordingFileSystem fs(plan);
  io::ScopedFileSystem scoped(&fs);
  EXPECT_TRUE(io::AtomicWriteFile(dir.path + "/f", "x").IsDataLoss());
  EXPECT_TRUE(fs.fault_triggered());
}

// Regression: a new segment's directory entry was never synced, so a
// crash could lose a whole segment of acknowledged records.
TEST(WalTest, NewSegmentDirectoryEntryIsSyncedBeforeItsRecords) {
  ScratchDir dir("segment_dirsync");
  io::RecordingFileSystem fs;
  io::ScopedFileSystem scoped(&fs);
  WalOptions options;
  options.fsync = FsyncPolicy::kEveryRecord;
  options.segment_bytes = 64;  // rotate on every record
  auto wal = Wal::Open(dir.path + "/wal", options);
  ASSERT_TRUE(wal.ok());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(
        (*wal)->Log(WalRecord::MakeRelationInsert("r", Tuple{Value(i)})).ok());
  }
  ASSERT_TRUE((*wal)->Close().ok());
  // Every segment create is followed by a sync of the WAL directory before
  // the first sync of that segment's content; the new WAL directory itself
  // is synced into its parent.
  const std::vector<io::FileOp> ops = fs.ops();
  size_t creates = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == io::FileOp::Kind::kMakeDir) {
      ASSERT_LT(i + 1, ops.size());
      EXPECT_EQ(ops[i + 1].kind, io::FileOp::Kind::kSyncDir);
      EXPECT_EQ(ops[i + 1].path, dir.path);
    }
    if (ops[i].kind != io::FileOp::Kind::kCreate) continue;
    ++creates;
    bool dir_synced = false;
    for (size_t j = i + 1; j < ops.size(); ++j) {
      if (ops[j].kind == io::FileOp::Kind::kSyncDir &&
          ops[j].path == dir.path + "/wal") {
        dir_synced = true;
      }
      if (ops[j].kind == io::FileOp::Kind::kSync &&
          ops[j].path == ops[i].path) {
        break;
      }
    }
    EXPECT_TRUE(dir_synced) << ops[i].path;
  }
  EXPECT_GE(creates, 3u);
}

// A rotation whose directory sync fails must not leave a headerless
// segment taking records: the log stops, and everything logged before it
// replays.
TEST(WalTest, FailedRotationStopsTheLog) {
  ScratchDir dir("rotate_dirsync");
  WalOptions options;
  options.fsync = FsyncPolicy::kEveryRecord;
  options.segment_bytes = 64;  // rotate on every record
  auto wal = Wal::Open(dir.path, options);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(
      (*wal)->Log(WalRecord::MakeRelationInsert("r", Tuple{Value(1)})).ok());
  {
    io::FaultPlan plan;
    plan.kind = io::FaultKind::kFailDirSync;
    io::RecordingFileSystem faulty(plan);
    io::ScopedFileSystem scoped(&faulty);
    EXPECT_TRUE((*wal)
                    ->Log(WalRecord::MakeRelationInsert("r", Tuple{Value(2)}))
                    .status()
                    .IsDataLoss());
  }
  EXPECT_FALSE(
      (*wal)->Log(WalRecord::MakeRelationInsert("r", Tuple{Value(3)})).ok());
  ASSERT_TRUE((*wal)->Close().ok());
  WalReplayStats stats;
  ASSERT_TRUE(ReplayWal(dir.path, 0,
                        [](const WalRecord&) { return Status::OK(); }, &stats)
                  .ok());
  EXPECT_EQ(stats.records_applied, 1u);
}

// Regression: the temp file a crash mid-checkpoint leaves was never
// deleted.
TEST(WalTest, OpenRemovesStrayCheckpointTemp) {
  ScratchDir dir("stray_tmp");
  const std::string stray =
      dir.path + "/" + CheckpointFileName(7) + io::kTempSuffix;
  ASSERT_TRUE(io::AtomicWriteFile(stray, "half a checkpoint").ok());
  ASSERT_TRUE(fs::exists(stray));
  auto wal = Wal::Open(dir.path);
  ASSERT_TRUE(wal.ok());
  EXPECT_FALSE(fs::exists(stray));
}

TEST(WalTest, FailedDirectorySyncFailsCheckpointAndTruncatesNothing) {
  ScratchDir dir("ckpt_dirsync");
  ChronicleDatabase db;
  ASSERT_TRUE(
      db.CreateChronicle("calls", CallRecordGenerator::RecordSchema()).ok());
  WalOptions options;
  options.segment_bytes = 256;  // several segments to truncate
  auto wal = Wal::Open(dir.path, options);
  ASSERT_TRUE(wal.ok());
  WalMutationLog log(wal->get(), &db);
  db.AttachMutationLog(&log);
  CallRecordGenerator gen;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db.Append("calls", gen.NextBatch(2)).ok());
  }
  const size_t segments = ListWalSegments(dir.path).value().size();
  ASSERT_GT(segments, 2u);
  {
    io::FaultPlan plan;
    plan.kind = io::FaultKind::kFailDirSync;
    io::RecordingFileSystem fs(plan);
    io::ScopedFileSystem scoped(&fs);
    EXPECT_TRUE((*wal)->WriteCheckpoint(db).IsDataLoss());
    EXPECT_TRUE(fs.fault_triggered());
  }
  EXPECT_EQ(ListWalSegments(dir.path).value().size(), segments);
  EXPECT_EQ((*wal)->stats().segments_removed, 0u);
  EXPECT_EQ((*wal)->stats().checkpoints_written, 0u);
  db.DetachMutationLog();
}

TEST(WalTest, TornTailStopsReplayCleanly) {
  ScratchDir dir("torn_tail");
  // Write 8 records; the 7th record's frame is torn mid-write.
  WalOptions options;
  options.fsync = FsyncPolicy::kNever;
  uint64_t torn_at = 0;
  {
    auto wal = Wal::Open(dir.path, options);
    ASSERT_TRUE(wal.ok());
    for (int i = 1; i <= 6; ++i) {
      ASSERT_TRUE(
          (*wal)->Log(WalRecord::MakeRelationInsert("r", Tuple{Value(i)})).ok());
    }
    ASSERT_TRUE((*wal)->Close().ok());
  }
  // Tear the file by hand: chop the last 5 bytes, then append a fresh
  // segment's worth of garbage-free records on reopen — replay must apply
  // 1..5, stop at the torn 6th, and refuse nothing before it.
  {
    auto segments = ListWalSegments(dir.path).value();
    ASSERT_EQ(segments.size(), 1u);
    std::string data = io::ReadFile(segments[0].path).value();
    torn_at = data.size() - 5;
    ASSERT_TRUE(io::AtomicWriteFile(segments[0].path,
                                std::string_view(data).substr(0, torn_at))
                    .ok());
  }
  std::vector<uint64_t> applied;
  WalReplayStats stats;
  Status st = ReplayWal(
      dir.path, 0,
      [&](const WalRecord& r) {
        applied.push_back(r.lsn);
        return Status::OK();
      },
      &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.records_applied, 5u);
  ASSERT_FALSE(applied.empty());
  EXPECT_EQ(applied.back(), 5u);
}

TEST(WalTest, CorruptionBeforeNewerSegmentIsDataLoss) {
  ScratchDir dir("mid_corrupt");
  WalOptions options;
  options.fsync = FsyncPolicy::kNever;
  options.segment_bytes = 128;  // several segments
  {
    auto wal = Wal::Open(dir.path, options);
    ASSERT_TRUE(wal.ok());
    for (int i = 1; i <= 20; ++i) {
      ASSERT_TRUE(
          (*wal)->Log(WalRecord::MakeRelationInsert("r", Tuple{Value(i)})).ok());
    }
    ASSERT_TRUE((*wal)->Close().ok());
  }
  auto segments = ListWalSegments(dir.path).value();
  ASSERT_GT(segments.size(), 2u);
  // Flip a byte in the middle of the FIRST segment: records were lost in
  // the interior of the log, which replay must refuse to paper over.
  std::string data = io::ReadFile(segments[0].path).value();
  data[data.size() / 2] ^= 0x40;
  ASSERT_TRUE(io::AtomicWriteFile(segments[0].path, data).ok());
  Status st = ReplayWal(dir.path, 0,
                        [](const WalRecord&) { return Status::OK(); }, nullptr);
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
}

TEST(WalTest, FaultInjectedTornWriteThroughTheWriter) {
  ScratchDir dir("injected");
  // Build the WAL through a fault-injecting file system: the 4th record's
  // bytes are torn. Recovery must surface exactly the first 3.
  uint64_t torn_offset = 0;
  {
    // First pass to learn the byte offset of record 4.
    WalOptions probe;
    probe.fsync = FsyncPolicy::kNever;
    auto wal = Wal::Open(dir.path, probe);
    ASSERT_TRUE(wal.ok());
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(
          (*wal)->Log(WalRecord::MakeRelationInsert("r", Tuple{Value(i)})).ok());
    }
    torn_offset = (*wal)->stats().bytes_logged + 16 + 3;  // header + partial
    ASSERT_TRUE((*wal)->Close().ok());
    fs::remove_all(dir.path);
  }
  WalOptions options;
  options.fsync = FsyncPolicy::kNever;
  io::FaultPlan plan = Plan(io::FaultKind::kTornWrite, torn_offset);
  plan.path_contains = "/wal-";
  io::RecordingFileSystem faulty(plan);
  {
    io::ScopedFileSystem scoped(&faulty);
    auto wal = Wal::Open(dir.path, options);
    ASSERT_TRUE(wal.ok());
    for (int i = 1; i <= 6; ++i) {
      ASSERT_TRUE(
          (*wal)->Log(WalRecord::MakeRelationInsert("r", Tuple{Value(i)})).ok());
    }
    ASSERT_TRUE((*wal)->Close().ok());
  }
  WalReplayStats stats;
  Status st = ReplayWal(dir.path, 0,
                        [](const WalRecord&) { return Status::OK(); }, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(stats.tail_truncated);
  EXPECT_EQ(stats.records_applied, 3u);
}

}  // namespace
}  // namespace wal
}  // namespace chronicle
