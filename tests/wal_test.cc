// Unit tests for the WAL building blocks: CRC32C, record serde, segment
// framing, rotation, group commit, the checkpoint + truncation protocol,
// and the fault-injection file wrapper.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "common/crc32.h"
#include "common/crc32_internal.h"
#include "common/random.h"
#include "wal/recovery.h"
#include "wal/wal.h"
#include "wal/wal_file.h"
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

TEST(FaultInjectingFileTest, TornWriteKeepsPrefixOnly) {
  ScratchDir dir("torn");
  const std::string path = dir.path + "/f";
  auto base = OpenWritableFile(path);
  ASSERT_TRUE(base.ok());
  FaultPlan plan;
  plan.kind = FaultKind::kTornWrite;
  plan.trigger_offset = 10;
  FaultInjectingFile f(std::move(base).value(), plan);
  ASSERT_TRUE(f.Append("0123456789").ok());   // exactly at the edge
  ASSERT_TRUE(f.Append("abcdef").ok());       // silently dropped
  ASSERT_TRUE(f.Sync().ok());                 // the crash "lies"
  ASSERT_TRUE(f.Close().ok());
  EXPECT_TRUE(f.fault_triggered());
  EXPECT_EQ(ReadFileToString(path).value(), "0123456789");
}

TEST(FaultInjectingFileTest, TornWriteMidAppendKeepsPartialBytes) {
  ScratchDir dir("torn_mid");
  const std::string path = dir.path + "/f";
  auto base = OpenWritableFile(path);
  ASSERT_TRUE(base.ok());
  FaultPlan plan;
  plan.kind = FaultKind::kTornWrite;
  plan.trigger_offset = 4;
  FaultInjectingFile f(std::move(base).value(), plan);
  ASSERT_TRUE(f.Append("0123456789").ok());
  ASSERT_TRUE(f.Close().ok());
  EXPECT_EQ(ReadFileToString(path).value(), "0123");
}

TEST(FaultInjectingFileTest, BitFlipCorruptsOneBit) {
  ScratchDir dir("flip");
  const std::string path = dir.path + "/f";
  auto base = OpenWritableFile(path);
  ASSERT_TRUE(base.ok());
  FaultPlan plan;
  plan.kind = FaultKind::kBitFlip;
  plan.trigger_offset = 2;
  plan.bit = 0;
  FaultInjectingFile f(std::move(base).value(), plan);
  ASSERT_TRUE(f.Append("aaaa").ok());
  ASSERT_TRUE(f.Close().ok());
  EXPECT_EQ(ReadFileToString(path).value(), std::string("aa`a"));
}

TEST(FaultInjectingFileTest, FailSyncReportsDataLoss) {
  ScratchDir dir("failsync");
  auto base = OpenWritableFile(dir.path + "/f");
  ASSERT_TRUE(base.ok());
  FaultPlan plan;
  plan.kind = FaultKind::kFailSync;
  plan.trigger_offset = 0;
  FaultInjectingFile f(std::move(base).value(), plan);
  ASSERT_TRUE(f.Append("x").ok());
  EXPECT_TRUE(f.Sync().IsDataLoss());
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
    std::string data = ReadFileToString(segments[0].path).value();
    torn_at = data.size() - 5;
    ASSERT_TRUE(AtomicWriteFile(segments[0].path,
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
  std::string data = ReadFileToString(segments[0].path).value();
  data[data.size() / 2] ^= 0x40;
  ASSERT_TRUE(AtomicWriteFile(segments[0].path, data).ok());
  Status st = ReplayWal(dir.path, 0,
                        [](const WalRecord&) { return Status::OK(); }, nullptr);
  EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
}

TEST(WalTest, FaultInjectedTornWriteThroughTheWriter) {
  ScratchDir dir("injected");
  // Build the WAL through a fault-injecting factory: the 4th record's
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
  options.file_factory = [&](const std::string& path)
      -> Result<std::unique_ptr<WritableFile>> {
    CHRONICLE_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                               OpenWritableFile(path));
    FaultPlan plan;
    plan.kind = FaultKind::kTornWrite;
    plan.trigger_offset = torn_offset;
    return std::unique_ptr<WritableFile>(
        std::make_unique<FaultInjectingFile>(std::move(base), plan));
  };
  {
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
