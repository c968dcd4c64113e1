// Robustness fuzzing for the WAL reader (mirrors checkpoint_fuzz_test):
// byte-level corruptions, truncations, and garbage segment files must
// either replay the exact valid prefix of the original records or fail
// cleanly with kDataLoss — never crash, hang, or hand corrupt records to
// the apply callback.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "common/random.h"
#include "io/file.h"
#include "wal/wal.h"
#include "wal/wal_record.h"

namespace chronicle {
namespace wal {
namespace {

namespace fs = std::filesystem;

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() / ("chronicle_wal_fuzz_" + name +
                                           "_" +
                                           std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

Value RandomValue(Rng* rng) {
  switch (rng->Uniform(4)) {
    case 0:
      return Value(static_cast<int64_t>(rng->Uniform(1 << 20)));
    case 1:
      return Value(static_cast<double>(rng->Uniform(1000)) / 7.0);
    case 2: {
      std::string s;
      const size_t len = rng->Uniform(12);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng->Uniform(26)));
      }
      return Value(std::move(s));
    }
    default:
      return Value();  // NULL
  }
}

Tuple RandomTuple(Rng* rng) {
  Tuple t;
  const size_t len = 1 + rng->Uniform(4);
  for (size_t i = 0; i < len; ++i) t.push_back(RandomValue(rng));
  return t;
}

WalRecord RandomRecord(Rng* rng) {
  switch (rng->Uniform(4)) {
    case 0: {
      std::vector<std::pair<std::string, std::vector<Tuple>>> inserts;
      const size_t num = 1 + rng->Uniform(3);
      for (size_t i = 0; i < num; ++i) {
        std::vector<Tuple> tuples;
        const size_t n = rng->Uniform(3);
        for (size_t j = 0; j < n; ++j) tuples.push_back(RandomTuple(rng));
        std::string name = "c";
        name += std::to_string(i);
        inserts.emplace_back(std::move(name), std::move(tuples));
      }
      return WalRecord::MakeAppend(rng->Uniform(1 << 16),
                                   static_cast<Chronon>(rng->Uniform(1 << 16)),
                                   std::move(inserts));
    }
    case 1:
      return WalRecord::MakeRelationInsert("rel", RandomTuple(rng));
    case 2:
      return WalRecord::MakeRelationUpdate("rel", RandomValue(rng),
                                           RandomTuple(rng));
    default:
      return WalRecord::MakeRelationDelete("rel", RandomValue(rng));
  }
}

// Writes `n` random records into a single-segment log and returns them
// with LSNs stamped, exactly as replay should surface them.
std::vector<WalRecord> BuildLog(const std::string& dir, Rng* rng, int n) {
  WalOptions options;
  options.fsync = FsyncPolicy::kNever;
  auto wal = Wal::Open(dir, options);
  EXPECT_TRUE(wal.ok());
  std::vector<WalRecord> truth;
  for (int i = 0; i < n; ++i) {
    WalRecord r = RandomRecord(rng);
    Result<uint64_t> lsn = (*wal)->Log(r);
    EXPECT_TRUE(lsn.ok());
    r.lsn = *lsn;
    truth.push_back(std::move(r));
  }
  EXPECT_TRUE((*wal)->Close().ok());
  return truth;
}

// Replays and checks the core safety property: whatever comes out of the
// log is an exact prefix of what went in, or the replay fails with
// kDataLoss. Returns the number of records applied (-1 on DataLoss).
int ReplayAndCheckPrefix(const std::string& dir,
                         const std::vector<WalRecord>& truth) {
  std::vector<WalRecord> applied;
  WalReplayStats stats;
  Status st = ReplayWal(
      dir, 0,
      [&](const WalRecord& r) {
        applied.push_back(r);
        return Status::OK();
      },
      &stats);
  if (!st.ok()) {
    EXPECT_TRUE(st.IsDataLoss()) << st.ToString();
    return -1;
  }
  EXPECT_LE(applied.size(), truth.size());
  for (size_t i = 0; i < applied.size(); ++i) {
    EXPECT_TRUE(applied[i] == truth[i]) << "divergence at record " << i;
  }
  return static_cast<int>(applied.size());
}

TEST(WalFuzzTest, RandomRecordsRoundTrip) {
  const uint64_t seed = FuzzSeed(4242);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  Rng rng(seed);
  for (int trial = 0; trial < 500; ++trial) {
    WalRecord r = RandomRecord(&rng);
    r.lsn = 1 + rng.Uniform(1 << 20);
    Result<WalRecord> decoded = DecodeWalRecord(EncodeWalRecord(r));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(*decoded == r);
  }
}

TEST(WalFuzzTest, RandomBytesNeverCrashTheRecordDecoder) {
  const uint64_t seed = FuzzSeed(1234);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  Rng rng(seed);
  for (int trial = 0; trial < 500; ++trial) {
    std::string garbage;
    const size_t len = rng.Uniform(128);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.Uniform(256)));
    }
    Result<WalRecord> decoded = DecodeWalRecord(garbage);
    (void)decoded;  // any Status outcome is fine; crashing is not
  }
}

TEST(WalFuzzTest, SingleByteCorruptionsYieldExactPrefixOrDataLoss) {
  ScratchDir dir("flip");
  const uint64_t seed = FuzzSeed(31337);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  Rng rng(seed);
  const std::vector<WalRecord> truth = BuildLog(dir.path, &rng, 25);
  auto segments = ListWalSegments(dir.path).value();
  ASSERT_EQ(segments.size(), 1u);
  const std::string pristine = io::ReadFile(segments[0].path).value();

  int full_replays = 0, partial_replays = 0, data_losses = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupted = pristine;
    const size_t pos = rng.Uniform(corrupted.size());
    corrupted[pos] ^= static_cast<char>(1 << rng.Uniform(8));
    ASSERT_TRUE(io::AtomicWriteFile(segments[0].path, corrupted).ok());

    const int applied = ReplayAndCheckPrefix(dir.path, truth);
    if (applied < 0) {
      ++data_losses;
    } else if (static_cast<size_t>(applied) == truth.size()) {
      ++full_replays;  // possible only if the flip landed in slack (none)
    } else {
      ++partial_replays;
    }
  }
  // Every single-bit flip lands inside the header or a frame, so no trial
  // may have replayed everything — and plenty must stop partway.
  EXPECT_EQ(full_replays, 0);
  EXPECT_GT(partial_replays, 0);
  // A single-segment log never reports mid-log loss: a corrupt frame IS
  // the tail.
  EXPECT_EQ(data_losses, 0);
}

TEST(WalFuzzTest, TruncationsAtEveryBoundaryStopCleanly) {
  ScratchDir dir("cut");
  const uint64_t seed = FuzzSeed(99);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  Rng rng(seed);
  const std::vector<WalRecord> truth = BuildLog(dir.path, &rng, 15);
  auto segments = ListWalSegments(dir.path).value();
  ASSERT_EQ(segments.size(), 1u);
  const std::string pristine = io::ReadFile(segments[0].path).value();

  int last_applied = -1;
  for (size_t cut = 0; cut <= pristine.size(); cut += 3) {
    ASSERT_TRUE(
        io::AtomicWriteFile(segments[0].path, pristine.substr(0, cut)).ok());
    const int applied = ReplayAndCheckPrefix(dir.path, truth);
    ASSERT_GE(applied, 0) << "cut at " << cut;  // truncation is a clean tail
    // Longer prefixes never surface fewer records.
    EXPECT_GE(applied, last_applied) << "cut at " << cut;
    last_applied = applied;
  }
}

TEST(WalFuzzTest, GarbageSegmentFilesNeverCrashReplay) {
  ScratchDir dir("garbage");
  const uint64_t seed = FuzzSeed(777);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage;
    const size_t len = rng.Uniform(512);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.Uniform(256)));
    }
    ASSERT_TRUE(
        io::AtomicWriteFile(dir.path + "/" + WalSegmentFileName(1), garbage)
            .ok());
    uint64_t applied = 0;
    WalReplayStats stats;
    Status st = ReplayWal(
        dir.path, 0,
        [&](const WalRecord&) {
          ++applied;
          return Status::OK();
        },
        &stats);
    // Garbage can never decode into applied records (the CRC gate), and
    // must never crash; both clean-tail and DataLoss outcomes are fine.
    EXPECT_EQ(applied, 0u);
    if (!st.ok()) {
      EXPECT_TRUE(st.IsDataLoss());
    }
  }
}

TEST(WalFuzzTest, CorruptionAcrossSegmentsIsPrefixOrDataLoss) {
  // Multi-segment variant: corruption in any non-final segment must refuse
  // replay (DataLoss) rather than skip a hole; corruption in the final
  // segment is a clean tail.
  ScratchDir dir("multi");
  const uint64_t seed = FuzzSeed(2024);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  Rng rng(seed);
  std::vector<WalRecord> truth;
  {
    WalOptions options;
    options.fsync = FsyncPolicy::kNever;
    options.segment_bytes = 256;
    auto wal = Wal::Open(dir.path, options);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 40; ++i) {
      WalRecord r = RandomRecord(&rng);
      Result<uint64_t> lsn = (*wal)->Log(r);
      ASSERT_TRUE(lsn.ok());
      r.lsn = *lsn;
      truth.push_back(std::move(r));
    }
    ASSERT_TRUE((*wal)->Close().ok());
  }
  auto segments = ListWalSegments(dir.path).value();
  ASSERT_GT(segments.size(), 2u);
  std::vector<std::string> pristine;
  for (const auto& s : segments) {
    pristine.push_back(io::ReadFile(s.path).value());
  }

  int data_losses = 0, clean_tails = 0;
  for (int trial = 0; trial < 150; ++trial) {
    // Restore all segments, then corrupt one byte of one of them.
    for (size_t i = 0; i < segments.size(); ++i) {
      ASSERT_TRUE(io::AtomicWriteFile(segments[i].path, pristine[i]).ok());
    }
    const size_t victim = rng.Uniform(segments.size());
    std::string corrupted = pristine[victim];
    corrupted[rng.Uniform(corrupted.size())] ^=
        static_cast<char>(1 << rng.Uniform(8));
    ASSERT_TRUE(io::AtomicWriteFile(segments[victim].path, corrupted).ok());

    const int applied = ReplayAndCheckPrefix(dir.path, truth);
    if (applied < 0) {
      ++data_losses;
      EXPECT_LT(victim, segments.size() - 1)
          << "corruption in the final segment must be a clean tail";
    } else {
      ++clean_tails;
      EXPECT_LT(static_cast<size_t>(applied), truth.size());
    }
  }
  EXPECT_GT(data_losses, 0);
  EXPECT_GT(clean_tails, 0);
}

}  // namespace
}  // namespace wal
}  // namespace chronicle
