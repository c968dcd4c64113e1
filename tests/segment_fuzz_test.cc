// Corruption fuzzing for segment files: every truncation, every single-bit
// flip, extensions, and torn rewrites must fail CLOSED — SegmentReader::
// Open returns a clean non-OK status, never crashes, never yields wrong
// rows. At the store level a corrupt segment is quarantined together with
// everything older, so the surviving warm window stays contiguous and the
// missing prefix falls back to WAL replay.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/crc32.h"
#include "common/random.h"
#include "storage/chronicle_group.h"
#include "store/segment.h"
#include "store/tiered_store.h"

namespace chronicle {
namespace store {
namespace {

namespace fs = std::filesystem;

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() /
              ("chronicle_segfuzz_" + name + "_" + std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteRaw(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

// A small but representative segment: mixed types, repeated SNs, strings.
std::string BuildSegment(SeqNum base) {
  SegmentEncoder enc(9);
  for (SeqNum sn = base; sn < base + 12; ++sn) {
    enc.Add(ChronicleRow{
        sn, Tuple{Value(static_cast<int64_t>(sn * 7)),
                  Value("payload-" + std::to_string(sn))}});
    if (sn % 3 == 0) {
      enc.Add(ChronicleRow{sn, Tuple{Value(int64_t{-1}), Value("dup")}});
    }
  }
  return enc.Finish();
}

TEST(SegmentFuzz, EveryTruncationFailsClosed) {
  ScratchDir dir("trunc");
  const std::string image = BuildSegment(100);
  const std::string path = (fs::path(dir.path) / "seg.seg").string();
  for (size_t len = 0; len < image.size(); ++len) {
    WriteRaw(path, std::string_view(image).substr(0, len));
    auto reader = SegmentReader::Open(path);
    EXPECT_FALSE(reader.ok()) << "truncation to " << len << " bytes opened";
  }
  // Sanity: the untruncated image is valid.
  WriteRaw(path, image);
  EXPECT_TRUE(SegmentReader::Open(path).ok());
}

TEST(SegmentFuzz, EverySingleBitFlipFailsClosed) {
  ScratchDir dir("bitflip");
  const std::string image = BuildSegment(500);
  const std::string path = (fs::path(dir.path) / "seg.seg").string();
  for (size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = image;
      mutated[byte] ^= static_cast<char>(1 << bit);
      WriteRaw(path, mutated);
      auto reader = SegmentReader::Open(path);
      EXPECT_FALSE(reader.ok())
          << "bit " << bit << " of byte " << byte << " flipped but opened";
    }
  }
}

TEST(SegmentFuzz, AppendedGarbageFailsClosed) {
  ScratchDir dir("extend");
  const std::string image = BuildSegment(1);
  const std::string path = (fs::path(dir.path) / "seg.seg").string();
  Rng rng(20260809);
  for (int extra : {1, 7, 4096}) {
    std::string mutated = image;
    for (int i = 0; i < extra; ++i) {
      mutated.push_back(static_cast<char>(rng.Uniform(256)));
    }
    WriteRaw(path, mutated);
    EXPECT_FALSE(SegmentReader::Open(path).ok())
        << extra << " garbage bytes appended but opened";
  }
}

TEST(SegmentFuzz, TornRewriteWithRandomTailFailsClosed) {
  // A tear that is not a clean truncation: the prefix is intact but the
  // tail is stale garbage of the original length (what a non-atomic
  // in-place rewrite could leave). Any divergence from the true image must
  // fail the CRC.
  ScratchDir dir("torn");
  const std::string image = BuildSegment(42);
  const std::string path = (fs::path(dir.path) / "seg.seg").string();
  Rng rng(7);
  for (int trial = 0; trial < 64; ++trial) {
    const size_t keep = kSegmentHeaderBytes +
                        rng.Uniform(image.size() - kSegmentHeaderBytes);
    std::string mutated = image.substr(0, keep);
    bool differs = false;
    while (mutated.size() < image.size()) {
      const char c = static_cast<char>(rng.Uniform(256));
      differs |= c != image[mutated.size()];
      mutated.push_back(c);
    }
    if (!differs) continue;  // the "tear" reproduced the real bytes
    WriteRaw(path, mutated);
    EXPECT_FALSE(SegmentReader::Open(path).ok()) << "trial " << trial;
  }
}

// Rewrites the header's payload_bytes to the image's real payload length
// and recomputes the CRC, so a mutated image gets past the size and CRC
// checks and exercises the structural ones behind them.
std::string Reseal(std::string image) {
  // The header ends with payload_bytes u32, payload_crc u32 (segment.h).
  constexpr size_t kCrcAt = kSegmentHeaderBytes - sizeof(uint32_t);
  constexpr size_t kPayloadBytesAt = kCrcAt - sizeof(uint32_t);
  if (image.size() < kSegmentHeaderBytes) return image;
  const uint32_t payload =
      static_cast<uint32_t>(image.size() - kSegmentHeaderBytes);
  std::memcpy(&image[kPayloadBytesAt], &payload, sizeof(payload));
  uint32_t crc = Crc32c(image.data(), kCrcAt);
  crc = Crc32cExtend(crc, image.data() + kSegmentHeaderBytes, payload);
  std::memcpy(&image[kCrcAt], &crc, sizeof(crc));
  return image;
}

// Open's verdict is the contract Scan relies on: whenever Open accepts an
// image, Scan must decode exactly row_count rows with nondecreasing SNs
// inside [base_sn, last_sn]. Returns whether Open accepted.
bool OpenImpliesCleanScan(const std::string& path, const std::string& what) {
  auto reader = SegmentReader::Open(path);
  if (!reader.ok()) return false;
  const SegmentHeader& h = (*reader)->header();
  uint64_t rows = 0;
  SeqNum prev = h.base_sn;
  bool in_range = true;
  Status scan = (*reader)->Scan([&](const ChronicleRow& row) {
    in_range &= row.sn >= prev && row.sn <= h.last_sn;
    prev = row.sn;
    ++rows;
  });
  EXPECT_TRUE(scan.ok()) << what << ": " << scan.ToString();
  EXPECT_EQ(rows, h.row_count) << what;
  EXPECT_TRUE(in_range) << what;
  EXPECT_EQ(prev, h.last_sn) << what;
  return true;
}

TEST(SegmentFuzz, OpenAcceptsOnlyWhatScanCanRead) {
  const uint64_t seed = FuzzSeed(20261017);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  ScratchDir dir("parity");
  const std::string image = BuildSegment(77);
  const std::string path = (fs::path(dir.path) / "seg.seg").string();
  size_t resealed_opened = 0;
  for (size_t len = 0; len <= image.size(); ++len) {
    const std::string cut = image.substr(0, len);
    const std::string what = "cut to " + std::to_string(len);
    WriteRaw(path, cut);
    OpenImpliesCleanScan(path, what);
    WriteRaw(path, Reseal(cut));
    resealed_opened += OpenImpliesCleanScan(path, "resealed " + what);
  }
  Rng rng(seed);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = image;
    const size_t flips = 1 + rng.Uniform(3);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] ^=
          static_cast<char>(1 + rng.Uniform(255));
    }
    const std::string what = "flip trial " + std::to_string(trial);
    WriteRaw(path, mutated);
    OpenImpliesCleanScan(path, what);
    WriteRaw(path, Reseal(mutated));
    resealed_opened += OpenImpliesCleanScan(path, "resealed " + what);
  }
  // Value bytes carry no structure, so some resealed mutants must open;
  // otherwise this test checked nothing beyond the CRC.
  EXPECT_GT(resealed_opened, 0u);
}

// Store-level fallback: corrupting a middle segment quarantines it AND the
// older ones; the newest valid suffix is still served, and last_sealed_sn
// shrinks so recovery knows to replay the WAL from further back.
TEST(SegmentFuzz, StoreQuarantinesCorruptionAndKeepsNewestSuffix) {
  ScratchDir dir("quarantine");
  StorageOptions options;
  options.data_dir = dir.path;
  options.hot_rows = 4;
  options.segment_rows = 4;

  SeqNum sealed = 0;
  {
    auto store = TieredStore::Open(options);
    ASSERT_TRUE(store.ok());
    ChronicleGroup group("g");
    ChronicleId id =
        group.CreateChronicle("calls",
                              Schema({{"k", DataType::kInt64}}),
                              RetentionPolicy::Tiered(options.hot_rows))
            .value();
    ASSERT_TRUE((*store)->AttachChronicle(id, "calls").ok());
    group.GetChronicle(id).value()->AttachTierSink(store->get(),
                                                   options.segment_rows);
    for (int i = 1; i <= 40; ++i) {
      ASSERT_TRUE(group.Append(id, {Tuple{Value(i)}}).ok());
    }
    ASSERT_TRUE((*store)->Drain().ok());
    sealed = (*store)->last_sealed_sn(id);
  }

  std::vector<std::string> segs;
  for (const auto& entry : fs::directory_iterator(dir.path + "/calls")) {
    if (entry.path().extension() == ".seg") segs.push_back(entry.path());
  }
  std::sort(segs.begin(), segs.end());
  ASSERT_GE(segs.size(), 3u);

  // Flip one payload bit in the middle segment.
  std::string bytes = ReadFile(segs[segs.size() / 2]);
  bytes[bytes.size() - 1] ^= 0x10;
  WriteRaw(segs[segs.size() / 2], bytes);

  auto store = TieredStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AttachChronicle(0, "calls").ok());
  EXPECT_EQ((*store)->counters().segments_quarantined, segs.size() / 2 + 1);
  EXPECT_EQ((*store)->last_sealed_sn(0), sealed);  // newest suffix intact

  // The surviving warm rows are contiguous and end at the sealed SN.
  std::vector<SeqNum> sns;
  ASSERT_TRUE(
      (*store)
          ->ScanHeld(0, [&](const ChronicleRow& r) { sns.push_back(r.sn); })
          .ok());
  ASSERT_FALSE(sns.empty());
  EXPECT_EQ(sns.back(), sealed);
  for (size_t i = 1; i < sns.size(); ++i) EXPECT_EQ(sns[i], sns[i - 1] + 1);

  // Quarantined files are renamed, not deleted (kept for forensics).
  size_t quarantined_files = 0;
  for (const auto& entry : fs::directory_iterator(dir.path + "/calls")) {
    if (entry.path().extension() == ".quarantined") ++quarantined_files;
  }
  EXPECT_EQ(quarantined_files, segs.size() / 2 + 1);
}

// Corrupting the NEWEST segment quarantines the whole warm tier (no valid
// newest suffix exists): last_sealed_sn drops to 0 and recovery falls back
// to replaying the WAL from genesis/checkpoint.
TEST(SegmentFuzz, CorruptNewestSegmentFallsBackEntirely) {
  ScratchDir dir("newest");
  StorageOptions options;
  options.data_dir = dir.path;
  options.hot_rows = 4;
  options.segment_rows = 4;
  {
    auto store = TieredStore::Open(options);
    ASSERT_TRUE(store.ok());
    ChronicleGroup group("g");
    ChronicleId id =
        group.CreateChronicle("calls",
                              Schema({{"k", DataType::kInt64}}),
                              RetentionPolicy::Tiered(options.hot_rows))
            .value();
    ASSERT_TRUE((*store)->AttachChronicle(id, "calls").ok());
    group.GetChronicle(id).value()->AttachTierSink(store->get(),
                                                   options.segment_rows);
    for (int i = 1; i <= 24; ++i) {
      ASSERT_TRUE(group.Append(id, {Tuple{Value(i)}}).ok());
    }
  }
  std::vector<std::string> segs;
  for (const auto& entry : fs::directory_iterator(dir.path + "/calls")) {
    if (entry.path().extension() == ".seg") segs.push_back(entry.path());
  }
  std::sort(segs.begin(), segs.end());
  ASSERT_FALSE(segs.empty());
  std::string bytes = ReadFile(segs.back());
  bytes[kSegmentHeaderBytes / 2] ^= 0x01;
  WriteRaw(segs.back(), bytes);

  auto store = TieredStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AttachChronicle(0, "calls").ok());
  EXPECT_EQ((*store)->last_sealed_sn(0), 0u);
  EXPECT_EQ((*store)->HeldRows(0), 0u);
  EXPECT_EQ((*store)->counters().segments_quarantined, segs.size());
}

}  // namespace
}  // namespace store
}  // namespace chronicle
