// Segment file format: encoder/reader round-trips, SN delta encoding,
// atomic writes, cursor iteration, and header validation.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "checkpoint/serde.h"
#include "common/crc32.h"
#include "io/file.h"
#include "store/segment.h"

namespace chronicle {
namespace store {
namespace {

namespace fs = std::filesystem;

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() /
              ("chronicle_segment_" + name + "_" + std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

ChronicleRow MakeRow(SeqNum sn, int64_t a, const std::string& b) {
  return ChronicleRow{sn, Tuple{Value(a), Value(b)}};
}

std::string WriteSegment(const std::string& dir,
                         const std::vector<ChronicleRow>& rows,
                         uint32_t chronicle_id = 7) {
  SegmentEncoder enc(chronicle_id);
  for (const ChronicleRow& row : rows) enc.Add(row);
  const std::string path =
      (fs::path(dir) / SegmentFileName(enc.first_sn())).string();
  EXPECT_TRUE(io::AtomicWriteFile(path, enc.Finish()).ok());
  return path;
}

TEST(SegmentFileName, LexicographicOrderIsSnOrder) {
  EXPECT_EQ(SegmentFileName(1), "seg-00000000000000000001.seg");
  EXPECT_LT(SegmentFileName(9), SegmentFileName(10));
  EXPECT_LT(SegmentFileName(999), SegmentFileName(1000));
  EXPECT_LT(SegmentFileName(1), SegmentFileName(1ull << 40));
}

TEST(SegmentEncoder, TracksRowsAndSnRange) {
  SegmentEncoder enc(3);
  enc.Add(MakeRow(10, 1, "a"));
  enc.Add(MakeRow(10, 2, "b"));  // same SN twice (multi-row tick)
  enc.Add(MakeRow(12, 3, "c"));
  EXPECT_EQ(enc.rows(), 3u);
  EXPECT_EQ(enc.first_sn(), 10u);
  EXPECT_EQ(enc.last_sn(), 12u);
}

TEST(SegmentRoundTrip, RowsSurviveExactly) {
  ScratchDir dir("roundtrip");
  std::vector<ChronicleRow> rows;
  for (SeqNum sn = 5; sn < 105; ++sn) {
    rows.push_back(MakeRow(sn, static_cast<int64_t>(sn) * 3, "row-" + std::to_string(sn)));
  }
  const std::string path = WriteSegment(dir.path, rows);

  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->header().chronicle_id, 7u);
  EXPECT_EQ((*reader)->header().row_count, 100u);
  EXPECT_EQ((*reader)->header().base_sn, 5u);
  EXPECT_EQ((*reader)->header().last_sn, 104u);

  std::vector<ChronicleRow> decoded;
  ASSERT_TRUE(
      (*reader)->Scan([&](const ChronicleRow& r) { decoded.push_back(r); })
          .ok());
  ASSERT_EQ(decoded.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(decoded[i].sn, rows[i].sn);
    EXPECT_EQ(decoded[i].values, rows[i].values);
  }
}

TEST(SegmentRoundTrip, RepeatedAndSparseSns) {
  ScratchDir dir("sparse");
  std::vector<ChronicleRow> rows = {
      MakeRow(100, 1, "x"), MakeRow(100, 2, "y"), MakeRow(100, 3, "z"),
      MakeRow(5000, 4, "far"), MakeRow(1ull << 33, 5, "huge-delta")};
  const std::string path = WriteSegment(dir.path, rows);
  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<SeqNum> sns;
  ASSERT_TRUE(
      (*reader)->Scan([&](const ChronicleRow& r) { sns.push_back(r.sn); })
          .ok());
  EXPECT_EQ(sns, (std::vector<SeqNum>{100, 100, 100, 5000, 1ull << 33}));
}

TEST(SegmentRoundTrip, DenseSnsCostOneByteEach) {
  // The point of delta encoding: a dense append stream pays ~1 byte of SN
  // overhead per row, not 8.
  SegmentEncoder enc(1);
  const size_t kRows = 1000;
  size_t tuple_bytes = 0;
  for (SeqNum sn = 1; sn <= kRows; ++sn) {
    ChronicleRow row = MakeRow(sn, 42, "");
    enc.Add(row);
    if (sn == 1) tuple_bytes = enc.payload_bytes() - 1;  // first delta is 1B
  }
  EXPECT_LE(enc.payload_bytes(), kRows * (tuple_bytes + 1));
}

// Pins the on-disk format: these rows must encode to exactly the image the
// format has always produced (header layout, SN deltas, value tags, CRC
// coverage). A change here is a format change and needs a version bump.
TEST(SegmentEncoder, GoldenImageIsStable) {
  SegmentEncoder enc(11);
  enc.Add(ChronicleRow{3, Tuple{Value(int64_t{-7}), Value("NJ"), Value()}});
  enc.Add(ChronicleRow{3, Tuple{Value(int64_t{0}), Value(""), Value(2.5)}});
  enc.Add(ChronicleRow{4, Tuple{Value(int64_t{1} << 40), Value("toll-free"),
                                Value(-0.125)}});
  enc.Add(ChronicleRow{300, Tuple{}});
  enc.Add(ChronicleRow{(1ull << 35) + 3,
                       Tuple{Value(std::string(200, 'x')), Value()}});
  const std::string image = enc.Finish();
  EXPECT_EQ(image.size(), 348u);
  EXPECT_EQ(Crc32c(image), 0x7EAB9239u);
}

TEST(SegmentCursor, PullIterationMatchesScan) {
  ScratchDir dir("cursor");
  std::vector<ChronicleRow> rows;
  for (SeqNum sn = 1; sn <= 17; ++sn) rows.push_back(MakeRow(sn, 0, "v"));
  const std::string path = WriteSegment(dir.path, rows);
  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok());

  SegmentReader::Cursor cursor(reader->get());
  ChronicleRow row;
  size_t n = 0;
  while (true) {
    auto more = cursor.Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    EXPECT_EQ(row.sn, rows[n].sn);
    ++n;
  }
  EXPECT_EQ(n, rows.size());
  // Next past the end stays at end.
  auto more = cursor.Next(&row);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(SegmentAtomicWrite, LeavesNoTempFileBehind) {
  ScratchDir dir("atomic");
  WriteSegment(dir.path, {MakeRow(1, 1, "a")});
  size_t tmp = 0, seg = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    if (entry.path().extension() == io::kTempSuffix) ++tmp;
    if (entry.path().extension() == kSegmentSuffix) ++seg;
  }
  EXPECT_EQ(tmp, 0u);
  EXPECT_EQ(seg, 1u);
}

TEST(SegmentOpen, MissingFileFailsClosed) {
  auto reader = SegmentReader::Open("/nonexistent/dir/seg.seg");
  EXPECT_FALSE(reader.ok());
}

TEST(SegmentOpen, EmptyFileFailsClosed) {
  ScratchDir dir("empty");
  const std::string path = (fs::path(dir.path) / "seg.seg").string();
  std::ofstream(path).close();
  auto reader = SegmentReader::Open(path);
  EXPECT_FALSE(reader.ok());
}

TEST(SegmentOpen, BadMagicFailsClosed) {
  ScratchDir dir("magic");
  const std::string path = WriteSegment(dir.path, {MakeRow(1, 1, "a")});
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in), {});
  }
  data[0] = 'X';
  ASSERT_TRUE(io::AtomicWriteFile(path, data).ok());
  auto reader = SegmentReader::Open(path);
  EXPECT_FALSE(reader.ok());
}

// A segment image assembled field by field (not through SegmentEncoder),
// so tests can state SN deltas the encoder would never produce.
std::string HandBuiltSegment(SeqNum base_sn, SeqNum last_sn,
                             const std::vector<uint64_t>& sn_deltas) {
  checkpoint::Writer payload;
  for (uint64_t delta : sn_deltas) {
    payload.WriteVarint(delta);
    payload.WriteTuple(Tuple{Value(int64_t{1}), Value("x")});
  }
  checkpoint::Writer image;
  image.WriteU32(kSegmentMagic);
  image.WriteU32(kSegmentVersion);
  image.WriteU32(7);
  image.WriteU32(static_cast<uint32_t>(sn_deltas.size()));
  image.WriteU64(base_sn);
  image.WriteU64(last_sn);
  image.WriteU32(static_cast<uint32_t>(payload.buffer().size()));
  uint32_t crc = Crc32c(image.buffer());
  crc = Crc32cExtend(crc, payload.buffer().data(), payload.buffer().size());
  image.WriteU32(crc);
  std::string out = image.release();
  out += payload.buffer();
  return out;
}

// An SN delta that wraps the 64-bit SN space lands below its predecessor;
// the header's last_sn agrees with the wrapped value, so only the
// monotonicity check can catch it.
TEST(SegmentOpen, WrappingSnDeltaFailsClosed) {
  ScratchDir dir("wrap");
  const std::string path = (fs::path(dir.path) / "seg.seg").string();
  const uint64_t wrap = ~uint64_t{0} - 49;  // 100 + wrap == 50 (mod 2^64)
  ASSERT_TRUE(
      io::AtomicWriteFile(path, HandBuiltSegment(100, 50, {0, wrap})).ok());
  auto reader = SegmentReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().ToString().find("decreasing SNs"),
            std::string::npos)
      << reader.status().ToString();
}

}  // namespace
}  // namespace store
}  // namespace chronicle
