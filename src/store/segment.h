// Segment files: the on-disk unit of the warm tier.
//
// A segment is an immutable, CRC-protected run of chronicle rows:
//
//   ┌──────────────────────────── header (40 bytes) ───────────────────────┐
//   │ magic "CSEG" u32 │ version u32 │ chronicle_id u32 │ row_count u32    │
//   │ base_sn u64      │ last_sn u64 │ payload_bytes u32 │ payload_crc u32 │
//   └──────────────────────────────────────────────────────────────────────┘
//   payload: row_count × ( varint sn_delta ‖ serde tuple )
//
// Sequence numbers are delta-encoded against the previous row (base_sn for
// the first), so a dense append stream costs one byte per row of SN
// overhead. Tuples reuse checkpoint/serde's length-prefixed encoding. The
// CRC is CRC-32C over the first 36 header bytes (everything before the CRC
// field) followed by the payload, and the header fields are additionally
// cross-checked against the decoded payload at open, so any truncation,
// tear, or bit flip fails closed with a clean Status.
//
// Files are written with io::AtomicWriteFile; a crash mid-seal leaves at
// most a stray temp file (removed at attach), never a torn segment.

#ifndef CHRONICLE_STORE_SEGMENT_H_
#define CHRONICLE_STORE_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "checkpoint/serde.h"
#include "common/status.h"
#include "storage/chronicle.h"
#include "types/tuple.h"

namespace chronicle {
namespace store {

inline constexpr uint32_t kSegmentMagic = 0x47455343;  // "CSEG" little-endian
inline constexpr uint32_t kSegmentVersion = 1;
inline constexpr size_t kSegmentHeaderBytes = 40;
inline constexpr char kSegmentSuffix[] = ".seg";

struct SegmentHeader {
  uint32_t chronicle_id = 0;
  uint32_t row_count = 0;
  SeqNum base_sn = 0;
  SeqNum last_sn = 0;
  uint32_t payload_bytes = 0;
  uint32_t payload_crc = 0;
};

// `seg-<base_sn, zero-padded>.seg`, so lexicographic order is SN order.
std::string SegmentFileName(SeqNum base_sn);

// Incrementally encodes one segment image. Rows must arrive oldest first
// with non-decreasing sequence numbers. Every row is appended straight into
// the image buffer behind a placeholder header, which Finish fills in, so
// the payload is written once and never copied.
class SegmentEncoder {
 public:
  explicit SegmentEncoder(uint32_t chronicle_id);

  // Pre-sizes the image for `payload_bytes` of rows (see RowBytes).
  void Reserve(size_t payload_bytes);
  void Add(const ChronicleRow& row);

  // Exact payload bytes Add appends for `row` when the previous row's SN
  // is `prev_sn` (the first row's delta is 0).
  static size_t RowBytes(const ChronicleRow& row, SeqNum prev_sn);

  uint32_t rows() const { return rows_; }
  size_t payload_bytes() const;
  SeqNum first_sn() const { return first_sn_; }
  SeqNum last_sn() const { return last_sn_; }

  // Produces the complete file image (header + payload); the encoder is
  // spent afterwards. Requires at least one row.
  std::string Finish();

 private:
  uint32_t chronicle_id_;
  uint32_t rows_ = 0;
  SeqNum first_sn_ = 0;
  SeqNum last_sn_ = 0;
  checkpoint::Writer image_;
};

// An mmap-backed, fully validated segment. Open() checks magic, version,
// size and CRC, and walks every row once (verifying that each decodes, the
// row count, and SN monotonicity, and totalling raw_bytes); after a
// successful Open the accessors and Scan cannot fail. Open then releases
// the validated pages from the process (they stay in the page cache), so a
// sealed segment costs no resident memory until a scan faults its pages
// back in.
class SegmentReader {
 public:
  ~SegmentReader();

  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  // Maps and validates the segment at `path`. Fails closed (kDataLoss /
  // kParseError) on any corruption; never returns a partially usable
  // reader.
  static Result<std::unique_ptr<SegmentReader>> Open(const std::string& path);

  const SegmentHeader& header() const { return header_; }
  const std::string& path() const { return path_; }
  // Bytes on disk (header + payload).
  uint64_t file_bytes() const { return mapped_bytes_; }
  // In-memory-equivalent bytes of the decoded rows: per row, the
  // ChronicleRow plus its SkipTuple footprint. The denominator of the warm
  // tier's compression ratio; a pure function of the file's content.
  uint64_t raw_bytes() const { return raw_bytes_; }

  // Applies `fn` to every row, oldest first.
  template <typename Visitor>
  Status Scan(Visitor&& fn) const {
    Cursor cursor(this);
    ChronicleRow row;
    while (true) {
      CHRONICLE_ASSIGN_OR_RETURN(bool more, cursor.Next(&row));
      if (!more) return Status::OK();
      fn(row);
    }
  }

  // Pull-based row iterator for merge scans (backfill).
  class Cursor {
   public:
    explicit Cursor(const SegmentReader* reader);
    // Decodes the next row into `out`; false at end of segment. Decode
    // errors are impossible after a successful Open but still surface as a
    // Status rather than undefined behavior.
    Result<bool> Next(ChronicleRow* out);

   private:
    const SegmentReader* reader_;
    size_t offset_ = 0;  // into the payload
    uint32_t row_ = 0;
    SeqNum prev_sn_ = 0;
  };

 private:
  SegmentReader() = default;

  std::string_view payload() const;

  std::string path_;
  SegmentHeader header_;
  const char* mapped_ = nullptr;
  size_t mapped_bytes_ = 0;
  uint64_t raw_bytes_ = 0;
};

}  // namespace store
}  // namespace chronicle

#endif  // CHRONICLE_STORE_SEGMENT_H_
