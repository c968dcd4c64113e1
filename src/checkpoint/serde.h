// Minimal bounds-checked binary serialization for checkpoints and the
// tiered segment store.
//
// Little-endian fixed-width integers, IEEE-754 doubles, length-prefixed
// strings, LEB128 varints. Values carry a one-byte type tag. Not a wire
// format for interchange — a crash-recovery image read back by the same
// build.

#ifndef CHRONICLE_CHECKPOINT_SERDE_H_
#define CHRONICLE_CHECKPOINT_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "types/tuple.h"
#include "types/value.h"

namespace chronicle {
namespace checkpoint {

// Appends encoded data to an owned byte buffer.
class Writer {
 public:
  const std::string& buffer() const { return buffer_; }
  // Moves the encoded bytes out (the writer is spent afterwards).
  std::string release() { return std::move(buffer_); }
  // Pre-sizes the buffer (hot encoding paths pass a size estimate).
  void Reserve(size_t bytes) { buffer_.reserve(bytes); }

  void WriteU8(uint8_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteDouble(double v);
  void WriteString(const std::string& s);
  void WriteValue(const Value& v);
  void WriteTuple(const Tuple& t);
  // Unsigned LEB128: 1 byte for values < 128, ~2x smaller than WriteU64 on
  // delta-encoded sequence numbers (the segment store's row headers).
  void WriteVarint(uint64_t v);

  // Exact bytes WriteTuple / WriteVarint append, for callers that reserve
  // one buffer up front.
  static size_t TupleBytes(const Tuple& t);
  static size_t VarintBytes(uint64_t v);

 private:
  std::string buffer_;
};

// Consumes a byte buffer; every read is bounds-checked and returns a
// ParseError on truncation or a bad tag.
class Reader {
 public:
  explicit Reader(std::string buffer)
      : owned_(std::move(buffer)), data_(owned_) {}

  // A reader over bytes the caller keeps alive (e.g. an mmap'd segment
  // payload); nothing is copied.
  static Reader Borrowed(std::string_view data) { return Reader(data); }

  // `data_` may view `owned_`; moving would dangle. Construct in place
  // (prvalues returned by Borrowed are elided, not moved).
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  Result<Value> ReadValue();
  Result<Tuple> ReadTuple();
  Result<uint64_t> ReadVarint();
  // Advances past one tuple, applying exactly ReadTuple's checks (arity,
  // value tags, bounds) without materializing any value. Returns the
  // tuple's in-memory footprint: its value slots plus its string bytes
  // (sizes, not capacities, so it is a pure function of the encoding).
  Result<uint64_t> SkipTuple();

 private:
  explicit Reader(std::string_view data) : data_(data) {}

  Status Need(size_t bytes) const;

  std::string owned_;
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace checkpoint
}  // namespace chronicle

#endif  // CHRONICLE_CHECKPOINT_SERDE_H_
