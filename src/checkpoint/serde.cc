#include "checkpoint/serde.h"

#include <algorithm>
#include <cstring>

namespace chronicle {
namespace checkpoint {

namespace {
// Value type tags.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt64 = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;
}  // namespace

void Writer::WriteU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

void Writer::WriteU32(uint32_t v) {
  char bytes[4];
  std::memcpy(bytes, &v, 4);
  buffer_.append(bytes, 4);
}

void Writer::WriteU64(uint64_t v) {
  char bytes[8];
  std::memcpy(bytes, &v, 8);
  buffer_.append(bytes, 8);
}

void Writer::WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }

void Writer::WriteDouble(double v) {
  char bytes[8];
  std::memcpy(bytes, &v, 8);
  buffer_.append(bytes, 8);
}

void Writer::WriteString(const std::string& s) {
  WriteU32(static_cast<uint32_t>(s.size()));
  buffer_.append(s);
}

void Writer::WriteValue(const Value& v) {
  if (v.is_null()) {
    WriteU8(kTagNull);
  } else if (v.is_int64()) {
    WriteU8(kTagInt64);
    WriteI64(v.int64());
  } else if (v.is_double()) {
    WriteU8(kTagDouble);
    WriteDouble(v.dbl());
  } else {
    WriteU8(kTagString);
    WriteString(v.str());
  }
}

void Writer::WriteTuple(const Tuple& t) {
  WriteU32(static_cast<uint32_t>(t.size()));
  for (const Value& v : t) WriteValue(v);
}

void Writer::WriteVarint(uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buffer_.push_back(static_cast<char>(v));
}

size_t Writer::TupleBytes(const Tuple& t) {
  size_t bytes = 4 + t.size();  // arity + one tag per value
  for (const Value& v : t) {
    if (v.is_int64() || v.is_double()) {
      bytes += 8;
    } else if (v.is_string()) {
      bytes += 4 + v.str().size();
    }
  }
  return bytes;
}

size_t Writer::VarintBytes(uint64_t v) {
  size_t bytes = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++bytes;
  }
  return bytes;
}

Status Reader::Need(size_t bytes) const {
  if (pos_ + bytes > data_.size()) {
    return Status::ParseError("checkpoint truncated: need " +
                              std::to_string(bytes) + " bytes at offset " +
                              std::to_string(pos_));
  }
  return Status::OK();
}

Result<uint8_t> Reader::ReadU8() {
  CHRONICLE_RETURN_NOT_OK(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> Reader::ReadU32() {
  CHRONICLE_RETURN_NOT_OK(Need(4));
  uint32_t v;
  std::memcpy(&v, data_.data() + pos_, 4);
  pos_ += 4;
  return v;
}

Result<uint64_t> Reader::ReadU64() {
  CHRONICLE_RETURN_NOT_OK(Need(8));
  uint64_t v;
  std::memcpy(&v, data_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

Result<int64_t> Reader::ReadI64() {
  CHRONICLE_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<double> Reader::ReadDouble() {
  CHRONICLE_RETURN_NOT_OK(Need(8));
  double v;
  std::memcpy(&v, data_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

Result<std::string> Reader::ReadString() {
  CHRONICLE_ASSIGN_OR_RETURN(uint32_t size, ReadU32());
  CHRONICLE_RETURN_NOT_OK(Need(size));
  std::string s(data_.substr(pos_, size));
  pos_ += size;
  return s;
}

Result<Value> Reader::ReadValue() {
  CHRONICLE_ASSIGN_OR_RETURN(uint8_t tag, ReadU8());
  switch (tag) {
    case kTagNull:
      return Value();
    case kTagInt64: {
      CHRONICLE_ASSIGN_OR_RETURN(int64_t v, ReadI64());
      return Value(v);
    }
    case kTagDouble: {
      CHRONICLE_ASSIGN_OR_RETURN(double v, ReadDouble());
      return Value(v);
    }
    case kTagString: {
      CHRONICLE_ASSIGN_OR_RETURN(std::string s, ReadString());
      return Value(std::move(s));
    }
    default:
      return Status::ParseError("bad value tag " + std::to_string(tag) +
                                " in checkpoint");
  }
}

Result<uint64_t> Reader::ReadVarint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    CHRONICLE_ASSIGN_OR_RETURN(uint8_t byte, ReadU8());
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  return Status::ParseError("varint longer than 10 bytes at offset " +
                            std::to_string(pos_));
}

Result<Tuple> Reader::ReadTuple() {
  CHRONICLE_ASSIGN_OR_RETURN(uint32_t arity, ReadU32());
  Tuple t;
  // A corrupted arity must not trigger a giant allocation: every value
  // consumes at least one byte, so `remaining()` bounds the real arity.
  t.reserve(std::min<size_t>(arity, remaining()));
  for (uint32_t i = 0; i < arity; ++i) {
    CHRONICLE_ASSIGN_OR_RETURN(Value v, ReadValue());
    t.push_back(std::move(v));
  }
  return t;
}

Result<uint64_t> Reader::SkipTuple() {
  CHRONICLE_ASSIGN_OR_RETURN(uint32_t arity, ReadU32());
  uint64_t footprint = uint64_t{arity} * sizeof(Value);
  for (uint32_t i = 0; i < arity; ++i) {
    CHRONICLE_ASSIGN_OR_RETURN(uint8_t tag, ReadU8());
    switch (tag) {
      case kTagNull:
        break;
      case kTagInt64:
      case kTagDouble:
        CHRONICLE_RETURN_NOT_OK(Need(8));
        pos_ += 8;
        break;
      case kTagString: {
        CHRONICLE_ASSIGN_OR_RETURN(uint32_t size, ReadU32());
        CHRONICLE_RETURN_NOT_OK(Need(size));
        pos_ += size;
        footprint += size;
        break;
      }
      default:
        return Status::ParseError("bad value tag " + std::to_string(tag) +
                                  " in checkpoint");
    }
  }
  return footprint;
}


}  // namespace checkpoint
}  // namespace chronicle
