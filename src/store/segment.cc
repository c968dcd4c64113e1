#include "store/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "checkpoint/serde.h"
#include "common/crc32.h"

namespace chronicle {
namespace store {

namespace {

Status IoError(const std::string& what, const std::string& path) {
  return Status::DataLoss(what + " of '" + path +
                          "' failed: " + std::strerror(errno));
}

void EncodeHeader(const SegmentHeader& h, char out[kSegmentHeaderBytes]) {
  checkpoint::Writer w;
  w.Reserve(kSegmentHeaderBytes);
  w.WriteU32(kSegmentMagic);
  w.WriteU32(kSegmentVersion);
  w.WriteU32(h.chronicle_id);
  w.WriteU32(h.row_count);
  w.WriteU64(h.base_sn);
  w.WriteU64(h.last_sn);
  w.WriteU32(h.payload_bytes);
  w.WriteU32(h.payload_crc);
  std::memcpy(out, w.buffer().data(), kSegmentHeaderBytes);
}

}  // namespace

std::string SegmentFileName(SeqNum base_sn) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "seg-%020llu%s",
                static_cast<unsigned long long>(base_sn), kSegmentSuffix);
  return buf;
}

SegmentEncoder::SegmentEncoder(uint32_t chronicle_id)
    : chronicle_id_(chronicle_id) {}

void SegmentEncoder::Add(const ChronicleRow& row) {
  if (rows_ == 0) {
    first_sn_ = row.sn;
    last_sn_ = row.sn;
  }
  checkpoint::Writer w;
  w.Reserve(16 + row.values.size() * 12);
  w.WriteVarint(row.sn - last_sn_);
  w.WriteTuple(row.values);
  payload_.append(w.buffer());
  last_sn_ = row.sn;
  ++rows_;
}

size_t SegmentEncoder::payload_bytes() const { return payload_.size(); }

std::string SegmentEncoder::Finish() {
  SegmentHeader h;
  h.chronicle_id = chronicle_id_;
  h.row_count = rows_;
  h.base_sn = first_sn_;
  h.last_sn = last_sn_;
  h.payload_bytes = static_cast<uint32_t>(payload_.size());
  // The CRC covers every header byte before the CRC field itself, then the
  // payload — so a flip anywhere in the file fails closed at Open.
  char header[kSegmentHeaderBytes];
  h.payload_crc = 0;
  EncodeHeader(h, header);
  uint32_t crc = Crc32c(header, kSegmentHeaderBytes - sizeof(uint32_t));
  crc = Crc32cExtend(crc, payload_.data(), payload_.size());
  h.payload_crc = crc;
  EncodeHeader(h, header);
  std::string image;
  image.reserve(kSegmentHeaderBytes + payload_.size());
  image.append(header, kSegmentHeaderBytes);
  image.append(payload_);
  payload_.clear();
  rows_ = 0;
  return image;
}

SegmentReader::~SegmentReader() {
  if (mapped_ != nullptr) {
    ::munmap(const_cast<char*>(mapped_), mapped_bytes_);
  }
}

std::string_view SegmentReader::payload() const {
  return std::string_view(mapped_ + kSegmentHeaderBytes,
                          header_.payload_bytes);
}

Result<std::unique_ptr<SegmentReader>> SegmentReader::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return IoError("open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = IoError("fstat", path);
    ::close(fd);
    return s;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < kSegmentHeaderBytes) {
    ::close(fd);
    return Status::DataLoss("segment " + path + " truncated: " +
                            std::to_string(size) + " bytes, header needs " +
                            std::to_string(kSegmentHeaderBytes));
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) return IoError("mmap", path);

  auto reader = std::unique_ptr<SegmentReader>(new SegmentReader());
  reader->path_ = path;
  reader->mapped_ = static_cast<const char*>(map);
  reader->mapped_bytes_ = size;

  checkpoint::Reader h =
      checkpoint::Reader::Borrowed({reader->mapped_, kSegmentHeaderBytes});
  uint32_t magic = h.ReadU32().value();
  uint32_t version = h.ReadU32().value();
  SegmentHeader& header = reader->header_;
  header.chronicle_id = h.ReadU32().value();
  header.row_count = h.ReadU32().value();
  header.base_sn = h.ReadU64().value();
  header.last_sn = h.ReadU64().value();
  header.payload_bytes = h.ReadU32().value();
  header.payload_crc = h.ReadU32().value();
  if (magic != kSegmentMagic) {
    return Status::DataLoss("segment " + path + " has bad magic");
  }
  if (version != kSegmentVersion) {
    return Status::DataLoss("segment " + path + " has unsupported version " +
                            std::to_string(version));
  }
  if (kSegmentHeaderBytes + static_cast<uint64_t>(header.payload_bytes) !=
      size) {
    return Status::DataLoss(
        "segment " + path + " size mismatch: header claims " +
        std::to_string(header.payload_bytes) + " payload bytes, file has " +
        std::to_string(size - kSegmentHeaderBytes));
  }
  const std::string_view payload = reader->payload();
  uint32_t crc =
      Crc32c(reader->mapped_, kSegmentHeaderBytes - sizeof(uint32_t));
  crc = Crc32cExtend(crc, payload.data(), payload.size());
  if (crc != header.payload_crc) {
    return Status::DataLoss("segment " + path + " CRC mismatch");
  }
  if (header.row_count == 0) {
    return Status::DataLoss("segment " + path + " has zero rows");
  }
  // One full decode pass: proves every row is readable and the header's
  // row count and SN range are consistent with the payload.
  Cursor cursor(reader.get());
  ChronicleRow row;
  uint32_t decoded = 0;
  SeqNum prev = header.base_sn;
  while (true) {
    CHRONICLE_ASSIGN_OR_RETURN(bool more, cursor.Next(&row));
    if (!more) break;
    if (row.sn < prev) {
      return Status::DataLoss("segment " + path + " has decreasing SNs");
    }
    prev = row.sn;
    ++decoded;
  }
  if (decoded != header.row_count || prev != header.last_sn) {
    return Status::DataLoss("segment " + path +
                            " payload disagrees with header");
  }
  return reader;
}

SegmentReader::Cursor::Cursor(const SegmentReader* reader)
    : reader_(reader), prev_sn_(reader->header_.base_sn) {}

Result<bool> SegmentReader::Cursor::Next(ChronicleRow* out) {
  if (row_ >= reader_->header_.row_count) return false;
  const std::string_view payload = reader_->payload();
  if (offset_ >= payload.size()) {
    return Status::DataLoss("segment " + reader_->path_ +
                            " payload ends before row " +
                            std::to_string(row_));
  }
  checkpoint::Reader r =
      checkpoint::Reader::Borrowed(payload.substr(offset_));
  CHRONICLE_ASSIGN_OR_RETURN(uint64_t delta, r.ReadVarint());
  CHRONICLE_ASSIGN_OR_RETURN(Tuple values, r.ReadTuple());
  out->sn = prev_sn_ + delta;
  out->values = std::move(values);
  prev_sn_ = out->sn;
  offset_ += r.position();
  ++row_;
  return true;
}

}  // namespace store
}  // namespace chronicle
