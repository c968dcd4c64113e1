// CRC-32C (Castagnoli) checksums for on-disk integrity checking.
//
// Used by the write-ahead log (src/wal) to frame records, by the
// durability manager to validate checkpoint images before applying them,
// and by the tiered store (src/store) to seal and validate segments. On
// x86-64 CPUs with SSE4.2 the checksum runs on the `crc32` instruction,
// eight bytes per step; elsewhere a table-driven loop computes the same
// values a byte at a time. The choice is made once, at the first call, so
// the build needs no target flags. The polynomial matches iSCSI/RocksDB
// (0x1EDC6F41), so test vectors from those ecosystems apply.

#ifndef CHRONICLE_COMMON_CRC32_H_
#define CHRONICLE_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace chronicle {

// One-shot CRC-32C of a byte range.
uint32_t Crc32c(const void* data, size_t n);
inline uint32_t Crc32c(std::string_view s) { return Crc32c(s.data(), s.size()); }

// Incremental form: pass the previous return value as `seed` to extend a
// checksum across multiple buffers. Start from 0.
uint32_t Crc32cExtend(uint32_t seed, const void* data, size_t n);

}  // namespace chronicle

#endif  // CHRONICLE_COMMON_CRC32_H_
