// Implementation detail of common/crc32, exposed so tests can hold the
// hardware path to the portable one. Production code calls Crc32cExtend.

#ifndef CHRONICLE_COMMON_CRC32_INTERNAL_H_
#define CHRONICLE_COMMON_CRC32_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace chronicle {
namespace internal {

// The table-driven fallback; same contract as Crc32cExtend.
uint32_t Crc32cExtendPortable(uint32_t seed, const void* data, size_t n);

}  // namespace internal
}  // namespace chronicle

#endif  // CHRONICLE_COMMON_CRC32_INTERNAL_H_
