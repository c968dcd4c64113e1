#include "common/crc32.h"

#include <array>
#include <cstring>

#include "common/crc32_internal.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define CHRONICLE_CRC32C_SSE42 1
#endif

namespace chronicle {

namespace {

// Reflected CRC-32C table, generated once at first use.
const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    constexpr uint32_t kPoly = 0x82F63B78;  // reflected 0x1EDC6F41
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

#ifdef CHRONICLE_CRC32C_SSE42
// The `crc32` instruction computes the same reflected Castagnoli CRC as
// the table; compiled for SSE4.2 here only, and called only after the CPU
// reported support.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t seed,
                                                       const void* data,
                                                       size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t crc = ~seed;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  for (; n > 0; --n) crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
  return ~static_cast<uint32_t>(crc);
}
#endif

ExtendFn SelectExtend() {
#ifdef CHRONICLE_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &ExtendSse42;
#endif
  return &internal::Crc32cExtendPortable;
}

}  // namespace

namespace internal {

uint32_t Crc32cExtendPortable(uint32_t seed, const void* data, size_t n) {
  const auto& table = Table();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace internal

uint32_t Crc32cExtend(uint32_t seed, const void* data, size_t n) {
  static const ExtendFn extend = SelectExtend();
  return extend(seed, data, n);
}

uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace chronicle
