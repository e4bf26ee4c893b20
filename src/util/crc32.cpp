#include "tvp/util/crc32.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace tvp::util {

namespace {

// Sixteen derived tables: table[0] is the classic byte-at-a-time table,
// table[k][b] is the CRC of byte b followed by k zero bytes. Sixteen
// lookups then advance the sum by sixteen input bytes at once ("slicing
// by 16"), which keeps two independent 8-byte dependency chains in
// flight per iteration.
struct Tables {
  std::uint32_t t[16][256];
};

Tables make_tables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables.t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i)
    for (int k = 1; k < 16; ++k)
      tables.t[k][i] =
          tables.t[0][tables.t[k - 1][i] & 0xFFu] ^ (tables.t[k - 1][i] >> 8);
  return tables;
}

/// Advances the (inverted) CRC register @p c over @p size bytes.
std::uint32_t crc32_tables(const unsigned char* p, std::size_t size,
                           std::uint32_t c) noexcept {
  static const Tables tables = make_tables();
  const auto* t = tables.t;
  while (size >= 16) {
    // Little-endian loads of the next sixteen bytes; memcpy keeps the
    // reads aligned-safe and compiles to single movs.
    std::uint64_t lo, hi;
    std::memcpy(&lo, p, 8);
    std::memcpy(&hi, p + 8, 8);
    lo ^= c;
    c = t[15][lo & 0xFFu] ^ t[14][(lo >> 8) & 0xFFu] ^
        t[13][(lo >> 16) & 0xFFu] ^ t[12][(lo >> 24) & 0xFFu] ^
        t[11][(lo >> 32) & 0xFFu] ^ t[10][(lo >> 40) & 0xFFu] ^
        t[9][(lo >> 48) & 0xFFu] ^ t[8][(lo >> 56) & 0xFFu] ^
        t[7][hi & 0xFFu] ^ t[6][(hi >> 8) & 0xFFu] ^
        t[5][(hi >> 16) & 0xFFu] ^ t[4][(hi >> 24) & 0xFFu] ^
        t[3][(hi >> 32) & 0xFFu] ^ t[2][(hi >> 40) & 0xFFu] ^
        t[1][(hi >> 48) & 0xFFu] ^ t[0][(hi >> 56) & 0xFFu];
    p += 16;
    size -= 16;
  }
  while (size >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    chunk ^= c;
    c = t[7][chunk & 0xFFu] ^ t[6][(chunk >> 8) & 0xFFu] ^
        t[5][(chunk >> 16) & 0xFFu] ^ t[4][(chunk >> 24) & 0xFFu] ^
        t[3][(chunk >> 32) & 0xFFu] ^ t[2][(chunk >> 40) & 0xFFu] ^
        t[1][(chunk >> 48) & 0xFFu] ^ t[0][(chunk >> 56) & 0xFFu];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) c = t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)
#define TVP_CLMUL __attribute__((target("pclmul,sse4.1")))

TVP_CLMUL __m128i load128(const unsigned char* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// x.lo * k.lo xor x.hi * k.hi: moves a 128-bit lane on by the distance
/// whose folding factors @p k holds.
TVP_CLMUL __m128i fold128(__m128i x, __m128i k) noexcept {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

/// Advances the (inverted) CRC register @p c over @p size bytes, a
/// nonzero multiple of 64, by carry-less multiplication: four 128-bit
/// lanes fold 64 bytes per round, are folded into one, and a Barrett
/// reduction takes the 64-bit remainder to 32 bits. The constants are
/// the bit-reflected x^k mod P(x) folding factors, P'(x) and the Barrett
/// quotient of Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009).
TVP_CLMUL std::uint32_t crc32_clmul(const unsigned char* p, std::size_t size,
                                    std::uint32_t c) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load128(p + 16);
  __m128i x3 = load128(p + 32);
  __m128i x4 = load128(p + 48);
  for (p += 64, size -= 64; size > 0; p += 64, size -= 64) {
    x1 = _mm_xor_si128(fold128(x1, k1k2), load128(p));
    x2 = _mm_xor_si128(fold128(x2, k1k2), load128(p + 16));
    x3 = _mm_xor_si128(fold128(x3, k1k2), load128(p + 32));
    x4 = _mm_xor_si128(fold128(x4, k1k2), load128(p + 48));
  }
  x1 = _mm_xor_si128(fold128(x1, k3k4), x2);
  x1 = _mm_xor_si128(fold128(x1, k3k4), x3);
  x1 = _mm_xor_si128(fold128(x1, k3k4), x4);

  // 128 -> 64 bits, then 64 -> 32 by Barrett reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}

bool cpu_has_clmul() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
#endif

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
#if defined(__x86_64__)
  // The build targets baseline x86-64, so the fold is chosen per CPU.
  static const bool clmul = cpu_has_clmul();
  if (clmul && size >= 64) {
    const std::size_t folded = size & ~std::size_t{63};
    c = crc32_clmul(p, folded, c);
    p += folded;
    size -= folded;
  }
#endif
  return crc32_tables(p, size, c) ^ 0xFFFFFFFFu;
}

}  // namespace tvp::util
