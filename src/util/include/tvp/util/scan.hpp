// First-match scan for the small associative tables on the ACT hot path
// (history table, CaPRoMi counters, MRLoc queue, TWiCe and Graphene —
// a few to a few hundred live entries, probed once or twice per
// activation).
//
// Where SSE2 is available (every x86-64 target) find_u32 tests 16 keys
// at a time: four 4-wide equality compares, each reduced to 4 bits with
// movmsk and merged into one 16-bit mask whose lowest set bit is the
// first match. A table of 4 to 15 keys is one such mask, built from
// windows clamped to end at n; a longer table runs whole 16-key blocks
// and re-reads its last partial block as the final 16 keys. Overlapping
// windows only repeat bits of keys that were already tested, so no load
// leaves [data, data + n) and a table of fewer than 16 keys costs one
// branch. The scalar loop handles n < 4 and is the whole scan on other
// targets. Semantics are exactly "index of first match, or n"
// (Scan.FindU32MatchesScalarReference holds every length and alignment
// to a plain loop).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace tvp::util {

inline std::size_t find_u32(const std::uint32_t* data, std::size_t n,
                            std::uint32_t needle) noexcept {
#if defined(__SSE2__)
  if (n >= 4) {
    const __m128i key = _mm_set1_epi32(static_cast<int>(needle));
    // Bit k is set when data[at + k] == needle (k < 4).
    const auto match4 = [&](std::size_t at) {
      const __m128i keys =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + at));
      return static_cast<unsigned>(
          _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(keys, key))));
    };
    // Bit k is set when data[at + k] == needle (k < 16; at + 16 <= n).
    const auto match16 = [&](std::size_t at) {
      return match4(at) | match4(at + 4) << 4 | match4(at + 8) << 8 |
             match4(at + 12) << 12;
    };
    const auto first = [&](std::size_t at, unsigned mask) {
      return mask != 0 ? at + static_cast<std::size_t>(__builtin_ctz(mask))
                       : n;
    };
    if (n < 16) {
      const std::size_t last = n - 4;
      const std::size_t w1 = std::min<std::size_t>(4, last);
      const std::size_t w2 = std::min<std::size_t>(8, last);
      return first(0, match4(0) | match4(w1) << w1 | match4(w2) << w2 |
                          match4(last) << last);
    }
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16)
      if (const unsigned mask = match16(i)) return first(i, mask);
    return i == n ? n : first(n - 16, match16(n - 16));
  }
#endif
  for (std::size_t i = 0; i < n; ++i)
    if (data[i] == needle) return i;
  return n;
}

/// Read-prefetch hint for the columnar kernels: pull the cache line of
/// @p addr toward L1 a few iterations ahead of its use. Compiles to a
/// single prefetch instruction where supported and to nothing elsewhere;
/// a null/garbage address is allowed (prefetch never faults).
inline void prefetch_read(const void* addr) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
  (void)addr;
#endif
}

}  // namespace tvp::util
