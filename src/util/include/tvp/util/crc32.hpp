// CRC-32 (ISO 3309, zlib polynomial 0xEDB88320).
//
// One implementation for every on-disk integrity check in the tree (the
// campaign journal, the trace corpus), where a CRC pass over every block
// is part of the corpus record and replay paths. On an x86-64 CPU with
// PCLMULQDQ (checked once, at run time: the build targets baseline
// x86-64) the kernel folds 64-byte blocks by carry-less multiplication,
// four 128-bit lanes at a time, and reduces the remainder to 32 bits
// with a Barrett step; slicing-by-16 tables, sixteen bytes per table
// round, take the tail, inputs under 64 bytes and every other CPU. Both
// paths compute the same function.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace tvp::util {

/// CRC-32 of @p size bytes at @p data, seeded with @p seed (pass the
/// running value to checksum a stream in chunks; 0 for a fresh sum).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0) noexcept;

/// Convenience overload for string payloads.
inline std::uint32_t crc32(std::string_view data,
                           std::uint32_t seed = 0) noexcept {
  return crc32(data.data(), data.size(), seed);
}

}  // namespace tvp::util
