// CRC-32 (IEEE 802.3 polynomial, reflected), used to model Myrinet's
// per-packet CRC. Packets really carry and verify this checksum so the
// bit-error-injection tests can observe genuine detection behaviour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace fmx {

/// Incremental CRC-32. `crc32(data)` computes the checksum of a whole
/// buffer; the (seed, data) overload allows chunked computation:
///   crc = crc32_update(crc32_init(), chunk1); crc = crc32_update(crc, chunk2);
///   value = crc32_final(crc);
/// On x86-64 CPUs with PCLMULQDQ, inputs of 64 bytes or more are folded
/// 16 bytes at a time with carry-less multiplies; the remaining tail (and
/// every input elsewhere) goes through slice-by-8 (eight table lookups
/// advance the state a full 8-byte word) and a bytewise loop. Chunk
/// boundaries and the path taken do not affect the result.
std::uint32_t crc32(std::span<const std::byte> data) noexcept;

constexpr std::uint32_t crc32_init() noexcept { return 0xFFFFFFFFu; }
std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::byte> data) noexcept;
constexpr std::uint32_t crc32_final(std::uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFu;
}

namespace detail {
/// One-byte-at-a-time reference implementation; kept for tests (the fast
/// paths must agree on every input) and as the tail loop of slice-by-8.
std::uint32_t crc32_update_bytewise(std::uint32_t state,
                                    std::span<const std::byte> data) noexcept;
/// The portable slice-by-8 path on its own: what crc32_update runs where
/// the carry-less-multiply kernel is unavailable, and on its tails.
std::uint32_t crc32_update_slice8(std::uint32_t state,
                                  std::span<const std::byte> data) noexcept;
}  // namespace detail

}  // namespace fmx
