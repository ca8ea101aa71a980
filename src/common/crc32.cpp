#include "common/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FMX_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace fmx {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;  // reflected IEEE 802.3

// Slice-by-8 (Intel, "Novel Table Lookup-Based Algorithms for High-
// Performance CRC Generation"): tables[k][b] is the CRC contribution of
// byte b positioned k bytes before the end of an 8-byte block, so eight
// independent lookups advance the CRC a full 8 bytes per iteration.
// tables[0] is the classic bytewise table.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

#ifdef FMX_CRC32_CLMUL

// The helpers carry the kernel's target attribute too: the intrinsics only
// inline into functions compiled for PCLMUL/SSE4.1 (a lambda would not
// inherit the attribute).
[[gnu::target("pclmul,sse4.1")]] inline __m128i load128(const std::byte* q) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
}

// Carries the 128-bit remainder x forward by the distance the two halves
// of k encode and adds the block found there.
[[gnu::target("pclmul,sse4.1")]] inline __m128i fold128(__m128i x, __m128i k,
                                                        __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11),
                                     _mm_clmulepi64_si128(x, k, 0x00)),
                       next);
}

// Carry-less-multiply folding (Gopal et al., Intel, "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction", 2009), in the
// bit-reflected domain of kPoly. Four 128-bit lanes each fold 64 bytes
// ahead per iteration (k1k2), the lanes then fold into one (k3k4, 16 bytes
// ahead), remaining 16-byte blocks fold in one at a time, and the 128-bit
// remainder is reduced to 64 bits (k5) and Barrett-reduced to 32 (poly:
// P and mu). The constants are the paper's, as used by zlib's
// crc32_sse42_simd_. Needs n >= 64 and n % 16 == 0; takes and returns the
// raw CRC register, like crc32_update.
[[gnu::target("pclmul,sse4.1")]] std::uint32_t crc32_fold_clmul(
    std::uint32_t state, const std::byte* p, std::size_t n) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load128(p + 16);
  __m128i x3 = load128(p + 32);
  __m128i x4 = load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold128(x1, k1k2, load128(p));
    x2 = fold128(x2, k1k2, load128(p + 16));
    x3 = fold128(x3, k1k2, load128(p + 32));
    x4 = fold128(x4, k1k2, load128(p + 48));
  }
  x1 = fold128(x1, k3k4, x2);
  x1 = fold128(x1, k3k4, x3);
  x1 = fold128(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold128(x1, k3k4, load128(p));

  // 128 -> 64 bits, then 64 -> 32 via k5.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool cpu_has_clmul() noexcept {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

#endif  // FMX_CRC32_CLMUL

}  // namespace

namespace detail {

std::uint32_t crc32_update_bytewise(std::uint32_t state,
                                    std::span<const std::byte> data) noexcept {
  for (std::byte b : data) {
    state = kTables[0][(state ^ static_cast<std::uint8_t>(b)) & 0xFFu] ^
            (state >> 8);
  }
  return state;
}

std::uint32_t crc32_update_slice8(std::uint32_t state,
                                  std::span<const std::byte> data) noexcept {
  const std::byte* p = data.data();
  std::size_t n = data.size();

  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint64_t word;
      std::memcpy(&word, p, 8);
      word ^= state;
      state = kTables[7][word & 0xFFu] ^
              kTables[6][(word >> 8) & 0xFFu] ^
              kTables[5][(word >> 16) & 0xFFu] ^
              kTables[4][(word >> 24) & 0xFFu] ^
              kTables[3][(word >> 32) & 0xFFu] ^
              kTables[2][(word >> 40) & 0xFFu] ^
              kTables[1][(word >> 48) & 0xFFu] ^
              kTables[0][(word >> 56) & 0xFFu];
      p += 8;
      n -= 8;
    }
  }
  return crc32_update_bytewise(state, {p, n});
}

}  // namespace detail

std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::byte> data) noexcept {
#ifdef FMX_CRC32_CLMUL
  if (data.size() >= 64 && cpu_has_clmul()) {
    const std::size_t folded = data.size() & ~std::size_t{15};
    state = crc32_fold_clmul(state, data.data(), folded);
    data = data.subspan(folded);
  }
#endif
  return detail::crc32_update_slice8(state, data);
}

std::uint32_t crc32(std::span<const std::byte> data) noexcept {
  return crc32_final(crc32_update(crc32_init(), data));
}

}  // namespace fmx
