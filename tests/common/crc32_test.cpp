#include "common/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/buffer.hpp"

namespace fmx {
namespace {

ByteSpan span_of(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

TEST(Crc32, KnownVectors) {
  // Standard CRC-32 (IEEE) check values.
  EXPECT_EQ(crc32(span_of("")), 0x00000000u);
  EXPECT_EQ(crc32(span_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(span_of("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32, RocksoftModelVectors) {
  // The classic Rocksoft/zlib test battery for CRC-32/ISO-HDLC.
  EXPECT_EQ(crc32(span_of("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(span_of("abc")), 0x352441C2u);
  EXPECT_EQ(crc32(span_of("message digest")), 0x20159D7Fu);
  EXPECT_EQ(crc32(span_of("abcdefghijklmnopqrstuvwxyz")), 0x4C2750BDu);
  EXPECT_EQ(crc32(span_of("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuv"
                          "wxyz0123456789")),
            0x1FC2E6D2u);
  EXPECT_EQ(crc32(span_of("1234567890123456789012345678901234567890123456789"
                          "0123456789012345678901234567890")),
            0x7CA94A72u);
}

TEST(Crc32, NonAsciiVectors) {
  // Zero bytes and 0xFF runs are degenerate inputs where table-lookup or
  // reflection bugs show: known values from the reference implementation.
  const std::byte zeros[4] = {};
  EXPECT_EQ(crc32(ByteSpan{zeros}), 0x2144DF1Cu);
  std::byte ffs[4];
  std::memset(ffs, 0xFF, sizeof(ffs));
  EXPECT_EQ(crc32(ByteSpan{ffs}), 0xFFFFFFFFu);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Bytes data = pattern_bytes(7, 1000);
  auto whole = crc32(data);
  std::uint32_t st = crc32_init();
  st = crc32_update(st, ByteSpan{data}.subspan(0, 137));
  st = crc32_update(st, ByteSpan{data}.subspan(137, 600));
  st = crc32_update(st, ByteSpan{data}.subspan(737));
  EXPECT_EQ(crc32_final(st), whole);
}

TEST(Crc32, ByteAtATimeMatchesOneShot) {
  // The finest-grained chunking possible must agree with the one-shot CRC
  // (this is how the NIC model could stream a packet through the checker).
  Bytes data = pattern_bytes(13, 300);
  std::uint32_t st = crc32_init();
  for (std::size_t i = 0; i < data.size(); ++i) {
    st = crc32_update(st, ByteSpan{data}.subspan(i, 1));
  }
  EXPECT_EQ(crc32_final(st), crc32(data));
}

TEST(Crc32, EmptyUpdateIsIdentity) {
  Bytes data = pattern_bytes(21, 64);
  std::uint32_t st = crc32_init();
  st = crc32_update(st, ByteSpan{data});
  st = crc32_update(st, ByteSpan{});  // zero-length chunk changes nothing
  EXPECT_EQ(crc32_final(st), crc32(data));
}

TEST(Crc32, DetectsSingleBitFlip) {
  Bytes data = pattern_bytes(42, 256);
  auto good = crc32(data);
  for (std::size_t pos : {std::size_t{0}, std::size_t{100}, std::size_t{255}}) {
    Bytes bad = data;
    bad[pos] ^= std::byte{0x10};
    EXPECT_NE(crc32(bad), good) << "flip at " << pos;
  }
}

class Crc32Param : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Crc32Param, SplitInvariance) {
  // Property: CRC is invariant under any chunking of the input.
  const std::size_t len = 512;
  Bytes data = pattern_bytes(99, len);
  auto whole = crc32(data);
  std::size_t split = GetParam();
  std::uint32_t st = crc32_init();
  st = crc32_update(st, ByteSpan{data}.subspan(0, split));
  st = crc32_update(st, ByteSpan{data}.subspan(split));
  EXPECT_EQ(crc32_final(st), whole);
}

INSTANTIATE_TEST_SUITE_P(Splits, Crc32Param,
                         ::testing::Values(0, 1, 7, 64, 255, 256, 511, 512));

// crc32_update folds inputs of 64 bytes and more with carry-less multiplies
// where the CPU has them (16-byte blocks, four 16-byte lanes per 64 bytes)
// and leaves the tail to slice-by-8. The sweeps below cover every fold
// count, every tail length and every alignment against the bytewise
// reference, from the standard initial state, zero and an arbitrary one.
constexpr std::uint32_t kStates[] = {0xFFFFFFFFu, 0u, 0x9E3779B9u};

// ref[n] is the bytewise state after the first n bytes of data.
std::vector<std::uint32_t> bytewise_prefixes(std::uint32_t state,
                                             ByteSpan data) {
  std::vector<std::uint32_t> ref{state};
  for (std::size_t i = 0; i < data.size(); ++i) {
    ref.push_back(detail::crc32_update_bytewise(ref.back(),
                                                data.subspan(i, 1)));
  }
  return ref;
}

TEST(Crc32Kernel, MatchesBytewiseAtEveryLengthOffsetAndState) {
  constexpr std::size_t kMaxLen = 4096;
  const Bytes data = pattern_bytes(5, kMaxLen + 16);
  for (std::uint32_t state : kStates) {
    for (std::size_t off = 0; off < 16; ++off) {
      const ByteSpan buf = ByteSpan{data}.subspan(off, kMaxLen);
      const auto ref = bytewise_prefixes(state, buf);
      for (std::size_t n = 0; n <= kMaxLen; ++n) {
        ASSERT_EQ(crc32_update(state, buf.first(n)), ref[n])
            << "len " << n << " offset " << off << " state " << state;
      }
    }
  }
}

TEST(Crc32Kernel, MatchesBytewiseOnLargeBuffers) {
  const Bytes data = pattern_bytes(6, (1u << 20) + 16);
  for (std::size_t len : {std::size_t{64} << 10, std::size_t{1} << 20}) {
    for (std::size_t off : {0, 1, 8, 15}) {
      const ByteSpan buf = ByteSpan{data}.subspan(off, len);
      for (std::uint32_t state : kStates) {
        EXPECT_EQ(crc32_update(state, buf),
                  detail::crc32_update_bytewise(state, buf))
            << "len " << len << " offset " << off << " state " << state;
      }
    }
  }
}

TEST(Crc32Kernel, SplitAnywhereAcrossFoldBoundaries) {
  // Every two-cut split of 200 bytes: chunks land on both sides of the
  // 64-byte kernel threshold and of every 16-byte block edge.
  constexpr std::size_t kLen = 200;
  const Bytes data = pattern_bytes(8, kLen);
  const ByteSpan all{data};
  const std::uint32_t whole = crc32(all);
  for (std::size_t a = 0; a <= kLen; ++a) {
    for (std::size_t b = a; b <= kLen; ++b) {
      std::uint32_t st = crc32_update(crc32_init(), all.subspan(0, a));
      st = crc32_update(st, all.subspan(a, b - a));
      st = crc32_update(st, all.subspan(b));
      ASSERT_EQ(crc32_final(st), whole) << "cuts at " << a << ", " << b;
    }
  }
}

TEST(Crc32Kernel, SliceBy8FallbackMatchesBytewise) {
  // The portable path, called directly so it stays covered on hosts where
  // crc32_update takes the carry-less-multiply kernel.
  EXPECT_EQ(crc32_final(detail::crc32_update_slice8(crc32_init(),
                                                    span_of("123456789"))),
            0xCBF43926u);
  constexpr std::size_t kMaxLen = 1024;
  const Bytes data = pattern_bytes(9, kMaxLen + 8);
  for (std::uint32_t state : kStates) {
    for (std::size_t off = 0; off < 8; ++off) {
      const ByteSpan buf = ByteSpan{data}.subspan(off, kMaxLen);
      const auto ref = bytewise_prefixes(state, buf);
      for (std::size_t n = 0; n <= kMaxLen; ++n) {
        ASSERT_EQ(detail::crc32_update_slice8(state, buf.first(n)), ref[n])
            << "len " << n << " offset " << off << " state " << state;
      }
    }
  }
}

}  // namespace
}  // namespace fmx
