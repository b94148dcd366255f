#include "core/checksum.hpp"

#include <gtest/gtest.h>

#include <array>

#include "core/checksum_kernels.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

using test::random_bytes;

// Byte-at-a-time CRC-32C, the oracle both production kernels must match.
std::uint32_t crc32c_bytewise(ByteView data, std::uint32_t seed = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  for (const std::uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

// Adler-32 with the modulo taken after every byte (RFC 1950's definition).
std::uint32_t adler32_naive(ByteView data, std::uint32_t seed = 1) {
  std::uint32_t a = seed & 0xFFFF, b = (seed >> 16) & 0xFFFF;
  for (const std::uint8_t byte : data) {
    a = (a + byte) % 65521;
    b = (b + a) % 65521;
  }
  return (b << 16) | a;
}

TEST(Adler32, KnownVectors) {
  // RFC 1950 initial value: empty input hashes to 1.
  EXPECT_EQ(adler32(ByteView{}), 1u);
  // "Wikipedia" is the classic reference vector.
  const Bytes wiki = to_bytes("Wikipedia");
  EXPECT_EQ(adler32(wiki), 0x11E60398u);
}

TEST(Adler32, DetectsSingleByteChange) {
  Bytes data = random_bytes(1, 4096);
  const std::uint32_t before = adler32(data);
  data[2048] ^= 1;
  EXPECT_NE(adler32(data), before);
}

TEST(Adler32, LargeInputExercisesDeferredModulo) {
  // > 5552 bytes forces the chunked modulo path.
  const Bytes data(100000, 0xFF);
  EXPECT_EQ(adler32(data), adler32_naive(data));
}

TEST(Adler32, SeedChainsAcrossChunks) {
  const Bytes data = random_bytes(2, 1000);
  const std::uint32_t whole = adler32(data);
  const std::uint32_t part1 = adler32(ByteView(data).first(400));
  const std::uint32_t chained = adler32(ByteView(data).subspan(400), part1);
  EXPECT_EQ(chained, whole);
}

TEST(Adler32, AllOnesAcrossEveryDeferredModuloBoundary) {
  // 0xFF bytes drive both sums to their largest values, so any block
  // arithmetic that overflows before the 5552-byte modulo shows here.
  const Bytes ones(5 * 5552 + 64, 0xFF);
  for (std::size_t k = 1; k <= 5; ++k) {
    for (const std::size_t len : {k * 5552 - 17, k * 5552 - 16, k * 5552 - 1,
                                  k * 5552, k * 5552 + 1, k * 5552 + 15,
                                  k * 5552 + 16, k * 5552 + 17}) {
      for (std::size_t start = 0; start < 16; start += 5) {
        const ByteView view = ByteView(ones).subspan(start, len);
        ASSERT_EQ(adler32(view), adler32_naive(view))
            << "len " << len << " start " << start;
      }
    }
  }
}

TEST(Adler32, MatchesNaiveDefinitionOnRandomInputsAndSeeds) {
  const Bytes data = random_bytes(5, 20000);
  Rng rng(6);
  for (std::size_t len = 0; len <= 300; ++len) {
    const ByteView view = ByteView(data).subspan(len % 16, len);
    ASSERT_EQ(adler32(view), adler32_naive(view)) << "len " << len;
  }
  for (int trial = 0; trial < 200; ++trial) {
    // Seeds are prior Adler values, so each half is below the modulus.
    const auto seed = static_cast<std::uint32_t>(rng.below(65521) << 16 |
                                                 rng.below(65521));
    const ByteView view = ByteView(data).subspan(rng.below(16),
                                                 rng.below(data.size() - 16));
    ASSERT_EQ(adler32(view, seed), adler32_naive(view, seed))
        << "trial " << trial;
  }
}

TEST(Adler32, DispatchedKernelMatchesPortableAndDefinition) {
  // Every length through two full 32-byte SIMD blocks and past the
  // 5552-byte modulo, at every 32-byte alignment, random and all-0xFF.
  const std::size_t big = (1u << 20) + 3;
  for (const Bytes& data : {random_bytes(21, big + 32), Bytes(big + 32, 0xFF)}) {
    std::vector<std::size_t> lengths;
    for (std::size_t len = 0; len <= 1100; ++len) lengths.push_back(len);
    for (const std::size_t len : {5551u, 5552u, 5553u}) lengths.push_back(len);
    lengths.push_back(big);
    for (const std::size_t len : lengths) {
      for (std::size_t start = 0; start < 32; ++start) {
        const ByteView view = ByteView(data).subspan(start, len);
        const std::uint32_t expect = adler32_naive(view);
        ASSERT_EQ(adler32(view), expect) << "len " << len << " start " << start;
        ASSERT_EQ(detail::adler32_portable(view), expect)
            << "len " << len << " start " << start;
      }
    }
  }
}

TEST(Adler32, KernelsChainSeedsLikeDefinition) {
  const Bytes data = random_bytes(22, 20000);
  Rng rng(23);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t split = rng.below(data.size() + 1);
    const ByteView head = ByteView(data).first(split);
    const ByteView tail = ByteView(data).subspan(split);
    ASSERT_EQ(adler32(tail, adler32(head)), adler32_naive(data));
    ASSERT_EQ(detail::adler32_portable(tail, detail::adler32_portable(head)),
              adler32_naive(data));
    const auto seed = static_cast<std::uint32_t>(rng.below(65521) << 16 |
                                                 rng.below(65521));
    ASSERT_EQ(adler32(tail, seed), adler32_naive(tail, seed));
    ASSERT_EQ(detail::adler32_portable(tail, seed), adler32_naive(tail, seed));
  }
}

TEST(Crc32c, KnownVectors) {
  EXPECT_EQ(crc32c(ByteView{}), 0u);
  // RFC 3720 test vector: 32 bytes of zeros.
  const Bytes zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  // RFC 3720: 32 bytes of 0xFF.
  const Bytes ones(32, 0xFF);
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
  // "123456789" — the classic check value for CRC-32C is 0xE3069283.
  EXPECT_EQ(crc32c(to_bytes("123456789")), 0xE3069283u);
}

TEST(Crc32c, PortableKernelPassesKnownVectors) {
  EXPECT_EQ(detail::crc32c_portable(ByteView{}), 0u);
  EXPECT_EQ(detail::crc32c_portable(Bytes(32, 0)), 0x8A9136AAu);
  EXPECT_EQ(detail::crc32c_portable(Bytes(32, 0xFF)), 0x62A8AB43u);
  EXPECT_EQ(detail::crc32c_portable(to_bytes("123456789")), 0xE3069283u);
}

// The SSE4.2 kernel's stream blocks: three adjacent 8 KiB blocks while
// they fit, then three 256-byte ones, then single words and bytes.
constexpr std::size_t kLongTriple = 3 * 8192;
constexpr std::size_t kShortTriple = 3 * 256;

TEST(Crc32c, KernelsMatchBytewiseAtEveryLengthAndAlignment) {
  // Every length up to 1100, each side of one and two short and long
  // stream triples, and a few past page and MiB sizes, each at every
  // start offset 0-15, so every loop of each kernel sees every residue
  // and misalignment.
  const Bytes data = random_bytes(7, (1u << 20) + 3 + 16);
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 1100; ++len) lengths.push_back(len);
  for (const std::size_t triple :
       {kShortTriple, 2 * kShortTriple, kLongTriple, 2 * kLongTriple}) {
    for (const std::size_t len : {triple - 1, triple, triple + 1}) {
      lengths.push_back(len);
    }
  }
  // One long triple, one short triple, one word and a 3-byte tail.
  lengths.push_back(kLongTriple + kShortTriple + 8 + 3);
  for (const std::size_t len : {4095u, 4096u, 4097u, (1u << 20) + 3}) {
    lengths.push_back(len);
  }
  for (const std::size_t len : lengths) {
    for (std::size_t start = 0; start < 16; ++start) {
      const ByteView view = ByteView(data).subspan(start, len);
      const std::uint32_t expect = crc32c_bytewise(view);
      ASSERT_EQ(crc32c(view), expect) << "len " << len << " start " << start;
      ASSERT_EQ(detail::crc32c_portable(view), expect)
          << "len " << len << " start " << start;
    }
  }
}

TEST(Crc32c, KernelsChainSeedsLikeBytewise) {
  // The whole buffer runs two long triples, then three short ones, so a
  // split can fall inside a block of either size; each half then runs
  // its own mix of stream loops.
  const Bytes data = random_bytes(8, 2 * kLongTriple + 3 * kShortTriple + 11);
  const std::uint32_t whole = crc32c_bytewise(data);
  std::vector<std::size_t> splits = {
      8192 + 1000,                                // in the first long triple
      kLongTriple + 2 * 8192 + 5,                 // in the second long triple
      2 * kLongTriple + 256 + 17,                 // in the first short triple
      2 * kLongTriple + 2 * kShortTriple + 600};  // in the last short triple
  Rng rng(9);
  for (int trial = 0; trial < 500; ++trial) {
    splits.push_back(rng.below(data.size() + 1));
  }
  for (const std::size_t split : splits) {
    const ByteView head = ByteView(data).first(split);
    const ByteView tail = ByteView(data).subspan(split);
    ASSERT_EQ(crc32c(tail, crc32c(head)), whole) << "split " << split;
    ASSERT_EQ(detail::crc32c_portable(tail, detail::crc32c_portable(head)),
              whole)
        << "split " << split;
    // Arbitrary seeds, not just prior CRCs.
    const auto seed = static_cast<std::uint32_t>(rng.next());
    ASSERT_EQ(crc32c(tail, seed), crc32c_bytewise(tail, seed));
    ASSERT_EQ(detail::crc32c_portable(tail, seed),
              crc32c_bytewise(tail, seed));
  }
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const Bytes data = random_bytes(3, 10000);
  Crc32c crc;
  std::size_t pos = 0;
  Rng rng(4);
  while (pos < data.size()) {
    const std::size_t n =
        std::min<std::size_t>(rng.range(1, 700), data.size() - pos);
    crc.update(ByteView(data).subspan(pos, n));
    pos += n;
  }
  EXPECT_EQ(crc.value(), crc32c(data));
}

TEST(Crc32c, ResetStartsFresh) {
  Crc32c crc;
  crc.update(to_bytes("junk"));
  crc.reset();
  crc.update(to_bytes("123456789"));
  EXPECT_EQ(crc.value(), 0xE3069283u);
}

TEST(Crc32c, OrderSensitive) {
  const Bytes ab = to_bytes("ab");
  const Bytes ba = to_bytes("ba");
  EXPECT_NE(crc32c(ab), crc32c(ba));
}

}  // namespace
}  // namespace ipd
