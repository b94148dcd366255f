#include "core/lzss.hpp"

#include <gtest/gtest.h>

#include "apply/stream_applier.hpp"
#include "corpus/generator.hpp"
#include "ipdelta.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

void expect_roundtrip(ByteView input) {
  const Bytes encoded = lzss_encode(input);
  const Bytes decoded = lzss_decode(encoded, input.size());
  EXPECT_TRUE(test::bytes_equal(input, decoded));
}

TEST(Lzss, EmptyInput) {
  EXPECT_TRUE(lzss_encode({}).empty());
  EXPECT_TRUE(lzss_decode({}, 0).empty());
}

TEST(Lzss, ShortInputs) {
  for (std::size_t n = 1; n <= 16; ++n) {
    expect_roundtrip(test::random_bytes(n, n));
  }
}

TEST(Lzss, HighlyRepetitiveCompressesHard) {
  const Bytes zeros(100000, 0);
  const Bytes encoded = lzss_encode(zeros);
  EXPECT_LT(encoded.size(), zeros.size() / 50);
  EXPECT_TRUE(test::bytes_equal(zeros, lzss_decode(encoded, zeros.size())));
}

TEST(Lzss, OverlappingMatchReplicates) {
  // "abcabcabc..." forces matches with dist < len.
  Bytes input;
  for (int i = 0; i < 1000; ++i) {
    input.push_back(static_cast<std::uint8_t>('a' + i % 3));
  }
  expect_roundtrip(input);
  EXPECT_LT(lzss_encode(input).size(), 64u);
}

TEST(Lzss, IncompressibleGrowsBounded) {
  const Bytes noise = test::random_bytes(1, 50000);
  const Bytes encoded = lzss_encode(noise);
  // 1 flag byte per 8 literals + O(1).
  EXPECT_LE(encoded.size(), noise.size() + noise.size() / 8 + 2);
  expect_roundtrip(noise);
}

TEST(Lzss, TextCompresses) {
  Rng rng(2);
  const Bytes text = generate_file(rng, 65536, FileProfile::kText);
  const Bytes encoded = lzss_encode(text);
  EXPECT_LT(encoded.size(), text.size() * 7 / 10);
  expect_roundtrip(text);
}

TEST(Lzss, RandomRoundTripSweep) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t size = rng.below(5000);
    Bytes input(size);
    // Mix of runs and noise.
    std::size_t i = 0;
    while (i < size) {
      if (rng.chance(0.5)) {
        const std::size_t run = std::min<std::size_t>(rng.range(1, 100),
                                                      size - i);
        const std::uint8_t b = static_cast<std::uint8_t>(rng.below(8));
        std::fill_n(input.begin() + static_cast<std::ptrdiff_t>(i), run, b);
        i += run;
      } else {
        input[i++] = static_cast<std::uint8_t>(rng.below(256));
      }
    }
    expect_roundtrip(input);
  }
}

TEST(Lzss, DecodeRejectsWrongExpectedSize) {
  const Bytes input = test::random_bytes(4, 1000);
  const Bytes encoded = lzss_encode(input);
  EXPECT_THROW(lzss_decode(encoded, 999), FormatError);
  EXPECT_THROW(lzss_decode(encoded, 1001), FormatError);
}

TEST(Lzss, DecodeRejectsTruncation) {
  const Bytes input = test::random_bytes(5, 1000);
  const Bytes encoded = lzss_encode(input);
  for (std::size_t keep = 0; keep < encoded.size();
       keep += 1 + encoded.size() / 37) {
    EXPECT_THROW(lzss_decode(ByteView(encoded).first(keep), input.size()),
                 FormatError)
        << keep;
  }
}

TEST(Lzss, DecodeRejectsBadDistance) {
  // Flag byte: first token is a match; distance 5 but no prior output.
  const Bytes bad = {0x01, 5, 0, 0};
  EXPECT_THROW(lzss_decode(bad, 10), FormatError);
}

TEST(Lzss, DecodeRejectsSizeBombBeforeAllocating) {
  // Regression: fuzz/corpus/codec/crash-01-lzss-size-bomb.bin. A hostile
  // expected_size used to flow straight into reserve(), turning a
  // 30-byte input into an exabyte allocation whose bad_alloc bypassed
  // the FormatError reject contract. The expansion bound must fire
  // before any allocation.
  const Bytes tiny = {0x00, 'A', 'B', 'C'};
  EXPECT_THROW(lzss_decode(tiny, std::size_t{1} << 56), FormatError);
  EXPECT_THROW(lzss_decode({}, 1), FormatError);
  // Exactly at the bound is not rejected by the pre-check (the stream
  // itself still decides).
  EXPECT_THROW(lzss_decode(tiny, tiny.size() * kLzssMaxMatch), FormatError);
}

TEST(Lzss, DeserializeRejectsSizeBombDelta) {
  // The same attack through the container: compress flag set, declared
  // uncompressed size of 64 PiB, valid adler — parse_delta must
  // reject with an ipd::Error, not die in the allocator.
  const Bytes bomb = {0x49, 0x50, 0x44, 0x31, 0x00, 0x02, 0x00, 0x01,
                      0x00, 0x00, 0x00, 0x00, 0x04, 0x80, 0x80, 0x80,
                      0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0xc7, 0x00,
                      0x8e, 0x01, 0x00, 0x41, 0x42, 0x43};
  EXPECT_THROW(parse_delta(bomb), FormatError);
}

TEST(Lzss, DecodeNeverCrashesOnRandomInput) {
  Rng rng(6);
  for (int trial = 0; trial < 1000; ++trial) {
    Bytes junk(rng.below(100));
    rng.fill(junk);
    try {
      lzss_decode(junk, rng.below(200));
    } catch (const FormatError&) {
    }
  }
}

TEST(LzssCodec, CompressedDeltaRoundTrips) {
  Rng rng(7);
  const Bytes ref = generate_file(rng, 30000, FileProfile::kText);
  Bytes ver = ref;
  for (int i = 0; i < 2000; ++i) std::swap(ver[i], ver[i + 15000]);

  PipelineOptions options;
  options.compress_payload = true;
  const Bytes compressed = Pipeline(options).build_inplace(ref, ver).delta;
  options.compress_payload = false;
  const Bytes plain = Pipeline(options).build_inplace(ref, ver).delta;

  // Swapped text regions mean literal-free deltas can be tiny; compare
  // against a delta with real add data instead.
  Bytes buffer = ref;
  buffer.resize(std::max(ref.size(), ver.size()));
  const length_t n = apply_delta_inplace(compressed, buffer);
  EXPECT_TRUE(test::bytes_equal(ver, ByteView(buffer).first(n)));

  // The flag reflects the wire (auto-fallback may store uncompressed
  // when the payload is copy-dominated); the script always round-trips.
  EXPECT_EQ(Script(parse_delta(compressed)), Script(parse_delta(plain)));
  EXPECT_LE(compressed.size(), plain.size());
}

TEST(LzssCodec, CompressionShrinksAddHeavyDeltas) {
  // All-add delta over compressible text: secondary compression must pay.
  Rng rng(8);
  const Bytes ver = generate_file(rng, 50000, FileProfile::kText);
  PipelineOptions options;
  options.compress_payload = true;
  const Bytes compressed = Pipeline(options).build_inplace({}, ver).delta;
  options.compress_payload = false;
  const Bytes plain = Pipeline(options).build_inplace({}, ver).delta;
  EXPECT_LT(compressed.size(), plain.size() * 8 / 10);

  Bytes buffer(ver.size());
  const length_t n = apply_delta_inplace(compressed, buffer);
  EXPECT_TRUE(test::bytes_equal(ver, ByteView(buffer).first(n)));
}

TEST(LzssCodec, StreamingApplierRejectsCompressedPayload) {
  Rng rng(9);
  const Bytes ver = generate_file(rng, 5000, FileProfile::kText);
  PipelineOptions options;
  options.compress_payload = true;
  const Bytes delta = Pipeline(options).build_inplace({}, ver).delta;
  Bytes buffer(ver.size());
  EXPECT_THROW(apply_delta_inplace_streaming(delta, buffer, 64),
               ValidationError);
}

TEST(LzssCodec, CorruptCompressedPayloadRejected) {
  Rng rng(10);
  const Bytes ver = generate_file(rng, 5000, FileProfile::kText);
  PipelineOptions options;
  options.compress_payload = true;
  Bytes delta = Pipeline(options).build_inplace({}, ver).delta;
  delta[delta.size() / 2] ^= 0x10;
  Bytes buffer(ver.size());
  EXPECT_THROW(apply_delta_inplace(delta, buffer), FormatError);
}

}  // namespace
}  // namespace ipd
