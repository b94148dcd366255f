#include "apply/apply.hpp"

#include <gtest/gtest.h>

#include "apply/stream_applier.hpp"
#include "core/checksum.hpp"
#include "ipdelta.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

using test::A;
using test::C;
using test::script_of;

TEST(Apply, CopiesAndAddsInterleaved) {
  const Bytes ref = to_bytes("ABCDEFGHIJ");
  const Script s = script_of({C(5, 0, 3), A(3, "xy"), C(0, 5, 2)});
  EXPECT_EQ(to_string(apply_script(s, ref)), "FGHxyAB");
}

TEST(Apply, OrderIndependenceForValidScripts) {
  // §3: any permutation of a valid script materialises the same version.
  const Bytes ref = test::random_bytes(1, 200);
  const Script s =
      script_of({C(100, 0, 50), A(50, "hello"), C(0, 55, 45)});
  const Bytes expected = apply_script(s, ref);
  Script shuffled = s;
  std::swap(shuffled.commands()[0], shuffled.commands()[2]);
  EXPECT_TRUE(test::bytes_equal(expected, apply_script(shuffled, ref)));
}

TEST(Apply, EmptyScriptEmptyVersion) {
  EXPECT_TRUE(apply_script(Script{}, to_bytes("ref")).empty());
}

TEST(Apply, ThrowsOnOutOfBoundsCopyRead) {
  const Bytes ref = test::random_bytes(2, 10);
  EXPECT_THROW(apply_script(script_of({C(5, 0, 10)}), ref),
               ValidationError);
}

TEST(Apply, ThrowsOnWritePastTheVersion) {
  // The version is as long as the commands' lengths sum; a command that
  // writes beyond that is refused, add or copy.
  const Bytes ref = to_bytes("0123456789");
  EXPECT_THROW(apply_script(script_of({C(0, 3, 5)}), ref), ValidationError);
  EXPECT_THROW(apply_script(script_of({A(3, "abcde")}), ref),
               ValidationError);
}

TEST(ApplyDelta, EndToEndWithChecksums) {
  const Bytes ref = test::random_bytes(3, 1000);
  const Script s = script_of({C(500, 0, 400), A(400, "tail")});
  const Bytes expected = apply_script(s, ref);

  DeltaHeader header;
  header.format = kVarintExplicit;
  header.reference_length = ref.size();
  header.version_length = expected.size();
  header.version_crc = crc32c(expected);

  const Bytes wire = test::encode(header, s);
  EXPECT_TRUE(test::bytes_equal(expected, apply_delta(wire, ref)));

  // A corrupt delta is refused, never applied.
  Bytes corrupt = wire;
  corrupt[corrupt.size() / 2] ^= 0xFF;
  EXPECT_THROW(apply_delta(corrupt, ref), FormatError);
}

TEST(ApplyDelta, RejectsWrongReferenceLength) {
  const Bytes ref = test::random_bytes(4, 100);
  DeltaHeader header;
  header.format = kVarintExplicit;
  header.reference_length = 100;
  header.version_length = 10;
  header.version_crc = 0;
  const Bytes wire = test::encode(header, script_of({C(0, 0, 10)}));
  const Bytes short_ref(50, 0);
  EXPECT_THROW(apply_delta(wire, short_ref), FormatError);
}

TEST(ApplyDelta, RejectsCrcMismatch) {
  const Bytes ref = test::random_bytes(5, 100);
  DeltaHeader header;
  header.format = kVarintExplicit;
  header.reference_length = 100;
  header.version_length = 10;
  header.version_crc = 0xDEADBEEF;  // wrong on purpose
  const Bytes wire = test::encode(header, script_of({C(0, 0, 10)}));
  EXPECT_THROW(apply_delta(wire, ref), FormatError);

  // A right CRC over a reference whose copied bytes changed.
  header.version_crc = crc32c(ByteView(ref).first(10));
  const Bytes good = test::encode(header, script_of({C(0, 0, 10)}));
  EXPECT_NO_THROW(apply_delta(good, ref));
  Bytes tampered = ref;
  tampered[3] ^= 1;
  EXPECT_THROW(apply_delta(good, tampered), FormatError);
}

// Regression: fuzz/corpus/codec/crash-02-copy-offset-wrap.bin. A copy
// whose read offset sits just below 2^64 made `from + length` wrap to 8,
// so validation and every apply entry point took it as in bounds and
// read 16 bytes in front of the reference buffer.
Bytes wrapped_offset_delta(CopyCommand copy) {
  DeltaHeader header;
  header.format = kVarintExplicit;
  header.in_place = true;
  header.reference_length = 64;
  header.version_length = 16;
  Script script;
  script.push(copy);
  return test::encode(header, script);
}

constexpr offset_t kWrapOffset = ~offset_t{0} - 7;  // 2^64 - 8

TEST(ApplyDelta, RejectsCopyWhoseReadOffsetWraps) {
  const Bytes delta = wrapped_offset_delta(CopyCommand{kWrapOffset, 0, 16});
  const Bytes ref = test::random_bytes(30, 64);
  EXPECT_THROW(apply_delta(delta, ref), ValidationError);

  Bytes buffer = ref;
  EXPECT_THROW(apply_delta_inplace(delta, buffer), ValidationError);

  Bytes streamed = ref;
  StreamingInplaceApplier applier(streamed);
  EXPECT_THROW(applier.feed(delta), ValidationError);
}

TEST(ApplyDelta, StreamingRejectsWriteOffsetThatWraps) {
  // The streaming applier sees commands before any tiling check, so a
  // wrapped write offset must be caught by its own bound.
  const Bytes delta = wrapped_offset_delta(CopyCommand{0, kWrapOffset, 16});
  Bytes buffer = test::random_bytes(31, 64);
  StreamingInplaceApplier applier(buffer);
  EXPECT_THROW(applier.feed(delta), ValidationError);
}

TEST(ApplyScript, RejectsWrappedRangesOnUnvalidatedScripts) {
  const Bytes ref = test::random_bytes(32, 64);
  Script read_wraps;
  read_wraps.push(CopyCommand{kWrapOffset, 0, 16});
  EXPECT_THROW(apply_script(read_wraps, ref), ValidationError);
  Script write_wraps;
  write_wraps.push_owned_add(kWrapOffset, Bytes(16, 0xAB));
  EXPECT_THROW(apply_script(write_wraps, ref), ValidationError);
}

}  // namespace
}  // namespace ipd
