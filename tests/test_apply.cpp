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

TEST(Apply, IntoRespectsProvidedBuffer) {
  const Bytes ref = to_bytes("0123456789");
  const Script s = script_of({C(0, 0, 5)});
  Bytes out(5, '?');
  apply_script_into(s, ref, out);
  EXPECT_EQ(to_string(out), "01234");
  Bytes small(3);
  EXPECT_THROW(apply_script_into(s, ref, small), ValidationError);
}

TEST(ApplyDelta, EndToEndWithChecksums) {
  const Bytes ref = test::random_bytes(3, 1000);
  const Script s = script_of({C(500, 0, 400), A(400, "tail")});
  const Bytes expected = apply_script(s, ref);

  DeltaFile file;
  file.format = kVarintExplicit;
  file.reference_length = ref.size();
  file.version_length = expected.size();
  file.version_crc = crc32c(expected);
  file.script = s;

  const Bytes wire = serialize_delta(file);
  EXPECT_TRUE(test::bytes_equal(expected, apply_delta(wire, ref)));
}

TEST(ApplyDelta, RejectsWrongReferenceLength) {
  const Bytes ref = test::random_bytes(4, 100);
  DeltaFile file;
  file.format = kVarintExplicit;
  file.reference_length = 100;
  file.version_length = 10;
  file.version_crc = 0;
  file.script = script_of({C(0, 0, 10)});
  const Bytes wire = serialize_delta(file);
  const Bytes short_ref(50, 0);
  EXPECT_THROW(apply_delta(wire, short_ref), FormatError);
}

TEST(VerifyDelta, AcceptsGoodDelta) {
  const Bytes ref = test::random_bytes(10, 8000);
  Bytes ver = ref;
  for (int i = 0; i < 1000; ++i) std::swap(ver[i], ver[i + 4000]);
  const Bytes delta = Pipeline().build_inplace(ref, ver).delta;
  const VerifyResult r = verify_delta(delta, ref);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(r.in_place_capable);
  EXPECT_EQ(r.version_length, ver.size());
  EXPECT_TRUE(r.failure.empty());
}

TEST(VerifyDelta, ReportsWrongReference) {
  const Bytes ref = test::random_bytes(11, 5000);
  const Bytes ver = test::random_bytes(12, 5000);
  const Bytes delta = Pipeline().build_inplace(ref, ver).delta;

  const Bytes short_ref(100, 0);
  const VerifyResult wrong_len = verify_delta(delta, short_ref);
  EXPECT_FALSE(wrong_len.ok);
  EXPECT_NE(wrong_len.failure.find("length mismatch"), std::string::npos);

  Bytes tampered = ref;
  tampered[2500] ^= 1;
  const VerifyResult wrong_content = verify_delta(delta, tampered);
  // The tweak may land in a region the delta never copies; only assert
  // the negative case when the byte actually matters.
  if (!wrong_content.ok) {
    EXPECT_NE(wrong_content.failure.find("CRC"), std::string::npos);
  }
}

TEST(VerifyDelta, ReportsCorruptDeltaWithoutThrowing) {
  const Bytes ref = test::random_bytes(13, 2000);
  Bytes delta = Pipeline().build_inplace(ref, ref).delta;
  delta[delta.size() / 2] ^= 0xFF;
  const VerifyResult r = verify_delta(delta, ref);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.failure.empty());
}

TEST(VerifyDelta, DetectsLyingInPlaceFlag) {
  // Hand-build a delta whose flag claims safety but whose script
  // conflicts.
  const Bytes ref = test::random_bytes(14, 200);
  DeltaFile file;
  file.format = kVarintExplicit;
  file.in_place = true;  // lie
  file.reference_length = 200;
  file.version_length = 200;
  file.script = script_of({C(100, 0, 100), C(0, 100, 100)});
  file.version_crc = crc32c(apply_script(file.script, ref));
  const VerifyResult r = verify_delta(serialize_delta(file), ref);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("Equation 2"), std::string::npos);
}

TEST(ApplyDelta, RejectsCrcMismatch) {
  const Bytes ref = test::random_bytes(5, 100);
  DeltaFile file;
  file.format = kVarintExplicit;
  file.reference_length = 100;
  file.version_length = 10;
  file.version_crc = 0xDEADBEEF;  // wrong on purpose
  file.script = script_of({C(0, 0, 10)});
  EXPECT_THROW(apply_delta(serialize_delta(file), ref), FormatError);
}

// Regression: fuzz/corpus/codec/crash-02-copy-offset-wrap.bin. A copy
// whose read offset sits just below 2^64 made `from + length` wrap to 8,
// so validation and every apply entry point took it as in bounds and
// read 16 bytes in front of the reference buffer.
DeltaFile wrapped_offset_file(CopyCommand copy) {
  DeltaFile file;
  file.format = kVarintExplicit;
  file.in_place = true;
  file.reference_length = 64;
  file.version_length = 16;
  file.script.push(copy);
  return file;
}

constexpr offset_t kWrapOffset = ~offset_t{0} - 7;  // 2^64 - 8

TEST(ApplyDelta, RejectsCopyWhoseReadOffsetWraps) {
  const Bytes delta =
      serialize_delta(wrapped_offset_file(CopyCommand{kWrapOffset, 0, 16}));
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
  const Bytes delta =
      serialize_delta(wrapped_offset_file(CopyCommand{0, kWrapOffset, 16}));
  Bytes buffer = test::random_bytes(31, 64);
  StreamingInplaceApplier applier(buffer);
  EXPECT_THROW(applier.feed(delta), ValidationError);
}

TEST(ApplyScript, RejectsWrappedRangesOnUnvalidatedScripts) {
  const Bytes ref = test::random_bytes(32, 64);
  Bytes version(16);
  Script read_wraps;
  read_wraps.push(CopyCommand{kWrapOffset, 0, 16});
  EXPECT_THROW(apply_script_into(read_wraps, ref, version), ValidationError);
  Script write_wraps;
  write_wraps.push(AddCommand{kWrapOffset, Bytes(16, 0xAB)});
  EXPECT_THROW(apply_script_into(write_wraps, ref, version), ValidationError);
}

}  // namespace
}  // namespace ipd
