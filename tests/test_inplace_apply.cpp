#include "apply/inplace_apply.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "adversary/constructions.hpp"
#include "apply/apply.hpp"
#include "apply/oracle.hpp"
#include "core/checksum.hpp"
#include "inplace/converter.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

using test::A;
using test::C;
using test::script_of;

TEST(OverlappingCopy, ForwardOverlapLeftToRight) {
  // f >= t: copy left-to-right is safe.
  Bytes buf = to_bytes("abcdefgh");
  overlapping_copy(buf, /*from=*/2, /*to=*/0, /*length=*/6);
  EXPECT_EQ(to_string(buf), "cdefghgh");
}

TEST(OverlappingCopy, BackwardOverlapRightToLeft) {
  // f < t: right-to-left avoids reading overwritten bytes.
  Bytes buf = to_bytes("abcdefgh");
  overlapping_copy(buf, /*from=*/0, /*to=*/2, /*length=*/6);
  EXPECT_EQ(to_string(buf), "ababcdef");
}

TEST(OverlappingCopy, IdentityAndZeroLengthAreNoOps) {
  Bytes buf = to_bytes("abcd");
  overlapping_copy(buf, 1, 1, 3);
  EXPECT_EQ(to_string(buf), "abcd");
  overlapping_copy(buf, 0, 2, 0);
  EXPECT_EQ(to_string(buf), "abcd");
}

TEST(OverlappingCopy, MatchesMemmoveSemanticsOnRandomCases) {
  Rng rng(88);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes buf = test::random_bytes(trial, 64);
    Bytes expect = buf;
    const offset_t from = rng.below(64);
    const offset_t to = rng.below(64);
    const length_t len = rng.below(64 - std::max(from, to) + 1);
    std::memmove(expect.data() + to, expect.data() + from, len);
    overlapping_copy(buf, from, to, len);
    ASSERT_TRUE(test::bytes_equal(expect, buf)) << "trial " << trial;
  }
}

// The §4.1 byte loop overlapping_copy replaced, kept as its oracle:
// left-to-right when f >= t, right-to-left when f < t.
void section41_copy(Bytes& buf, offset_t from, offset_t to, length_t length) {
  if (from >= to) {
    for (length_t i = 0; i < length; ++i) buf[to + i] = buf[from + i];
  } else {
    for (length_t i = length; i > 0; --i) buf[to + i - 1] = buf[from + i - 1];
  }
}

TEST(OverlappingCopy, MatchesSection41LoopExhaustively) {
  constexpr std::size_t kSize = 48;
  const Bytes original = test::random_bytes(89, kSize);
  for (offset_t from = 0; from < kSize; ++from) {
    for (offset_t to = 0; to < kSize; ++to) {
      for (length_t len = 0; len <= kSize - std::max(from, to); ++len) {
        Bytes expect = original;
        section41_copy(expect, from, to, len);
        Bytes got = original;
        overlapping_copy(got, from, to, len);
        ASSERT_TRUE(test::bytes_equal(expect, got))
            << "from " << from << " to " << to << " length " << len;
      }
    }
  }
}

TEST(ApplyInplace, GrowingVersionUsesBufferSlack) {
  const Bytes ref = to_bytes("0123456789");
  // Version: the reference with "XX" appended (12 bytes > 10).
  const Script s = script_of({C(0, 0, 10), A(10, "XX")});
  Bytes buffer = ref;
  buffer.resize(12);
  apply_inplace(s, buffer, 10, 12);
  EXPECT_EQ(to_string(buffer), "0123456789XX");
}

TEST(ApplyInplace, ShrinkingVersion) {
  const Bytes ref = to_bytes("0123456789");
  const Script s = script_of({C(5, 0, 5)});
  Bytes buffer = ref;
  apply_inplace(s, buffer, 10, 5);
  EXPECT_EQ(to_string(ByteView(buffer).first(5)), "56789");
}

TEST(ApplyInplace, BufferTooSmallThrows) {
  const Script s = script_of({C(0, 0, 4)});
  Bytes buffer(3);
  EXPECT_THROW(apply_inplace(s, buffer, 4, 4), ValidationError);
  Bytes buffer2(16);
  EXPECT_THROW(apply_inplace(s, buffer2, 2, 4), ValidationError);  // reads past ref
}

TEST(ApplyInplace, ConflictingScriptSilentlyCorrupts) {
  // The failure mode the paper opens with: apply a non-converted delta in
  // place and the output is wrong.
  const AdversaryInstance inst = make_rotation(100, 30);
  Bytes buffer = inst.reference;
  apply_inplace(inst.script, buffer, 100, 100);
  EXPECT_FALSE(test::bytes_equal(inst.version, buffer));
}

TEST(ApplyInplace, OracleFlagsTheConflictingScript) {
  const AdversaryInstance inst = make_rotation(100, 30);
  EXPECT_FALSE(analyze_conflicts(inst.script).in_place_safe());
}

TEST(ApplyInplace, ConvertedScriptIsCleanAndReconstructs) {
  const AdversaryInstance inst = make_rotation(100, 30);
  const ConvertResult r = convert_to_inplace(inst.script, inst.reference, {});
  ASSERT_TRUE(analyze_conflicts(r.script).in_place_safe());
  Bytes buffer = inst.reference;
  apply_inplace(r.script, buffer, 100, 100);
  EXPECT_TRUE(test::bytes_equal(inst.version, buffer));
}

TEST(ApplyDeltaInplace, FullWireRoundTrip) {
  const AdversaryInstance inst = make_rotation(5000, 1234);
  const Bytes delta =
      make_inplace_delta(inst.script, inst.reference, inst.version, {});
  Bytes buffer = inst.reference;
  const length_t len = apply_delta_inplace(delta, buffer);
  EXPECT_EQ(len, 5000u);
  EXPECT_TRUE(test::bytes_equal(inst.version, buffer));
}

TEST(ApplyDeltaInplace, RejectsNonInplaceDelta) {
  DeltaFile file;
  file.format = kVarintExplicit;
  file.in_place = false;
  file.reference_length = 4;
  file.version_length = 4;
  const Bytes ver = to_bytes("abcd");
  file.version_crc = crc32c(ver);
  file.script = script_of({A(0, "abcd")});
  const Bytes wire = serialize_delta(file);
  Bytes buffer(4);
  EXPECT_THROW(apply_delta_inplace(wire, buffer), ValidationError);
}

TEST(ApplyDeltaInplace, RejectsTooSmallBuffer) {
  const AdversaryInstance inst = make_rotation(100, 10);
  const Bytes delta =
      make_inplace_delta(inst.script, inst.reference, inst.version, {});
  Bytes buffer(50);
  EXPECT_THROW(apply_delta_inplace(delta, buffer), ValidationError);
}

TEST(ApplyDeltaInplace, CrcCatchesWrongReferenceImage) {
  const AdversaryInstance inst = make_rotation(100, 10);
  const Bytes delta =
      make_inplace_delta(inst.script, inst.reference, inst.version, {});
  Bytes buffer = inst.reference;
  buffer[50] ^= 1;  // device image differs from the delta's reference
  EXPECT_THROW(apply_delta_inplace(delta, buffer), FormatError);
}

TEST(ApplyDeltaInplace, RejectedDeltaLeavesBufferUntouched) {
  // Every check runs before the first write: container damage, and
  // script violations found only after the whole stream decoded.
  const Bytes reference = test::random_bytes(40, 4000);
  Script script;
  for (offset_t to = 0; to < 4000; to += 400) {
    script.push(CopyCommand{3600 - to, to, 300});
    script.push(AddCommand{to + 300, Bytes(100, 0x3C)});
  }
  DeltaFile file;
  file.format = kPaperExplicit;
  file.in_place = true;
  file.reference_length = 4000;
  file.version_length = 4000;
  file.script = script;
  Bytes version = reference;
  apply_inplace(script, version, 4000, 4000);
  file.version_crc = crc32c(version);
  const Bytes good = serialize_delta(file);

  std::vector<Bytes> rejected;
  for (const std::size_t keep : {good.size() - 1, good.size() / 2}) {
    rejected.emplace_back(good.begin(),
                          good.begin() + static_cast<std::ptrdiff_t>(keep));
  }
  Bytes flipped = good;
  flipped[flipped.size() - 50] ^= 0x08;
  rejected.push_back(flipped);
  DeltaFile gap = file;  // the last command's bytes go unwritten
  gap.version_length = 4001;
  rejected.push_back(serialize_delta(gap));
  DeltaFile overlap = file;
  overlap.script.push(CopyCommand{0, 3999, 1});
  rejected.push_back(serialize_delta(overlap));
  DeltaFile short_ref = file;
  short_ref.reference_length = 3899;
  rejected.push_back(serialize_delta(short_ref));

  for (std::size_t i = 0; i < rejected.size(); ++i) {
    Bytes buffer = reference;
    buffer.resize(4001);
    const Bytes before = buffer;
    EXPECT_THROW(apply_delta_inplace(rejected[i], buffer), Error) << i;
    EXPECT_EQ(buffer, before) << "rejected delta " << i << " wrote";
  }
  Bytes buffer = reference;
  EXPECT_EQ(apply_delta_inplace(good, buffer), 4000u);
  EXPECT_EQ(buffer, version);
}

TEST(ApplyInplace, AgreesWithScratchApplyOnConvertedScripts) {
  Rng rng(55);
  for (int trial = 0; trial < 10; ++trial) {
    const auto perm = random_permutation(rng, 30);
    const AdversaryInstance inst = make_block_permutation(24, perm);
    const ConvertResult r =
        convert_to_inplace(inst.script, inst.reference, {});
    const Bytes scratch = apply_script(r.script, inst.reference);
    Bytes buffer = inst.reference;
    apply_inplace(r.script, buffer, inst.reference.size(),
                  inst.version.size());
    EXPECT_TRUE(test::bytes_equal(scratch, buffer));
    EXPECT_TRUE(test::bytes_equal(inst.version, buffer));
  }
}

}  // namespace
}  // namespace ipd
