#include "delta/script.hpp"

#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

using test::A;
using test::C;
using test::script_of;

TEST(Script, VersionLengthSumsCommandLengths) {
  const Script s = script_of({C(0, 0, 10), A(10, "abc"), C(5, 13, 7)});
  EXPECT_EQ(s.version_length(), 20u);
}

TEST(Script, SummaryCounts) {
  const Script s = script_of({C(0, 0, 10), A(10, "abc"), C(5, 13, 7)});
  const ScriptSummary sum = s.summary();
  EXPECT_EQ(sum.copy_count, 2u);
  EXPECT_EQ(sum.add_count, 1u);
  EXPECT_EQ(sum.copied_bytes, 17u);
  EXPECT_EQ(sum.added_bytes, 3u);
  EXPECT_EQ(sum.version_bytes(), 20u);
}

TEST(Script, CopiesAndAddsSplitPreservingOrder) {
  const Script s = script_of({A(0, "x"), C(0, 1, 2), A(3, "y"), C(9, 4, 1)});
  const auto copies = s.copies();
  const auto adds = s.adds();
  ASSERT_EQ(copies.size(), 2u);
  ASSERT_EQ(adds.size(), 2u);
  EXPECT_EQ(copies[0].to, 1u);
  EXPECT_EQ(copies[1].to, 4u);
  EXPECT_EQ(adds[0].to, 0u);
  EXPECT_EQ(adds[1].to, 3u);
}

TEST(Script, ValidateAcceptsExactTiling) {
  const Script s = script_of({C(0, 0, 4), A(4, "ab"), C(2, 6, 2)});
  EXPECT_NO_THROW(s.validate(/*reference_length=*/10, /*version_length=*/8));
}

TEST(Script, ValidateAcceptsEmptyScriptForEmptyVersion) {
  EXPECT_NO_THROW(Script{}.validate(10, 0));
}

TEST(Script, ValidateRejectsZeroLengthCommand) {
  const Script s = script_of({C(0, 0, 0)});
  EXPECT_THROW(s.validate(10, 0), ValidationError);
}

TEST(Script, ValidateRejectsReadPastReference) {
  const Script s = script_of({C(8, 0, 4)});
  EXPECT_THROW(s.validate(10, 4), ValidationError);
}

TEST(Script, ValidateRejectsWritePastVersion) {
  const Script s = script_of({C(0, 0, 4)});
  EXPECT_THROW(s.validate(10, 3), ValidationError);
}

TEST(Script, ValidateRejectsOverlappingWrites) {
  const Script s = script_of({C(0, 0, 4), C(0, 3, 4)});
  EXPECT_THROW(s.validate(10, 7), ValidationError);
}

TEST(Script, ValidateRejectsCoverageGap) {
  const Script s = script_of({C(0, 0, 4), C(0, 6, 4)});
  EXPECT_THROW(s.validate(10, 10), ValidationError);
}

TEST(Script, ValidateRejectsTrailingGap) {
  const Script s = script_of({C(0, 0, 4)});
  EXPECT_THROW(s.validate(10, 5), ValidationError);
}

TEST(Script, ValidateOrderIndependent) {
  // Valid scripts may list commands in any order (§3).
  const Script s = script_of({C(2, 6, 2), C(0, 0, 4), A(4, "ab")});
  EXPECT_NO_THROW(s.validate(10, 8));
}

TEST(Script, InWriteOrder) {
  EXPECT_TRUE(script_of({C(0, 0, 4), A(4, "ab")}).in_write_order());
  EXPECT_FALSE(script_of({A(4, "ab"), C(0, 0, 4)}).in_write_order());
  // A gap breaks write order even if offsets increase.
  EXPECT_FALSE(script_of({C(0, 0, 4), C(0, 5, 2)}).in_write_order());
  EXPECT_TRUE(Script{}.in_write_order());
}

// ---- check_write_tiling ------------------------------------------------

std::string tiling_error(std::vector<WriteRange> writes,
                         length_t version_length) {
  try {
    check_write_tiling(writes, version_length);
  } catch (const ValidationError& e) {
    return e.what();
  }
  return {};
}

TEST(WriteTiling, SortedAndUnsortedTilingsPass) {
  EXPECT_EQ(tiling_error({{0, 4}, {4, 1}, {5, 3}}, 8), "");
  EXPECT_EQ(tiling_error({{5, 3}, {0, 4}, {4, 1}}, 8), "");
  EXPECT_EQ(tiling_error({}, 0), "");
}

TEST(WriteTiling, RadixSortSpansManyDigits) {
  // Offsets spread over 24 bits take three 11-bit passes; reversed and
  // shuffled orders must both sort back into a tiling.
  std::vector<WriteRange> writes;
  for (offset_t to = 0; to < (offset_t{1} << 24); to += 4099) {
    writes.push_back({to, std::min<length_t>(4099, (1u << 24) - to)});
  }
  const length_t total = offset_t{1} << 24;
  std::vector<WriteRange> reversed(writes.rbegin(), writes.rend());
  EXPECT_EQ(tiling_error(reversed, total), "");
  Rng rng(31);
  for (std::size_t i = writes.size(); i > 1; --i) {
    std::swap(writes[i - 1], writes[rng.below(i)]);
  }
  EXPECT_EQ(tiling_error(writes, total), "");
  for (WriteRange& w : writes) {
    if (w.to == 0) w.length += 1;  // now overlaps its successor
  }
  EXPECT_NE(tiling_error(writes, total).find("overlaps"), std::string::npos);
}

TEST(WriteTiling, OverlapNamesCommandAndRange) {
  EXPECT_EQ(tiling_error({{4, 4}, {0, 6}}, 8),
            "command 0 write [4, 7] overlaps a previous write ending at 5");
}

TEST(WriteTiling, DuplicateOffsetIsAnOverlap) {
  EXPECT_EQ(tiling_error({{0, 2}, {2, 2}, {2, 2}}, 4),
            "command 2 write [2, 3] overlaps a previous write ending at 3");
  EXPECT_EQ(tiling_error({{2, 2}, {0, 2}, {2, 2}}, 4),
            "command 2 write [2, 3] overlaps a previous write ending at 3");
}

TEST(WriteTiling, GapsAtStartMiddleAndEnd) {
  const std::string start =
      "coverage gap: version bytes [0, 1] are written by no command";
  EXPECT_EQ(tiling_error({{2, 6}}, 8), start);
  EXPECT_EQ(tiling_error({{5, 3}, {2, 3}}, 8), start);
  const std::string middle =
      "coverage gap: version bytes [3, 4] are written by no command";
  EXPECT_EQ(tiling_error({{0, 3}, {5, 3}}, 8), middle);
  EXPECT_EQ(tiling_error({{5, 3}, {0, 3}}, 8), middle);
  const std::string end =
      "coverage gap: version bytes [6, 7] are written by no command";
  EXPECT_EQ(tiling_error({{0, 3}, {3, 3}}, 8), end);
  EXPECT_EQ(tiling_error({{3, 3}, {0, 3}}, 8), end);
  EXPECT_EQ(tiling_error({}, 3),
            "coverage gap: version bytes [0, 2] are written by no command");
}

TEST(WriteTiling, OffsetsNearTwoToThe64) {
  // The largest offsets take all six 11-bit digits.
  const length_t top = ~length_t{0};
  EXPECT_EQ(tiling_error({{top - 10, 10}, {0, top - 10}}, top), "");
  EXPECT_EQ(tiling_error({{top - 10, 10}, {1, top - 11}}, top),
            "coverage gap: version bytes [0, 0] are written by no command");
  EXPECT_NE(tiling_error({{top - 10, 10}, {0, top - 9}}, top).find(
                "command 0 write"),
            std::string::npos);
}

TEST(Script, SortByWriteOffset) {
  Script s = script_of({C(2, 6, 2), A(4, "ab"), C(0, 0, 4)});
  s.sort_by_write_offset();
  EXPECT_TRUE(s.in_write_order());
  EXPECT_EQ(command_to(s.commands()[0]), 0u);
  EXPECT_EQ(command_to(s.commands()[1]), 4u);
  EXPECT_EQ(command_to(s.commands()[2]), 6u);
}

TEST(Script, SameEffectIgnoresOrder) {
  const Script a = script_of({C(0, 0, 4), A(4, "ab")});
  Script b = script_of({A(4, "ab"), C(0, 0, 4)});
  EXPECT_TRUE(same_effect(a, b));
  b.push(C(0, 6, 1));
  EXPECT_FALSE(same_effect(a, b));
}

TEST(Script, ToTextListsAndTruncates) {
  Script s;
  for (int i = 0; i < 10; ++i) {
    s.push(CopyCommand{0, static_cast<offset_t>(i), 1});
  }
  const std::string text = s.to_text(3);
  EXPECT_NE(text.find("0: copy"), std::string::npos);
  EXPECT_NE(text.find("(7 more commands)"), std::string::npos);
}

}  // namespace
}  // namespace ipd
