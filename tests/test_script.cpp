#include "delta/script.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/rng.hpp"
#include "delta/codec.hpp"
#include "inplace/converter.hpp"
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

TEST(Script, CommandsKeepTheirKindAndOrder) {
  const Script s = script_of({A(0, "x"), C(0, 1, 2), A(3, "y"), C(9, 4, 1)});
  std::vector<offset_t> copies;
  std::vector<offset_t> adds;
  for (const CommandRef& c : s.commands()) {
    (c.is_add() ? adds : copies).push_back(c.to);
  }
  ASSERT_EQ(copies.size(), 2u);
  ASSERT_EQ(adds.size(), 2u);
  EXPECT_EQ(copies[0], 1u);
  EXPECT_EQ(copies[1], 4u);
  EXPECT_EQ(adds[0], 0u);
  EXPECT_EQ(adds[1], 3u);
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

std::string tiling_error(std::vector<CommandRef> writes,
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
  std::vector<CommandRef> writes;
  for (offset_t to = 0; to < (offset_t{1} << 24); to += 4099) {
    writes.push_back({to, std::min<length_t>(4099, (1u << 24) - to)});
  }
  const length_t total = offset_t{1} << 24;
  std::vector<CommandRef> reversed(writes.rbegin(), writes.rend());
  EXPECT_EQ(tiling_error(reversed, total), "");
  Rng rng(31);
  for (std::size_t i = writes.size(); i > 1; --i) {
    std::swap(writes[i - 1], writes[rng.below(i)]);
  }
  EXPECT_EQ(tiling_error(writes, total), "");
  for (CommandRef& w : writes) {
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

TEST(WriteTiling, DisjointCoverageAllowsGapsNotOverlaps) {
  using Table = std::vector<CommandRef>;
  EXPECT_TRUE(check_write_tiling(Table{{0, 2}, {5, 3}}, 8, Coverage::kDisjoint)
                  .empty());
  EXPECT_EQ(check_write_tiling(Table{{5, 3}, {0, 2}}, 8, Coverage::kDisjoint)
                .front()
                .index,
            1u);
  EXPECT_THROW(
      check_write_tiling(Table{{0, 3}, {2, 2}}, 8, Coverage::kDisjoint),
      ValidationError);
}

// ---- the Script as a command table --------------------------------------

TEST(CommandTable, ATableBecomesAScriptWithoutCopying) {
  const Script s = script_of({C(7, 0, 4), A(4, "ab")});
  const std::span<const CommandRef> table = s.commands();
  ASSERT_EQ(table.size(), 2u);
  EXPECT_FALSE(table[0].is_add());
  EXPECT_EQ(table[0].from, 7u);
  EXPECT_EQ(table[0].length, 4u);
  EXPECT_TRUE(table[1].is_add());
  EXPECT_EQ(table[1].to, 4u);
  EXPECT_EQ(test::bytes_of(table[1]), to_bytes("ab"));
  const Script borrowed(std::vector<CommandRef>(table.begin(), table.end()));
  EXPECT_EQ(borrowed.commands()[1].literal, table[1].literal);
  EXPECT_EQ(borrowed.arena_bytes(), 0u);
  EXPECT_EQ(borrowed, s);
}

TEST(CommandTable, EmptyAddStaysAnAdd) {
  // An empty view may hold no storage, and a null literal marks a copy.
  Script s;
  s.push_add(0, ByteView{});
  Script owned;
  owned.push_owned_add(0, ByteView{});
  EXPECT_EQ(owned, s);
  const std::span<const CommandRef> table = s.commands();
  ASSERT_EQ(table.size(), 1u);
  EXPECT_TRUE(table[0].is_add());
  EXPECT_EQ(table[0].length, 0u);

  const auto error_of = [](const auto& fn) -> std::string {
    try {
      fn();
    } catch (const ValidationError& e) {
      return e.what();
    }
    return {};
  };
  EXPECT_EQ(error_of([&] { s.validate(10, 0); }), "command 0 has zero length");
  EXPECT_EQ(error_of([&] { satisfies_equation2(s); }),
            "command 0 has zero length");

  // The encoder writes it as an add, which the decoder refuses as one.
  DeltaHeader header;
  header.format = kVarintExplicit;
  ParsedDelta parsed;
  const auto rejection = decode_delta(serialize_delta(header, table), parsed);
  ASSERT_TRUE(rejection.has_value());
  EXPECT_EQ(rejection->message, "add command with zero length");
}

TEST(Script, EqualityComparesAddBytesNotPointers) {
  const Bytes one = test::random_bytes(5, 64);
  Bytes two = one;
  Script a;
  a.push(CopyCommand{3, 0, 8});
  a.push_add(8, one);
  Script b;
  b.push(CopyCommand{3, 0, 8});
  b.push_add(8, two);
  ASSERT_NE(a.commands()[1].literal, b.commands()[1].literal);
  EXPECT_EQ(a, b);
  Script owned;
  owned.push(CopyCommand{3, 0, 8});
  owned.push_owned_add(8, one);
  EXPECT_EQ(owned, a);
  two[17] ^= 0x01;
  EXPECT_NE(a, b);
  EXPECT_NE(b, owned);
}

TEST(Script, CopyKeepsArenaAddsValidAfterTheOriginalDies) {
  const Bytes head = test::random_bytes(6, 100);
  const Bytes tail = test::random_bytes(7, 50);
  Bytes expected = head;
  expected.insert(expected.end(), tail.begin(), tail.end());
  Script copy;
  {
    auto original = std::make_unique<Script>(
        script_of({A(0, test::random_bytes(8, 10)), C(0, 10, 5)}));
    original->push_add(15, head);
    original->append_add(115, tail);  // not contiguous: gathered
    EXPECT_EQ(original->arena_bytes(), 10u + expected.size());
    copy = *original;
    original.reset();
  }
  ASSERT_EQ(copy.size(), 3u);
  EXPECT_EQ(test::bytes_of(copy.commands()[0]), test::random_bytes(8, 10));
  EXPECT_EQ(test::bytes_of(copy.commands()[2]), expected);
  EXPECT_EQ(copy.commands()[2].to, 15u);
  // The copy's own additions do not write into the shared arena.
  copy.push_owned_add(150, to_bytes("xyz"));
  copy.append_add(153, to_bytes("uvw"));
  EXPECT_EQ(test::bytes_of(copy.commands()[3]), to_bytes("xyzuvw"));
  EXPECT_EQ(test::bytes_of(copy.commands()[2]), expected);
}

TEST(Script, AppendAddJoinsOnlyAnAbuttingAdd) {
  const Bytes version = test::random_bytes(9, 40);
  const ByteView v = version;
  Script s;
  s.push_add(0, v.first(10));
  s.append_add(10, v.subspan(10, 30));  // contiguous: a length sum
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.commands()[0].literal, version.data());
  EXPECT_EQ(s.commands()[0].length, 40u);
  EXPECT_EQ(s.arena_bytes(), 0u);
  s.append_add(41, v.first(2));  // a gap: a new add
  s.push(CopyCommand{0, 43, 2});
  s.append_add(45, v.first(2));  // after a copy: a new add
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.commands()[3].literal, version.data());
  EXPECT_EQ(s.arena_bytes(), 0u);
}

TEST(Script, SharedArenaOutlivesItsScript) {
  Script out;
  {
    Script part = script_of({A(0, "abc")});
    out.push(part.commands()[0]);
    out.share_arena(part);
  }
  EXPECT_EQ(test::bytes_of(out.commands()[0]), to_bytes("abc"));
  EXPECT_EQ(out.arena_bytes(), 3u);
}

TEST(Script, SortByWriteOffset) {
  Script s = script_of({C(2, 6, 2), A(4, "ab"), C(0, 0, 4)});
  s.sort_by_write_offset();
  EXPECT_TRUE(s.in_write_order());
  EXPECT_EQ(s.commands()[0].to, 0u);
  EXPECT_EQ(s.commands()[1].to, 4u);
  EXPECT_EQ(s.commands()[2].to, 6u);
}

TEST(Script, SameEffectIgnoresOrder) {
  const Script a = script_of({C(0, 0, 4), A(4, "ab")});
  Script b = script_of({A(4, "ab"), C(0, 0, 4)});
  EXPECT_TRUE(same_effect(a, b));
  b.push(CopyCommand{0, 6, 1});
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
