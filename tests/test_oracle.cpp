#include "apply/oracle.hpp"

#include <gtest/gtest.h>

#include "adversary/constructions.hpp"
#include "core/rng.hpp"
#include "inplace/converter.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

using test::A;
using test::C;
using test::script_of;

TEST(Oracle, CleanScriptHasNoConflicts) {
  const Script s = script_of({C(50, 0, 25), C(80, 25, 20), A(45, "xyz")});
  const ConflictAnalysis a = analyze_conflicts(s);
  EXPECT_TRUE(a.in_place_safe());
  EXPECT_EQ(a.corrupt_bytes, 0u);
}

TEST(Oracle, DetectsBasicWriteBeforeRead) {
  // Command 0 writes [0,9]; command 1 reads [5,14]: 5 corrupt bytes.
  const Script s = script_of({C(20, 0, 10), C(5, 10, 10)});
  const ConflictAnalysis a = analyze_conflicts(s);
  ASSERT_EQ(a.conflicts.size(), 1u);
  EXPECT_EQ(a.conflicts[0].reader_index, 1u);
  EXPECT_EQ(a.conflicts[0].writer_index, 0u);
  EXPECT_EQ(a.conflicts[0].overlap, (Interval{5, 9}));
  EXPECT_EQ(a.corrupt_bytes, 5u);
}

TEST(Oracle, SeesAWriteShadowedByAShorterOne) {
  // Command 1 rewrites only [0,0] of command 0's [0,9]; the copy still
  // reads [5,5], which command 0 wrote.
  const Script s = script_of({A(0, "0123456789"), A(0, "x"), C(5, 20, 1)});
  const ConflictAnalysis a = analyze_conflicts(s);
  ASSERT_EQ(a.conflicts.size(), 1u);
  EXPECT_EQ(a.conflicts[0].reader_index, 2u);
  EXPECT_EQ(a.conflicts[0].writer_index, 0u);
  EXPECT_EQ(a.conflicts[0].overlap, (Interval{5, 5}));
  EXPECT_EQ(a.corrupt_bytes, 1u);
}

TEST(Oracle, AttributesEachByteToItsLastWriter) {
  // Command 1 overwrites [4,5] in the middle of command 0's [0,9]; a read
  // of [0,9] meets command 0 on both sides and command 1 between, and
  // every corrupt byte is counted once.
  const Script s = script_of({A(0, "0123456789"), A(4, "ab"), C(0, 20, 10)});
  const ConflictAnalysis a = analyze_conflicts(s);
  ASSERT_EQ(a.conflicts.size(), 3u);
  EXPECT_EQ(a.conflicts[0].writer_index, 0u);
  EXPECT_EQ(a.conflicts[0].overlap, (Interval{6, 9}));
  EXPECT_EQ(a.conflicts[1].writer_index, 1u);
  EXPECT_EQ(a.conflicts[1].overlap, (Interval{4, 5}));
  EXPECT_EQ(a.conflicts[2].writer_index, 0u);
  EXPECT_EQ(a.conflicts[2].overlap, (Interval{0, 3}));
  EXPECT_EQ(a.corrupt_bytes, 10u);
}

TEST(Oracle, OrderMatters) {
  // The same two commands in the safe order: no conflict.
  const Script s = script_of({C(5, 10, 10), C(20, 0, 10)});
  EXPECT_TRUE(analyze_conflicts(s).in_place_safe());
}

TEST(Oracle, AddsConflictAsWritersNotReaders) {
  // An add never reads, but a later copy may read what it wrote.
  const Script reader_after_add = script_of({A(0, "abcd"), C(2, 10, 4)});
  const ConflictAnalysis a = analyze_conflicts(reader_after_add);
  ASSERT_EQ(a.conflicts.size(), 1u);
  EXPECT_EQ(a.conflicts[0].writer_index, 0u);
  EXPECT_EQ(a.conflicts[0].overlap, (Interval{2, 3}));

  const Script add_last = script_of({C(2, 10, 4), A(0, "abcd")});
  EXPECT_TRUE(analyze_conflicts(add_last).in_place_safe());
}

TEST(Oracle, SelfOverlapIsNotAConflict) {
  const Script s = script_of({C(0, 5, 10)});
  EXPECT_TRUE(analyze_conflicts(s).in_place_safe());
}

TEST(Oracle, OneReadCanConflictWithManyWriters) {
  // Three 4-byte writes tile [0,11]; a later copy reads all of it.
  const Script s =
      script_of({C(20, 0, 4), C(24, 4, 4), C(28, 8, 4), C(0, 12, 12)});
  const ConflictAnalysis a = analyze_conflicts(s);
  EXPECT_EQ(a.conflicts.size(), 3u);
  EXPECT_EQ(a.corrupt_bytes, 12u);
  for (const Conflict& c : a.conflicts) {
    EXPECT_EQ(c.reader_index, 3u);
  }
}

TEST(Oracle, MaxConflictsTruncates) {
  const Script s =
      script_of({C(20, 0, 4), C(24, 4, 4), C(28, 8, 4), C(0, 12, 12)});
  EXPECT_EQ(analyze_conflicts(s, 2).conflicts.size(), 2u);
}

TEST(Oracle, RotationScriptConflictsUntilConverted) {
  const AdversaryInstance inst = make_rotation(1000, 250);
  EXPECT_FALSE(analyze_conflicts(inst.script).in_place_safe());
  const ConvertResult r = convert_to_inplace(inst.script, inst.reference, {});
  EXPECT_TRUE(analyze_conflicts(r.script).in_place_safe());
}

TEST(Oracle, AgreesWithEquation2CheckerOnRandomScripts) {
  Rng rng(31337);
  for (int trial = 0; trial < 200; ++trial) {
    // Random valid-ish scripts: disjoint writes, random reads, random
    // order.
    Script s;
    offset_t cursor = 0;
    const int commands = static_cast<int>(rng.range(1, 12));
    for (int i = 0; i < commands; ++i) {
      const length_t len = rng.range(1, 30);
      if (rng.chance(0.3)) {
        Bytes data(len, static_cast<std::uint8_t>(i));
        s.push(AddCommand{cursor, std::move(data)});
      } else {
        s.push(CopyCommand{rng.below(300), cursor, len});
      }
      cursor += len;
    }
    // Shuffle the command order.
    auto& cmds = s.commands();
    for (std::size_t i = cmds.size(); i > 1; --i) {
      std::swap(cmds[i - 1], cmds[rng.below(i)]);
    }
    EXPECT_EQ(analyze_conflicts(s).in_place_safe(), satisfies_equation2(s))
        << "trial " << trial;
  }
}

// The streaming appliers' written set against a byte bitmap: every
// query agrees, and spans stay coalesced (one per maximal written run,
// touching runs merged).
TEST(WrittenIntervals, MatchesABitmapAndStaysCoalesced) {
  Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<bool> bitmap(512, false);
    WrittenIntervals written;
    for (int op = 0; op < 60; ++op) {
      const offset_t first = rng.below(500);
      const Interval range{first, first + rng.below(512 - first)};
      bool expect = false;
      for (offset_t b = range.first; b <= range.last; ++b) {
        expect |= bitmap[b];
      }
      ASSERT_EQ(written.intersects(range), expect)
          << "trial " << trial << " op " << op << " " << range;
      if (rng.chance(0.5)) {
        written.insert(range);
        for (offset_t b = range.first; b <= range.last; ++b) bitmap[b] = true;
      }
      std::size_t runs = 0;
      for (std::size_t b = 0; b < bitmap.size(); ++b) {
        runs += bitmap[b] && (b == 0 || !bitmap[b - 1]);
      }
      ASSERT_EQ(written.spans(), runs) << "trial " << trial << " op " << op;
    }
  }
}

TEST(Oracle, EmptyScript) {
  EXPECT_TRUE(analyze_conflicts(Script{}).in_place_safe());
}

}  // namespace
}  // namespace ipd
