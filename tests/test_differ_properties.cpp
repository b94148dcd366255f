// Property sweep over both differencing algorithms: for every generated
// (reference, version) pair, the script must validate against the §3
// model and reconstruct the version exactly — invariant 1 of DESIGN.md.
#include <gtest/gtest.h>

#include <tuple>

#include "apply/apply.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "delta/differ.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

struct PropertyCase {
  DifferKind differ;
  FileProfile profile;
  std::size_t base_size;
  std::size_t edits;
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  const PropertyCase& p = info.param;
  std::string name = std::string(differ_name(p.differ)) + "_" +
                     profile_name(p.profile) + "_" +
                     std::to_string(p.base_size) + "b_" +
                     std::to_string(p.edits) + "edits_s" +
                     std::to_string(p.seed);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class DifferProperty : public ::testing::TestWithParam<PropertyCase> {};

std::vector<PropertyCase> make_cases() {
  std::vector<PropertyCase> cases;
  for (const DifferKind differ :
       {DifferKind::kGreedy, DifferKind::kOnePass,
        DifferKind::kSuffixGreedy, DifferKind::kBlockAligned}) {
    for (const FileProfile profile :
         {FileProfile::kText, FileProfile::kBinary,
          FileProfile::kRecords}) {
      // The exact-greedy differ is quadratic-era machinery: cap its sweep
      // so the suite stays fast.
      const std::size_t max_size =
          differ == DifferKind::kSuffixGreedy ? 4096ul : 65536ul;
      for (const std::size_t size : {0ul, 15ul, 256ul, 4096ul, 65536ul}) {
        if (size > max_size) continue;
        for (const std::size_t edits : {0ul, 1ul, 8ul, 64ul}) {
          cases.push_back({differ, profile, size, edits,
                           size * 31 + edits * 7 + 1});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DifferProperty,
                         ::testing::ValuesIn(make_cases()), case_name);

TEST_P(DifferProperty, ValidatesAndRoundTrips) {
  const PropertyCase& p = GetParam();
  Rng rng(p.seed);
  const Bytes ref = generate_file(rng, p.base_size, p.profile);
  const Bytes ver = mutate(ref, rng, p.edits);

  const Script script = diff_bytes(p.differ, ref, ver);
  ASSERT_NO_THROW(script.validate(ref.size(), ver.size()));
  EXPECT_TRUE(script.in_write_order());
  EXPECT_TRUE(test::bytes_equal(ver, apply_script(script, ref)));
}

TEST_P(DifferProperty, DeterministicForSameInput) {
  const PropertyCase& p = GetParam();
  Rng rng(p.seed);
  const Bytes ref = generate_file(rng, p.base_size, p.profile);
  const Bytes ver = mutate(ref, rng, p.edits);
  EXPECT_EQ(diff_bytes(p.differ, ref, ver), diff_bytes(p.differ, ref, ver));
}

// Self-diff compresses to (almost) nothing for every differ and size.
class SelfDiff
    : public ::testing::TestWithParam<std::tuple<DifferKind, std::size_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, SelfDiff,
    ::testing::Combine(::testing::Values(DifferKind::kGreedy,
                                         DifferKind::kOnePass,
                                         DifferKind::kSuffixGreedy),
                       ::testing::Values(16, 1000, 100000)));

TEST_P(SelfDiff, SelfDiffIsAllCopy) {
  const auto [differ, size] = GetParam();
  const Bytes file = test::random_bytes(size, size);
  const Script script = diff_bytes(differ, file, file);
  EXPECT_TRUE(test::bytes_equal(file, apply_script(script, file)));
  EXPECT_EQ(script.summary().added_bytes, 0u);
}

TEST(ScriptBuilder, LiteralsAndCopiesInterleave) {
  const Bytes version = to_bytes("ab.....z");
  ScriptBuilder b(version);
  b.literals(2);
  b.copy(100, 5);
  b.literals(1);
  EXPECT_EQ(b.pending_literals(), 1u);
  EXPECT_EQ(b.write_offset(), 8u);
  const Script s = b.finish();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.commands()[0].to, 0u);
  EXPECT_EQ(s.commands()[1].to, 2u);
  EXPECT_EQ(s.commands()[2].to, 7u);
  EXPECT_TRUE(s.in_write_order());
  // The adds borrow the version's bytes.
  EXPECT_EQ(s.commands()[0].literal, version.data());
  EXPECT_EQ(s.commands()[2].literal, version.data() + 7);
  EXPECT_EQ(s.arena_bytes(), 0u);
}

TEST(ScriptBuilder, RetractShrinksPendingAdd) {
  const Bytes version = to_bytes("abcdef......");
  ScriptBuilder b(version);
  b.literals(6);
  b.retract(4);
  b.copy(0, 10);  // backward-extended match re-claims 4 bytes
  const Script s = b.finish();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(test::bytes_of(s.commands()[0]), to_bytes("ab"));
  EXPECT_FALSE(s.commands()[1].is_add());
  EXPECT_EQ(s.commands()[1].to, 2u);
}

TEST(ScriptBuilder, RetractAcrossARun) {
  // Literals counted in three steps form one run; a retract may take
  // back bytes from more than one of them.
  const Bytes version = to_bytes("0123456789abcdef");
  ScriptBuilder b(version);
  b.literals(3);
  b.literals(4);
  b.literals(1);
  b.retract(6);
  EXPECT_EQ(b.pending_literals(), 2u);
  EXPECT_EQ(b.write_offset(), 2u);
  b.copy(40, 10);
  b.literals(4);
  const Script s = b.finish();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(test::bytes_of(s.commands()[0]), to_bytes("01"));
  EXPECT_EQ(s.commands()[1].to, 2u);
  EXPECT_EQ(s.commands()[1].length, 10u);
  EXPECT_EQ(test::bytes_of(s.commands()[2]), to_bytes("cdef"));
  EXPECT_EQ(s.commands()[2].literal, version.data() + 12);
}

TEST(ScriptBuilder, FinishWithOnlyLiterals) {
  const Bytes version = to_bytes("xyz");
  ScriptBuilder b(version);
  b.literals(3);
  const Script s = b.finish();
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.summary().added_bytes, 3u);
}

TEST(ScriptBuilder, EmptyFinish) {
  ScriptBuilder b(ByteView{});
  EXPECT_TRUE(b.finish().empty());
  // Nothing classed yet: no add, even over a non-empty version.
  const Bytes version = to_bytes("abc");
  ScriptBuilder unused(version);
  EXPECT_TRUE(unused.finish().empty());
  ScriptBuilder retracted(version);
  retracted.literals(2);
  retracted.retract(2);
  EXPECT_TRUE(retracted.finish().empty());
}

TEST(DifferFactory, MakesAllKinds) {
  EXPECT_STREQ(make_differ(DifferKind::kGreedy)->name(), "greedy");
  EXPECT_STREQ(make_differ(DifferKind::kOnePass)->name(), "one-pass");
  EXPECT_STREQ(make_differ(DifferKind::kSuffixGreedy)->name(),
               "suffix-greedy");
  EXPECT_STREQ(make_differ(DifferKind::kBlockAligned)->name(),
               "block-aligned");
  EXPECT_STREQ(differ_name(DifferKind::kGreedy), "greedy");
  EXPECT_STREQ(differ_name(DifferKind::kOnePass), "one-pass");
  EXPECT_STREQ(differ_name(DifferKind::kSuffixGreedy), "suffix-greedy");
  EXPECT_STREQ(differ_name(DifferKind::kBlockAligned), "block-aligned");
}

TEST(DifferFactory, BlockSizeOptionReachesBlockDiffer) {
  DifferOptions options;
  options.block_size = 64;
  const Bytes ref = test::random_bytes(1, 640);
  const Script s = make_differ(DifferKind::kBlockAligned, options)
                       ->diff(ref, ref);
  EXPECT_EQ(s.summary().copy_count, 10u);  // 640 / 64 aligned copies
}

}  // namespace
}  // namespace ipd
