#include "delta/greedy_differ.hpp"

#include <gtest/gtest.h>

#include "apply/apply.hpp"
#include "inplace/crwi_graph.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

using test::random_bytes;

Script diff(ByteView ref, ByteView ver, DifferOptions opts = {}) {
  return GreedyDiffer(opts).diff(ref, ver);
}

void expect_roundtrip(ByteView ref, ByteView ver, const Script& script) {
  ASSERT_NO_THROW(script.validate(ref.size(), ver.size()));
  EXPECT_TRUE(test::bytes_equal(ver, apply_script(script, ref)));
}

TEST(GreedyDiffer, IdenticalFilesOneCopy) {
  const Bytes file = random_bytes(1, 10000);
  const Script script = diff(file, file);
  expect_roundtrip(file, file, script);
  ASSERT_EQ(script.size(), 1u);
  const CommandRef& copy = script.commands()[0];
  ASSERT_FALSE(copy.is_add());
  EXPECT_EQ(copy.from, 0u);
  EXPECT_EQ(copy.length, 10000u);
}

TEST(GreedyDiffer, EmptyVersionEmptyScript) {
  const Bytes ref = random_bytes(2, 100);
  EXPECT_TRUE(diff(ref, {}).empty());
}

TEST(GreedyDiffer, EmptyReferenceAllAdds) {
  const Bytes ver = random_bytes(3, 500);
  const Script script = diff({}, ver);
  expect_roundtrip({}, ver, script);
  EXPECT_EQ(script.summary().copy_count, 0u);
}

TEST(GreedyDiffer, UnrelatedFilesMostlyAdds) {
  const Bytes ref = random_bytes(4, 5000);
  const Bytes ver = random_bytes(5, 5000);
  const Script script = diff(ref, ver);
  expect_roundtrip(ref, ver, script);
  // Random data shares essentially no 16-byte seeds.
  EXPECT_GT(script.summary().added_bytes, 4900u);
}

TEST(GreedyDiffer, InsertionSplitsIntoCopyAddCopy) {
  const Bytes ref = random_bytes(6, 4000);
  Bytes ver = ref;
  const Bytes inserted = random_bytes(7, 100);
  ver.insert(ver.begin() + 2000, inserted.begin(), inserted.end());
  const Script script = diff(ref, ver);
  expect_roundtrip(ref, ver, script);
  const ScriptSummary sum = script.summary();
  EXPECT_EQ(sum.copy_count, 2u);
  EXPECT_EQ(sum.add_count, 1u);
  EXPECT_EQ(sum.added_bytes, 100u);
}

TEST(GreedyDiffer, DeletionNeedsTwoCopies) {
  const Bytes ref = random_bytes(8, 4000);
  Bytes ver = ref;
  ver.erase(ver.begin() + 1000, ver.begin() + 1300);
  const Script script = diff(ref, ver);
  expect_roundtrip(ref, ver, script);
  EXPECT_EQ(script.summary().copy_count, 2u);
  EXPECT_EQ(script.summary().added_bytes, 0u);
}

TEST(GreedyDiffer, BlockMoveEncodedAsCopies) {
  const Bytes ref = random_bytes(9, 4096);
  // Swap the two halves — string-to-string correction with block move.
  Bytes ver(ref.begin() + 2048, ref.end());
  ver.insert(ver.end(), ref.begin(), ref.begin() + 2048);
  const Script script = diff(ref, ver);
  expect_roundtrip(ref, ver, script);
  EXPECT_EQ(script.summary().added_bytes, 0u);
  EXPECT_LE(script.summary().copy_count, 3u);
}

TEST(GreedyDiffer, FindsUnalignedMatches) {
  // A match at an arbitrary byte offset, the paper's §2 requirement.
  const Bytes ref = random_bytes(10, 3000);
  Bytes ver = random_bytes(11, 777);
  ver.insert(ver.end(), ref.begin() + 123, ref.begin() + 1456);
  const Script script = diff(ref, ver);
  expect_roundtrip(ref, ver, script);
  bool found = false;
  for (const CopyCommand& c : sorted_copies(script.commands())) {
    if (c.from == 123 && c.length >= 1000) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(GreedyDiffer, BackwardExtensionMergesLiterals) {
  // The version tweaks one byte; backward extension should re-absorb the
  // bytes after the tweak into the following copy.
  Bytes ref = random_bytes(12, 2048);
  Bytes ver = ref;
  ver[512] ^= 0xFF;
  const Script script = diff(ref, ver);
  expect_roundtrip(ref, ver, script);
  EXPECT_EQ(script.summary().added_bytes, 1u);
  EXPECT_EQ(script.summary().copy_count, 2u);
}

TEST(GreedyDiffer, PicksLongestOfRepeatedMatches) {
  // Reference holds a short and a long occurrence of the same prefix; the
  // greedy differ must chase the chain to the longer one.
  Bytes ref = random_bytes(13, 512);                 // noise
  const Bytes long_block = random_bytes(14, 900);
  Bytes short_block(long_block.begin(), long_block.begin() + 64);
  ref.insert(ref.end(), short_block.begin(), short_block.end());
  const Bytes separator = random_bytes(15, 64);
  ref.insert(ref.end(), separator.begin(), separator.end());
  ref.insert(ref.end(), long_block.begin(), long_block.end());

  const Bytes& ver = long_block;
  const Script script = diff(ref, ver, {.seed_length = 16, .min_match = 16});
  expect_roundtrip(ref, ver, script);
  EXPECT_EQ(script.summary().copy_count, 1u);
  EXPECT_EQ(sorted_copies(script.commands())[0].length, 900u);
}

TEST(GreedyDiffer, VersionShorterThanSeedIsLiteral) {
  const Bytes ref = random_bytes(16, 100);
  const Bytes ver(ref.begin(), ref.begin() + 8);  // < default seed 16
  const Script script = diff(ref, ver);
  expect_roundtrip(ref, ver, script);
  EXPECT_EQ(script.summary().copy_count, 0u);
}

TEST(GreedyDiffer, MinMatchFiltersShortMatches) {
  Bytes ref = random_bytes(17, 64);
  Bytes ver = random_bytes(18, 500);
  // Plant a 20-byte shared region — below a min_match of 32.
  std::copy_n(ref.begin(), 20, ver.begin() + 100);
  const Script script =
      diff(ref, ver, {.seed_length = 16, .min_match = 32});
  expect_roundtrip(ref, ver, script);
  EXPECT_EQ(script.summary().copy_count, 0u);
}

TEST(GreedyDiffer, HighlyRepetitiveInputBoundedByMaxChain) {
  // All-zero files produce one giant chain bucket; max_chain keeps this
  // tractable and the output must still be correct.
  const Bytes ref(32768, 0);
  const Bytes ver(50000, 0);
  const Script script = diff(ref, ver, {.max_chain = 4});
  expect_roundtrip(ref, ver, script);
}

}  // namespace
}  // namespace ipd
