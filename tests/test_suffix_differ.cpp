#include "delta/suffix_differ.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "apply/apply.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "delta/greedy_differ.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

using test::random_bytes;

TEST(SuffixMatcher, SuffixArrayIsSorted) {
  const Bytes data = to_bytes("banana");
  const SuffixMatcher matcher(data);
  const auto& sa = matcher.suffix_array();
  ASSERT_EQ(sa.size(), 6u);
  // banana suffixes sorted: a, ana, anana, banana, na, nana.
  EXPECT_EQ(sa, (std::vector<std::uint32_t>{5, 3, 1, 0, 4, 2}));
}

TEST(SuffixMatcher, SuffixArraySortedOnRandomInput) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Bytes data = random_bytes(seed, 500);
    const SuffixMatcher matcher(data);
    const auto& sa = matcher.suffix_array();
    for (std::size_t i = 1; i < sa.size(); ++i) {
      const ByteView a = ByteView(data).subspan(sa[i - 1]);
      const ByteView b = ByteView(data).subspan(sa[i]);
      EXPECT_TRUE(std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                               b.end()))
          << "seed " << seed << " at " << i;
    }
  }
}

TEST(SuffixMatcher, FindsExactSubstring) {
  const Bytes data = to_bytes("the quick brown fox jumps");
  const SuffixMatcher matcher(data);
  const auto m = matcher.longest_match(to_bytes("brown fox stew"));
  EXPECT_EQ(m.position, 10u);
  EXPECT_EQ(m.length, 10u);  // "brown fox "
}

TEST(SuffixMatcher, MatchesLongestAgainstBruteForce) {
  Rng rng(9);
  const Bytes ref = random_bytes(10, 800);
  const SuffixMatcher matcher(ref);
  for (int trial = 0; trial < 200; ++trial) {
    // Queries built from reference slices + noise so matches exist.
    Bytes query;
    const std::size_t at = rng.below(ref.size());
    const std::size_t n = rng.below(ref.size() - at) % 60;
    query.insert(query.end(), ref.begin() + static_cast<std::ptrdiff_t>(at),
                 ref.begin() + static_cast<std::ptrdiff_t>(at + n));
    query.push_back(static_cast<std::uint8_t>(rng.below(256)));

    // Brute force longest prefix of query occurring in ref.
    std::size_t best = 0;
    for (std::size_t s = 0; s < ref.size(); ++s) {
      std::size_t k = 0;
      while (s + k < ref.size() && k < query.size() &&
             ref[s + k] == query[k]) {
        ++k;
      }
      best = std::max(best, k);
    }
    EXPECT_EQ(matcher.longest_match(query).length, best)
        << "trial " << trial;
  }
}

TEST(SuffixMatcher, EmptyInputs) {
  const SuffixMatcher empty(ByteView{});
  EXPECT_EQ(empty.longest_match(to_bytes("abc")).length, 0u);
  const SuffixMatcher nonempty(to_bytes("abc"));
  EXPECT_EQ(nonempty.longest_match({}).length, 0u);
}

TEST(SuffixDiffer, RoundTripsAcrossProfiles) {
  Rng rng(4);
  for (const FileProfile profile :
       {FileProfile::kText, FileProfile::kBinary, FileProfile::kRecords}) {
    const Bytes ref = generate_file(rng, 8000, profile);
    const Bytes ver = mutate(ref, rng, 10);
    const Script script = SuffixDiffer(DifferOptions{}).diff(ref, ver);
    ASSERT_NO_THROW(script.validate(ref.size(), ver.size()));
    EXPECT_TRUE(test::bytes_equal(ver, apply_script(script, ref)))
        << profile_name(profile);
  }
}

TEST(SuffixDiffer, NeverCopiesLessThanHashedGreedy) {
  // The exact longest-match greedy is the compression ceiling: on any
  // input it copies at least as many bytes as the chain-capped greedy
  // with the same min_match.
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const Bytes ref = generate_file(rng, 12000, FileProfile::kText);
    const Bytes ver = mutate(ref, rng, 12);
    DifferOptions options;
    options.seed_length = 16;
    options.min_match = 16;
    const Script exact = SuffixDiffer(options).diff(ref, ver);
    const Script hashed = GreedyDiffer(options).diff(ref, ver);
    EXPECT_LE(exact.summary().added_bytes, hashed.summary().added_bytes)
        << "trial " << trial;
  }
}

TEST(SuffixDiffer, FindsShortMatchesHashDifferCannot) {
  // min_match below the hash differ's seed size: the suffix differ can
  // exploit 4-byte matches.
  const Bytes ref = to_bytes("abcdXXXXefghYYYYijkl");
  const Bytes ver = to_bytes("abcdefghijkl");
  DifferOptions options;
  options.min_match = 4;
  const Script script = SuffixDiffer(options).diff(ref, ver);
  EXPECT_TRUE(test::bytes_equal(ver, apply_script(script, ref)));
  EXPECT_EQ(script.summary().added_bytes, 0u);
  EXPECT_EQ(script.summary().copy_count, 3u);
}

TEST(SuffixDiffer, IdenticalFilesSingleCopy) {
  const Bytes file = random_bytes(6, 5000);
  const Script script = SuffixDiffer(DifferOptions{}).diff(file, file);
  EXPECT_EQ(script.summary().copy_count, 1u);
  EXPECT_EQ(script.summary().added_bytes, 0u);
}

TEST(SuffixDiffer, EmptyAndDegenerate) {
  EXPECT_TRUE(SuffixDiffer(DifferOptions{}).diff({}, {}).empty());
  const Bytes ver = random_bytes(7, 100);
  const Script script = SuffixDiffer(DifferOptions{}).diff({}, ver);
  EXPECT_TRUE(test::bytes_equal(ver, apply_script(script, {})));
}

TEST(SuffixDiffer, ZeroMinMatchIsRejected) {
  // A zero-length match would be emitted as a copy and never advance.
  EXPECT_THROW(SuffixDiffer({.min_match = 0}), ValidationError);
}

}  // namespace
}  // namespace ipd
