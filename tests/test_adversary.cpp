#include "adversary/constructions.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "apply/apply.hpp"
#include "inplace/crwi_graph.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

TEST(Fig2, ScriptIsValidAndSized) {
  for (const std::size_t depth : {2ul, 3ul, 6ul}) {
    const Fig2Instance inst = make_fig2_tree(depth);
    const std::size_t nodes = (1ul << depth) - 1;
    EXPECT_EQ(inst.script.size(), nodes);
    EXPECT_EQ(inst.leaf_count, 1ul << (depth - 1));
    ASSERT_NO_THROW(inst.script.validate(inst.reference.size(),
                                         inst.version.size()));
    EXPECT_TRUE(test::bytes_equal(inst.version,
                                  apply_script(inst.script, inst.reference)));
  }
}

TEST(Fig2, CostOrderingLeafRootInner) {
  const Fig2Instance inst = make_fig2_tree(4);
  EXPECT_LT(inst.leaf_copy_length, inst.root_copy_length);
  for (const CopyCommand& c : sorted_copies(inst.script.commands())) {
    if (c.length != inst.leaf_copy_length &&
        c.length != inst.root_copy_length) {
      EXPECT_GT(c.length, inst.root_copy_length);
    }
  }
}

TEST(Fig2, RejectsDepthBelowTwo) {
  EXPECT_THROW(make_fig2_tree(1), ValidationError);
}

TEST(Fig3, ScriptShape) {
  const Fig3Instance inst = make_fig3_quadratic(8);
  // 8 unit copies + 7 block copies.
  EXPECT_EQ(inst.script.size(), 15u);
  EXPECT_EQ(inst.expected_edges, 56u);
  ASSERT_NO_THROW(inst.script.validate(64, 64));
  EXPECT_TRUE(test::bytes_equal(inst.version,
                                apply_script(inst.script, inst.reference)));
}

TEST(Fig3, RejectsDegenerateBlock) {
  EXPECT_THROW(make_fig3_quadratic(1), ValidationError);
}

TEST(BlockPermutation, AppliesAsPermutation) {
  const std::vector<std::uint32_t> perm = {2, 0, 1};
  const AdversaryInstance inst = make_block_permutation(10, perm);
  ASSERT_EQ(inst.reference.size(), 30u);
  // Version block i = reference block perm[i].
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(test::bytes_equal(
        ByteView(inst.reference).subspan(perm[i] * 10, 10),
        ByteView(inst.version).subspan(i * 10, 10)));
  }
}

TEST(BlockPermutation, RejectsNonPermutations) {
  EXPECT_THROW(make_block_permutation(4, std::vector<std::uint32_t>{0, 0}),
               ValidationError);
  EXPECT_THROW(make_block_permutation(4, std::vector<std::uint32_t>{0, 5}),
               ValidationError);
  EXPECT_THROW(make_block_permutation(0, std::vector<std::uint32_t>{0}),
               ValidationError);
}

TEST(Rotation, VersionIsRotated) {
  const AdversaryInstance inst = make_rotation(10, 3);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(inst.version[i], inst.reference[(i + 3) % 10]);
  }
  ASSERT_NO_THROW(inst.script.validate(10, 10));
}

TEST(Rotation, RejectsDegenerateShifts) {
  EXPECT_THROW(make_rotation(10, 0), ValidationError);
  EXPECT_THROW(make_rotation(10, 10), ValidationError);
  EXPECT_THROW(make_rotation(1, 1), ValidationError);
}

TEST(Permutations, RandomPermutationIsPermutation) {
  Rng rng(1);
  for (const std::size_t n : {0ul, 1ul, 2ul, 100ul}) {
    const auto perm = random_permutation(rng, n);
    ASSERT_EQ(perm.size(), n);
    std::set<std::uint32_t> values(perm.begin(), perm.end());
    EXPECT_EQ(values.size(), n);
    if (n > 0) {
      EXPECT_EQ(*values.begin(), 0u);
      EXPECT_EQ(*values.rbegin(), n - 1);
    }
  }
}

TEST(Permutations, SingleCycleReallyIsOneCycle) {
  const auto perm = single_cycle_permutation(7);
  std::size_t steps = 0;
  std::uint32_t at = 0;
  do {
    at = perm[at];
    ++steps;
  } while (at != 0);
  EXPECT_EQ(steps, 7u);
}

}  // namespace
}  // namespace ipd
