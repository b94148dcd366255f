#include "inplace/exact_fvs.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "adversary/constructions.hpp"
#include "inplace/topo_sort.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

CrwiGraph graph_from(const Script& script, length_t version_length) {
  return CrwiGraph::build(sorted_copies(script.commands()), version_length);
}

bool acyclic_after_removal(const CrwiGraph& g,
                           const std::vector<std::uint32_t>& removed) {
  std::vector<bool> pre(g.vertex_count(), false);
  for (const std::uint32_t v : removed) pre[v] = true;
  const std::vector<std::uint64_t> costs(g.vertex_count(), 1);
  const TopoSortResult r = topo_sort_breaking_cycles(
      g, BreakPolicy::kConstantTime, costs, pre);
  return r.cycles_found == 0;
}

TEST(ExactFvs, AcyclicGraphNeedsNothing) {
  const Fig3Instance inst = make_fig3_quadratic(4);
  const CrwiGraph g = graph_from(inst.script, 16);
  const std::vector<std::uint64_t> costs(g.vertex_count(), 1);
  const ExactFvsResult r = exact_min_fvs(g, costs);
  EXPECT_TRUE(r.removed.empty());
  EXPECT_EQ(r.cost, 0u);
  EXPECT_TRUE(r.optimal);
}

TEST(ExactFvs, SingleCycleRemovesCheapestVertex) {
  const AdversaryInstance inst =
      make_block_permutation(4, single_cycle_permutation(5));
  const CrwiGraph g = graph_from(inst.script, 20);
  const std::vector<std::uint64_t> costs = {9, 9, 2, 9, 9};
  const ExactFvsResult r = exact_min_fvs(g, costs);
  ASSERT_EQ(r.removed.size(), 1u);
  EXPECT_EQ(r.removed[0], 2u);
  EXPECT_EQ(r.cost, 2u);
  EXPECT_TRUE(acyclic_after_removal(g, r.removed));
}

TEST(ExactFvs, TwoDisjointCyclesRemoveOneEach) {
  // Permutation with cycles (0 1 2) and (3 4).
  const std::vector<std::uint32_t> perm = {1, 2, 0, 4, 3};
  const AdversaryInstance inst = make_block_permutation(4, perm);
  const CrwiGraph g = graph_from(inst.script, 20);
  const std::vector<std::uint64_t> costs = {5, 1, 5, 7, 3};
  const ExactFvsResult r = exact_min_fvs(g, costs);
  ASSERT_EQ(r.removed.size(), 2u);
  EXPECT_EQ(r.cost, 1u + 3u);
  EXPECT_TRUE(std::find(r.removed.begin(), r.removed.end(), 1u) !=
              r.removed.end());
  EXPECT_TRUE(std::find(r.removed.begin(), r.removed.end(), 4u) !=
              r.removed.end());
  EXPECT_TRUE(acyclic_after_removal(g, r.removed));
}

TEST(ExactFvs, Fig2OptimumIsTheRoot) {
  // The paper's Figure 2 point: every root->leaf cycle shares the root,
  // so the optimum deletes the root alone, beating local-min's k leaves.
  const Fig2Instance inst = make_fig2_tree(4);  // 8 leaves
  const CrwiGraph g = graph_from(inst.script, inst.version.size());
  const auto copies = sorted_copies(inst.script.commands());
  std::vector<std::uint64_t> costs;
  for (const auto& c : copies) costs.push_back(c.length);

  const ExactFvsResult r = exact_min_fvs(g, costs);
  ASSERT_EQ(r.removed.size(), 1u);
  EXPECT_EQ(r.removed[0], 0u);  // the root is vertex 0 in write order
  EXPECT_EQ(r.cost, inst.root_copy_length);
  EXPECT_LT(r.cost, inst.leaf_count * inst.leaf_copy_length);
  EXPECT_TRUE(acyclic_after_removal(g, r.removed));
}

TEST(ExactFvs, NeverWorseThanHeuristicsOnRandomGraphs) {
  Rng rng(222);
  for (int trial = 0; trial < 10; ++trial) {
    const auto perm = random_permutation(rng, 12);
    const AdversaryInstance inst = make_block_permutation(4, perm);
    const CrwiGraph g = graph_from(inst.script, 48);
    std::vector<std::uint64_t> costs;
    for (std::size_t i = 0; i < 12; ++i) costs.push_back(rng.range(1, 100));

    const ExactFvsResult exact = exact_min_fvs(g, costs);
    EXPECT_TRUE(exact.optimal);
    EXPECT_TRUE(acyclic_after_removal(g, exact.removed));

    for (const BreakPolicy policy :
         {BreakPolicy::kConstantTime, BreakPolicy::kLocalMin}) {
      const TopoSortResult heur = topo_sort_breaking_cycles(g, policy, costs);
      std::uint64_t heur_cost = 0;
      for (const std::uint32_t v : heur.deleted) heur_cost += costs[v];
      EXPECT_LE(exact.cost, heur_cost) << policy_name(policy);
    }
  }
}

TEST(ExactFvs, RejectsOversizeGraph) {
  const AdversaryInstance inst =
      make_block_permutation(4, single_cycle_permutation(10));
  const CrwiGraph g = graph_from(inst.script, 40);
  const std::vector<std::uint64_t> costs(10, 1);
  ExactFvsOptions options;
  options.max_vertices = 5;
  EXPECT_THROW(exact_min_fvs(g, costs, options), ValidationError);
}

TEST(ExactFvs, RejectsMismatchedCosts) {
  const CrwiGraph g;
  EXPECT_NO_THROW(exact_min_fvs(g, {}));
  const AdversaryInstance inst =
      make_block_permutation(4, single_cycle_permutation(3));
  const CrwiGraph g3 = graph_from(inst.script, 12);
  EXPECT_THROW(exact_min_fvs(g3, std::vector<std::uint64_t>(2, 1)),
               ValidationError);
}

TEST(ExactFvs, BudgetExhaustionFlagsNonOptimal) {
  const AdversaryInstance inst =
      make_block_permutation(4, single_cycle_permutation(8));
  const CrwiGraph g = graph_from(inst.script, 32);
  const std::vector<std::uint64_t> costs(8, 1);
  ExactFvsOptions options;
  options.max_search_nodes = 1;  // allow almost no search
  const ExactFvsResult r = exact_min_fvs(g, costs, options);
  EXPECT_FALSE(r.optimal);
}

}  // namespace
}  // namespace ipd
