#include "inplace/scc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "adversary/constructions.hpp"
#include "inplace/topo_sort.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

CrwiGraph graph_from(const Script& script, length_t version_length) {
  return CrwiGraph::build(sorted_copies(script.commands()), version_length);
}

TEST(Scc, EmptyGraph) {
  const SccResult r = strongly_connected_components(CrwiGraph{});
  EXPECT_EQ(r.component_count, 0u);
  EXPECT_EQ(cyclic_vertex_count(r), 0u);
}

TEST(Scc, AcyclicGraphAllTrivial) {
  const Fig3Instance inst = make_fig3_quadratic(8);
  const CrwiGraph g = graph_from(inst.script, 64);
  const SccResult r = strongly_connected_components(g);
  EXPECT_EQ(r.component_count, g.vertex_count());
  EXPECT_EQ(cyclic_vertex_count(r), 0u);
  for (std::uint32_t c = 0; c < r.component_count; ++c) {
    EXPECT_TRUE(r.is_trivial(c));
  }
}

TEST(Scc, PermutationCyclesBecomeComponents) {
  // Permutation (0 1 2)(3 4)(5): components of sizes 3, 2, 1.
  const std::vector<std::uint32_t> perm = {1, 2, 0, 4, 3, 5};
  const AdversaryInstance inst = make_block_permutation(4, perm);
  const CrwiGraph g = graph_from(inst.script, 24);
  const SccResult r = strongly_connected_components(g);
  EXPECT_EQ(r.component_count, 3u);
  EXPECT_EQ(cyclic_vertex_count(r), 5u);

  std::multiset<std::size_t> sizes;
  for (const auto& members : r.members) {
    sizes.insert(members.size());
  }
  EXPECT_EQ(sizes, (std::multiset<std::size_t>{1, 2, 3}));
  // Vertices 0,1,2 share a component; 3,4 share another.
  EXPECT_EQ(r.component[0], r.component[1]);
  EXPECT_EQ(r.component[1], r.component[2]);
  EXPECT_EQ(r.component[3], r.component[4]);
  EXPECT_NE(r.component[0], r.component[3]);
  EXPECT_NE(r.component[5], r.component[0]);
}

TEST(Scc, Fig2TreeIsOneBigComponent) {
  const Fig2Instance inst = make_fig2_tree(4);
  const CrwiGraph g = graph_from(inst.script, inst.version.size());
  const SccResult r = strongly_connected_components(g);
  // Every vertex lies on some root->leaf->root cycle.
  EXPECT_EQ(r.component_count, 1u);
  EXPECT_EQ(cyclic_vertex_count(r), g.vertex_count());
}

TEST(Scc, ComponentIdsAreReverseTopological) {
  // Chain 0 -> 1 -> 2: Tarjan numbers sinks first.
  const std::vector<CopyCommand> copies = {
      {10, 0, 10}, {20, 10, 10}, {40, 20, 10}};
  const CrwiGraph g = CrwiGraph::build(copies, 50);
  const SccResult r = strongly_connected_components(g);
  ASSERT_EQ(r.component_count, 3u);
  // Edge u->v implies comp[u] > comp[v].
  EXPECT_GT(r.component[0], r.component[1]);
  EXPECT_GT(r.component[1], r.component[2]);
}

TEST(Scc, DeletedVerticesAreExcluded) {
  const AdversaryInstance inst =
      make_block_permutation(4, single_cycle_permutation(5));
  const CrwiGraph g = graph_from(inst.script, 20);
  std::vector<bool> deleted(5, false);
  deleted[2] = true;
  const SccResult r = strongly_connected_components(g, deleted);
  // Breaking the 5-cycle leaves a path: all alive components trivial.
  EXPECT_EQ(cyclic_vertex_count(r), 0u);
  EXPECT_EQ(r.component_count, 4u);
}

TEST(SccGreedyFvs, SingleCycleOneDeletion) {
  const AdversaryInstance inst =
      make_block_permutation(4, single_cycle_permutation(6));
  const CrwiGraph g = graph_from(inst.script, 24);
  const std::vector<std::uint64_t> costs = {5, 4, 3, 9, 8, 7};
  std::size_t rounds = 0;
  const auto removed = scc_greedy_fvs(g, costs, &rounds);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], 2u);  // global min of the component
  EXPECT_EQ(rounds, 2u);      // one deleting round + one clean round
}

TEST(SccGreedyFvs, DeletesCheapestOfWholeComponent) {
  // On the Figure-2 tree the whole graph is one SCC. When the root is
  // the component's cheapest vertex, SCC-greedy deletes exactly it —
  // seeing the whole component where local-min only ever sees one cycle
  // (and would delete a leaf per cycle).
  const Fig2Instance inst = make_fig2_tree(4);
  const CrwiGraph g = graph_from(inst.script, inst.version.size());
  std::vector<std::uint64_t> costs(g.vertex_count(), 10);
  costs[0] = 1;  // root (vertex 0 in write order)
  const auto removed = scc_greedy_fvs(g, costs);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], 0u);
}

TEST(SccGreedyFvs, PaysPerLeafWithPaperCostsOnFig2) {
  // With the paper's cost structure (leaf < root < inner), the cheapest
  // component vertex is a leaf, deleting it leaves the rest strongly
  // connected, and the greedy ends up paying per leaf too — Figure 2
  // defeats this heuristic as well, just over more rounds.
  const Fig2Instance inst = make_fig2_tree(3);  // 4 leaves
  const CrwiGraph g = graph_from(inst.script, inst.version.size());
  const auto copies = sorted_copies(inst.script.commands());
  std::vector<std::uint64_t> costs;
  for (const auto& c : copies) costs.push_back(c.length);
  const auto removed = scc_greedy_fvs(g, costs);
  EXPECT_EQ(removed.size(), inst.leaf_count);
}

TEST(SccGreedyFvs, ResultIsAFeedbackSetOnRandomGraphs) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const auto perm = random_permutation(rng, 40);
    const AdversaryInstance inst = make_block_permutation(4, perm);
    const CrwiGraph g = graph_from(inst.script, 160);
    std::vector<std::uint64_t> costs;
    for (int i = 0; i < 40; ++i) costs.push_back(rng.range(1, 50));

    const auto removed = scc_greedy_fvs(g, costs);
    std::vector<bool> deleted(40, false);
    for (const auto v : removed) deleted[v] = true;
    const SccResult after = strongly_connected_components(g, deleted);
    EXPECT_EQ(cyclic_vertex_count(after), 0u) << "trial " << trial;
  }
}

TEST(SccGreedyFvs, RejectsBadCostSize) {
  const AdversaryInstance inst =
      make_block_permutation(4, single_cycle_permutation(3));
  const CrwiGraph g = graph_from(inst.script, 12);
  EXPECT_THROW(scc_greedy_fvs(g, std::vector<std::uint64_t>(2, 1)),
               ValidationError);
}

}  // namespace
}  // namespace ipd
