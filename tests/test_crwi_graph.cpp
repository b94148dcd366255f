#include "inplace/crwi_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "adversary/constructions.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

TEST(CrwiGraph, EmptyGraph) {
  const CrwiGraph g = CrwiGraph::build({}, 0);
  EXPECT_EQ(g.vertex_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_FALSE(g.has_cycle());
}

TEST(CrwiGraph, NoConflictsNoEdges) {
  // Copies that read ahead of everything they write (pure left shift).
  const std::vector<CopyCommand> copies = {{100, 0, 10}, {110, 10, 10}};
  const CrwiGraph g = CrwiGraph::build(copies, 120);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_FALSE(g.has_cycle());
}

TEST(CrwiGraph, SingleEdgeDirection) {
  // u reads [10,19]; v writes [10,19]: edge u->v (u must run first).
  // Sorted by write offset: u (t=0) is vertex 0, v (t=10) is vertex 1.
  const std::vector<CopyCommand> copies = {{10, 0, 10}, {50, 10, 10}};
  const CrwiGraph g = CrwiGraph::build(copies, 60);
  EXPECT_EQ(g.edge_count(), 1u);
  ASSERT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.successors(0)[0], 1u);
  EXPECT_EQ(g.out_degree(1), 0u);
  EXPECT_FALSE(g.has_cycle());
}

TEST(CrwiGraph, SelfOverlapIsNotAnEdge) {
  // A copy whose read and write intervals overlap conflicts only with
  // itself — no vertex self-edge (§4.1).
  const std::vector<CopyCommand> copies = {{5, 0, 10}};
  const CrwiGraph g = CrwiGraph::build(copies, 10);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(CrwiGraph, TwoCycle) {
  // Swap halves: each copy reads what the other writes.
  const std::vector<CopyCommand> copies = {{10, 0, 10}, {0, 10, 10}};
  const CrwiGraph g = CrwiGraph::build(copies, 20);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_cycle());
}

TEST(CrwiGraph, EdgesMatchDefinitionOnRandomScripts) {
  // Brute-force check of the §4.2 edge relation on random disjoint
  // layouts.
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<CopyCommand> copies;
    offset_t cursor = 0;
    const length_t total = 2000;
    while (cursor < total) {
      const length_t len = rng.range(1, 40);
      copies.push_back(
          CopyCommand{rng.below(total - len), cursor, len});
      cursor += len + rng.below(3);
    }
    const length_t version_length = cursor + 10;
    const CrwiGraph g = CrwiGraph::build(copies, version_length);

    std::size_t expected_edges = 0;
    for (std::uint32_t u = 0; u < copies.size(); ++u) {
      std::vector<std::uint32_t> expected;
      for (std::uint32_t v = 0; v < copies.size(); ++v) {
        if (u != v && copies[u].read_interval().intersects(
                          copies[v].write_interval())) {
          expected.push_back(v);
        }
      }
      expected_edges += expected.size();
      const auto succ = g.successors(u);
      ASSERT_TRUE(std::equal(succ.begin(), succ.end(), expected.begin(),
                             expected.end()))
          << "vertex " << u << " trial " << trial;
    }
    EXPECT_EQ(g.edge_count(), expected_edges);
    // Lemma 1.
    EXPECT_LE(g.edge_count(), version_length);
  }
}

TEST(CrwiGraph, Fig3RealizesQuadraticEdges) {
  for (const length_t block : {4ull, 8ull, 16ull, 32ull}) {
    const Fig3Instance inst = make_fig3_quadratic(block);
    const auto copies = sorted_copies(inst.script.commands());
    const CrwiGraph g = CrwiGraph::build(copies, block * block);
    EXPECT_EQ(g.edge_count(), inst.expected_edges);
    // Θ(|C|²): with |C| = 2√L - 1, edges = (√L-1)√L > (|C|/2)²/2.
    const double c = static_cast<double>(g.vertex_count());
    EXPECT_GE(static_cast<double>(g.edge_count()), c * c / 8);
    // Lemma 1 stays tight but not violated.
    EXPECT_LE(g.edge_count(), block * block);
    EXPECT_FALSE(g.has_cycle());
  }
}

TEST(CrwiGraph, Fig2TreeShape) {
  const Fig2Instance inst = make_fig2_tree(4);  // 15 nodes, 8 leaves
  const auto copies = sorted_copies(inst.script.commands());
  ASSERT_EQ(copies.size(), 15u);
  const CrwiGraph g = CrwiGraph::build(copies, inst.version.size());
  // 14 tree edges (each non-root child pointed at by its parent) + 8
  // leaf->root edges.
  EXPECT_EQ(g.edge_count(), 22u);
  EXPECT_TRUE(g.has_cycle());
  // Root (vertex 0 in write order) has out-degree 2; leaves point only at
  // the root.
  EXPECT_EQ(g.out_degree(0), 2u);
  std::size_t leaves = 0;
  for (std::uint32_t v = 0; v < g.vertex_count(); ++v) {
    if (g.out_degree(v) == 1 && g.successors(v)[0] == 0) ++leaves;
  }
  EXPECT_EQ(leaves, inst.leaf_count);
}

TEST(CrwiGraph, PermutationCyclesMatch) {
  // A single 6-cycle permutation -> one 6-cycle in the digraph.
  const auto perm = single_cycle_permutation(6);
  const AdversaryInstance inst = make_block_permutation(8, perm);
  const auto copies = sorted_copies(inst.script.commands());
  const CrwiGraph g = CrwiGraph::build(copies, 48);
  EXPECT_EQ(g.edge_count(), 6u);
  EXPECT_TRUE(g.has_cycle());
  for (std::uint32_t v = 0; v < 6; ++v) {
    ASSERT_EQ(g.out_degree(v), 1u);
    EXPECT_EQ(g.successors(v)[0], perm[v]);
  }
}

TEST(CrwiGraph, NoCompleteTripleExists) {
  // §5: "the CRWI class does not include any complete digraphs with more
  // than two vertices". Sweep many random instances and verify no three
  // vertices are pairwise connected in both directions. (A complete
  // triple needs each vertex's read interval to hit both others' disjoint
  // writes while all three writes stay disjoint — impossible.)
  Rng rng(0xC3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<CopyCommand> copies;
    offset_t cursor = 0;
    const length_t total = 400;
    while (cursor < total) {
      const length_t len = rng.range(1, 30);
      copies.push_back(CopyCommand{
          rng.below(total), cursor, std::min<length_t>(len, total - cursor)});
      cursor += copies.back().length;
    }
    const CrwiGraph g = CrwiGraph::build(copies, total);
    // Adjacency lookup.
    const auto has_edge = [&](std::uint32_t a, std::uint32_t b) {
      const auto succ = g.successors(a);
      return std::find(succ.begin(), succ.end(), b) != succ.end();
    };
    const std::size_t n = g.vertex_count();
    for (std::uint32_t a = 0; a < n; ++a) {
      for (const std::uint32_t b : g.successors(a)) {
        if (b <= a || !has_edge(b, a)) continue;
        // (a, b) is a 2-cycle; no third vertex may complete the triple.
        for (std::uint32_t c = 0; c < n; ++c) {
          if (c == a || c == b) continue;
          EXPECT_FALSE(has_edge(a, c) && has_edge(c, a) && has_edge(b, c) &&
                       has_edge(c, b))
              << "complete triple " << a << "," << b << "," << c
              << " in trial " << trial;
        }
      }
    }
  }
}

TEST(CrwiGraph, IdentityPermutationIsEdgeless) {
  std::vector<std::uint32_t> identity(5);
  for (std::uint32_t i = 0; i < 5; ++i) identity[i] = i;
  const AdversaryInstance inst = make_block_permutation(16, identity);
  const CrwiGraph g =
      CrwiGraph::build(sorted_copies(inst.script.commands()), 80);
  EXPECT_EQ(g.edge_count(), 0u);
}

}  // namespace
}  // namespace ipd
