#include "inplace/topo_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "adversary/constructions.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

CrwiGraph graph_from(const std::vector<CopyCommand>& copies,
                     length_t version_length) {
  auto sorted = copies;
  std::sort(sorted.begin(), sorted.end(),
            [](const CopyCommand& a, const CopyCommand& b) {
              return a.to < b.to;
            });
  return CrwiGraph::build(sorted, version_length);
}

std::vector<std::uint64_t> unit_costs(std::size_t n) {
  return std::vector<std::uint64_t>(n, 1);
}

class TopoPolicyTest : public ::testing::TestWithParam<BreakPolicy> {};
INSTANTIATE_TEST_SUITE_P(Policies, TopoPolicyTest,
                         ::testing::Values(BreakPolicy::kConstantTime,
                                           BreakPolicy::kLocalMin),
                         [](const auto& info) {
                           return info.param == BreakPolicy::kConstantTime
                                      ? "constant"
                                      : "localmin";
                         });

TEST_P(TopoPolicyTest, AcyclicGraphKeepsEverything) {
  // Chain 0 -> 1 -> 2 via read/write conflicts.
  const std::vector<CopyCommand> copies = {
      {10, 0, 10},   // reads [10,19] = writes of vertex 1
      {20, 10, 10},  // reads [20,29] = writes of vertex 2
      {40, 20, 10},
  };
  const CrwiGraph g = graph_from(copies, 50);
  const TopoSortResult r =
      topo_sort_breaking_cycles(g, GetParam(), unit_costs(3));
  EXPECT_TRUE(r.deleted.empty());
  EXPECT_EQ(r.cycles_found, 0u);
  ASSERT_EQ(r.order.size(), 3u);
  EXPECT_TRUE(is_topological_order(g, r.order, r.deleted));
  // The chain forces the unique order 0, 1, 2.
  EXPECT_EQ(r.order, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST_P(TopoPolicyTest, TwoCycleDeletesExactlyOne) {
  const std::vector<CopyCommand> copies = {{10, 0, 10}, {0, 10, 10}};
  const CrwiGraph g = graph_from(copies, 20);
  const TopoSortResult r =
      topo_sort_breaking_cycles(g, GetParam(), unit_costs(2));
  EXPECT_EQ(r.deleted.size(), 1u);
  EXPECT_EQ(r.cycles_found, 1u);
  EXPECT_EQ(r.order.size(), 1u);
  EXPECT_TRUE(is_topological_order(g, r.order, r.deleted));
}

TEST_P(TopoPolicyTest, SingleCyclePermutationsDeleteOneVertexEach) {
  for (const std::size_t n : {2ul, 3ul, 10ul, 100ul}) {
    const auto perm = single_cycle_permutation(n);
    const AdversaryInstance inst = make_block_permutation(4, perm);
    const CrwiGraph g =
        graph_from(sorted_copies(inst.script.commands()), n * 4);
    const TopoSortResult r =
        topo_sort_breaking_cycles(g, GetParam(), unit_costs(n));
    EXPECT_EQ(r.deleted.size(), 1u) << "n=" << n;
    EXPECT_TRUE(is_topological_order(g, r.order, r.deleted));
  }
}

TEST_P(TopoPolicyTest, RandomPermutationDeletesOnePerNontrivialCycle) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 50;
    const auto perm = random_permutation(rng, n);
    // Count permutation cycles of length >= 2.
    std::vector<bool> seen(n, false);
    std::size_t nontrivial = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (seen[i]) continue;
      std::size_t len = 0;
      for (std::size_t j = i; !seen[j]; j = perm[j]) {
        seen[j] = true;
        ++len;
      }
      if (len >= 2) ++nontrivial;
    }
    const AdversaryInstance inst = make_block_permutation(4, perm);
    const CrwiGraph g =
        graph_from(sorted_copies(inst.script.commands()), n * 4);
    const TopoSortResult r =
        topo_sort_breaking_cycles(g, GetParam(), unit_costs(n));
    EXPECT_EQ(r.deleted.size(), nontrivial);
    EXPECT_TRUE(is_topological_order(g, r.order, r.deleted));
  }
}

TEST(TopoSort, LocalMinPicksCheapestOnCycle) {
  // 3-cycle 0 -> 1 -> 2 -> 0 with distinct costs; local-min must delete
  // the cheapest vertex (1), constant-time deletes where detection
  // happened.
  const auto perm = single_cycle_permutation(3);
  const AdversaryInstance inst = make_block_permutation(4, perm);
  const CrwiGraph g = graph_from(sorted_copies(inst.script.commands()), 12);
  const std::vector<std::uint64_t> costs = {10, 1, 10};
  const TopoSortResult r =
      topo_sort_breaking_cycles(g, BreakPolicy::kLocalMin, costs);
  ASSERT_EQ(r.deleted.size(), 1u);
  EXPECT_EQ(r.deleted[0], 1u);
  EXPECT_GE(r.cycle_length_sum, 3u);
}

TEST(TopoSort, InteriorVictimUnwindsInOneCall) {
  // 4-cycle 0 -> 1 -> 2 -> 3 -> 0 (vertex i writes [10i, 10i + 10) and
  // reads vertex i + 1's write). The DFS from 0 finds the back edge
  // 3 -> 0 with the gray path 0, 1, 2, 3; local-min deletes the interior
  // vertex 1 and the back edge's source 3 survives. 2 and 3 are unwound
  // and sorted later from root 2, so the one DFS yields 2, 3, 0.
  const std::vector<CopyCommand> copies = {
      {10, 0, 10}, {20, 10, 10}, {30, 20, 10}, {0, 30, 10}};
  const CrwiGraph g = graph_from(copies, 40);
  const std::vector<std::uint64_t> costs = {10, 1, 10, 10};
  const TopoSortResult r =
      topo_sort_breaking_cycles(g, BreakPolicy::kLocalMin, costs);
  EXPECT_EQ(r.deleted, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(r.cycles_found, 1u);
  EXPECT_EQ(r.cycle_length_sum, 4u);
  EXPECT_TRUE(is_topological_order(g, r.order, r.deleted));
  EXPECT_EQ(r.order, (std::vector<std::uint32_t>{2, 3, 0}));
}

TEST(TopoSort, ConstantTimeDoesNoCycleScanning) {
  const auto perm = single_cycle_permutation(64);
  const AdversaryInstance inst = make_block_permutation(4, perm);
  const CrwiGraph g = graph_from(sorted_copies(inst.script.commands()), 64 * 4);
  const TopoSortResult r = topo_sort_breaking_cycles(
      g, BreakPolicy::kConstantTime, unit_costs(64));
  EXPECT_EQ(r.cycle_length_sum, 0u);
  EXPECT_EQ(r.deleted.size(), 1u);
}

TEST(TopoSort, Fig2LocalMinDeletesAllLeaves) {
  // The paper's adversary: local-min deletes every leaf where deleting
  // the root would have sufficed.
  const Fig2Instance inst = make_fig2_tree(5);  // 16 leaves
  const auto copies = sorted_copies(inst.script.commands());
  const CrwiGraph g = CrwiGraph::build(copies, inst.version.size());
  // Cost = copy length (leaf=16 cheapest, root=24, inner larger).
  std::vector<std::uint64_t> costs;
  for (const auto& c : copies) costs.push_back(c.length);

  const TopoSortResult r =
      topo_sort_breaking_cycles(g, BreakPolicy::kLocalMin, costs);
  EXPECT_EQ(r.deleted.size(), inst.leaf_count);
  for (const std::uint32_t v : r.deleted) {
    EXPECT_EQ(copies[v].length, inst.leaf_copy_length);
  }
  EXPECT_TRUE(is_topological_order(g, r.order, r.deleted));
}

TEST(TopoSort, PreDeletedVerticesAreExcluded) {
  const auto perm = single_cycle_permutation(4);
  const AdversaryInstance inst = make_block_permutation(4, perm);
  const CrwiGraph g = graph_from(sorted_copies(inst.script.commands()), 16);
  std::vector<bool> pre(4, false);
  pre[2] = true;  // breaks the only cycle up front
  const TopoSortResult r = topo_sort_breaking_cycles(
      g, BreakPolicy::kConstantTime, unit_costs(4), pre);
  EXPECT_EQ(r.cycles_found, 0u);
  EXPECT_TRUE(r.deleted.empty());  // pre-deleted are not re-reported
  EXPECT_EQ(r.order.size(), 3u);
  EXPECT_EQ(std::count(r.order.begin(), r.order.end(), 2u), 0);
}

TEST(TopoSort, RejectsExactPolicyAndBadSizes) {
  const CrwiGraph g = graph_from({{10, 0, 10}}, 20);
  EXPECT_THROW(topo_sort_breaking_cycles(g, BreakPolicy::kExactOptimal,
                                         unit_costs(1)),
               ValidationError);
  EXPECT_THROW(
      topo_sort_breaking_cycles(g, BreakPolicy::kConstantTime, unit_costs(2)),
      ValidationError);
  EXPECT_THROW(topo_sort_breaking_cycles(g, BreakPolicy::kConstantTime,
                                         unit_costs(1),
                                         std::vector<bool>(3, false)),
               ValidationError);
}

TEST(TopoSort, EmptyGraph) {
  const CrwiGraph g;
  const TopoSortResult r =
      topo_sort_breaking_cycles(g, BreakPolicy::kLocalMin, {});
  EXPECT_TRUE(r.order.empty());
  EXPECT_TRUE(r.deleted.empty());
}

TEST(TopoSort, IsTopologicalOrderHelperRejectsBadInputs) {
  const std::vector<CopyCommand> copies = {{10, 0, 10}, {50, 10, 10}};
  const CrwiGraph g = graph_from(copies, 60);  // edge 0 -> 1
  EXPECT_TRUE(is_topological_order(g, std::vector<std::uint32_t>{0, 1}, {}));
  // Edge violated.
  EXPECT_FALSE(is_topological_order(g, std::vector<std::uint32_t>{1, 0}, {}));
  // Missing vertex.
  EXPECT_FALSE(is_topological_order(g, std::vector<std::uint32_t>{0}, {}));
  // Duplicate vertex.
  EXPECT_FALSE(
      is_topological_order(g, std::vector<std::uint32_t>{0, 0}, {}));
  // Deleted vertex also in order.
  EXPECT_FALSE(is_topological_order(g, std::vector<std::uint32_t>{0, 1},
                                    std::vector<std::uint32_t>{1}));
}

TEST(TopoSort, StressRandomDenseGraphsAllPoliciesStayConsistent) {
  Rng rng(1234);
  for (int trial = 0; trial < 15; ++trial) {
    // Random disjoint writes tiling [0, total), reads anywhere.
    std::vector<CopyCommand> copies;
    offset_t cursor = 0;
    const length_t total = 600;
    while (cursor < total) {
      const length_t len = rng.range(1, 20);
      copies.push_back(CopyCommand{rng.below(total), cursor,
                                   std::min<length_t>(len, total - cursor)});
      cursor += copies.back().length;
    }
    const CrwiGraph g = graph_from(copies, total);
    std::vector<std::uint64_t> costs;
    for (const auto& c : copies) costs.push_back(c.length);

    for (const BreakPolicy policy :
         {BreakPolicy::kConstantTime, BreakPolicy::kLocalMin}) {
      const TopoSortResult r = topo_sort_breaking_cycles(g, policy, costs);
      ASSERT_TRUE(is_topological_order(g, r.order, r.deleted))
          << "trial " << trial << " policy " << policy_name(policy);
      EXPECT_EQ(r.order.size() + r.deleted.size(), g.vertex_count());
    }
  }
}

// Kahn's algorithm over the vertices not in `removed`: true iff they
// induce an acyclic subgraph.
bool survivors_acyclic(const CrwiGraph& g, const std::vector<bool>& removed) {
  const std::size_t n = g.vertex_count();
  std::vector<std::size_t> indegree(n, 0);
  std::size_t survivors = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    if (removed[u]) continue;
    ++survivors;
    for (const std::uint32_t v : g.successors(u)) {
      if (!removed[v]) ++indegree[v];
    }
  }
  std::vector<std::uint32_t> ready;
  for (std::uint32_t u = 0; u < n; ++u) {
    if (!removed[u] && indegree[u] == 0) ready.push_back(u);
  }
  std::size_t emitted = 0;
  while (!ready.empty()) {
    const std::uint32_t u = ready.back();
    ready.pop_back();
    ++emitted;
    for (const std::uint32_t v : g.successors(u)) {
      if (!removed[v] && --indegree[v] == 0) ready.push_back(v);
    }
  }
  return emitted == survivors;
}

TEST(TopoSort, OneCallSortsRandomOverlappingCopies) {
  // Random copies tiling the version, each reading a random range that
  // overlaps several writes: cycle-rich CRWI graphs on which interior
  // victims are common. Half the trials also pre-delete a random mask.
  Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    const length_t total = rng.range(200, 4000);
    std::vector<CopyCommand> copies;
    for (offset_t to = 0; to < total;) {
      const length_t len = std::min<length_t>(rng.range(1, 40), total - to);
      copies.push_back(CopyCommand{rng.below(total - len + 1), to, len});
      to += len;
    }
    const CrwiGraph g = graph_from(copies, total);
    const std::size_t n = g.vertex_count();
    std::vector<std::uint64_t> costs;
    for (std::size_t v = 0; v < n; ++v) costs.push_back(rng.range(1, 50));
    std::vector<bool> pre;
    if (trial % 2 == 1) {
      pre.assign(n, false);
      for (std::size_t v = 0; v < n; ++v) pre[v] = rng.below(8) == 0;
    }

    for (const BreakPolicy policy :
         {BreakPolicy::kConstantTime, BreakPolicy::kLocalMin}) {
      const TopoSortResult r = topo_sort_breaking_cycles(g, policy, costs, pre);
      std::vector<bool> removed = pre.empty() ? std::vector<bool>(n) : pre;
      for (const std::uint32_t v : r.deleted) {
        ASSERT_FALSE(removed[v]) << "deleted twice or pre-deleted";
        removed[v] = true;
      }
      std::vector<std::uint32_t> all_deleted;
      for (std::uint32_t v = 0; v < n; ++v) {
        if (removed[v]) all_deleted.push_back(v);
      }
      ASSERT_TRUE(is_topological_order(g, r.order, all_deleted))
          << "trial " << trial << " policy " << policy_name(policy);
      ASSERT_TRUE(survivors_acyclic(g, removed))
          << "trial " << trial << " policy " << policy_name(policy);
    }
  }
}

}  // namespace
}  // namespace ipd
