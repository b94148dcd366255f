#include "archive/upgrade_planner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

/// A drifting release history: consecutive releases differ a little,
/// distant ones a lot.
std::vector<Bytes> make_history(std::size_t releases, std::uint64_t seed,
                                std::size_t edits_per_release = 25) {
  Rng rng(seed);
  std::vector<Bytes> history;
  history.push_back(generate_file(rng, 40 << 10, FileProfile::kBinary));
  MutationModel model;
  model.length_scale = 48;
  for (std::size_t i = 1; i < releases; ++i) {
    history.push_back(mutate(history.back(), rng, edits_per_release, model));
  }
  return history;
}

std::vector<ByteView> views(const std::vector<Bytes>& history) {
  return std::vector<ByteView>(history.begin(), history.end());
}

TEST(UpgradePlanner, AdjacentUpgradeIsOneStep) {
  const auto history = make_history(3, 1);
  UpgradePlanner planner(views(history));
  const UpgradePlan plan = planner.plan(0, 1);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].from, 0u);
  EXPECT_EQ(plan.steps[0].to, 1u);
  EXPECT_FALSE(plan.steps[0].full_image);
  EXPECT_EQ(plan.total_bytes, plan.steps[0].bytes);
}

TEST(UpgradePlanner, ExecuteReachesTarget) {
  const auto history = make_history(6, 2);
  UpgradePlanner planner(views(history));
  for (const std::size_t from : {0ul, 2ul, 4ul}) {
    const UpgradePlan plan = planner.plan(from, 5);
    Bytes image = history[from];
    planner.execute(plan, image);
    EXPECT_TRUE(test::bytes_equal(history[5], image)) << "from " << from;
  }
}

TEST(UpgradePlanner, StepsChainContiguously) {
  const auto history = make_history(8, 3);
  UpgradePlanner planner(views(history));
  const UpgradePlan plan = planner.plan(0, 7);
  ASSERT_FALSE(plan.steps.empty());
  EXPECT_EQ(plan.steps.front().from, 0u);
  EXPECT_EQ(plan.steps.back().to, 7u);
  for (std::size_t i = 1; i < plan.steps.size(); ++i) {
    EXPECT_EQ(plan.steps[i].from, plan.steps[i - 1].to);
  }
}

TEST(UpgradePlanner, NeverWorseThanDirectDelta) {
  const auto history = make_history(7, 4, /*edits_per_release=*/60);
  PlannerOptions options;
  options.max_hop_span = 6;  // direct 0->6 is a candidate edge
  UpgradePlanner planner(views(history), options);
  const UpgradePlan plan = planner.plan(0, 6);

  const Bytes direct = Pipeline().build_inplace(history[0], history[6]).delta;
  EXPECT_LE(plan.total_bytes,
            direct.size() + 7 * options.per_hop_overhead);
}

TEST(UpgradePlanner, NeverWorseThanFullImage) {
  // Completely unrelated "releases": every delta is ~file size, so the
  // plan must fall back to the full image (single hop).
  std::vector<Bytes> history;
  for (int i = 0; i < 4; ++i) {
    history.push_back(test::random_bytes(100 + i, 30000));
  }
  UpgradePlanner planner(views(history));
  const UpgradePlan plan = planner.plan(0, 3);
  EXPECT_LE(plan.total_bytes, history[3].size() + 3 * 512);
  Bytes image = history[0];
  planner.execute(plan, image);
  EXPECT_TRUE(test::bytes_equal(history[3], image));
}

TEST(UpgradePlanner, DeltaCacheIsLazyAndShared) {
  const auto history = make_history(10, 5);
  PlannerOptions options;
  options.max_hop_span = 2;
  UpgradePlanner planner(views(history), options);
  EXPECT_EQ(planner.deltas_built(), 0u);
  planner.plan(0, 3);
  const std::size_t after_first = planner.deltas_built();
  EXPECT_GT(after_first, 0u);
  // Bounded by the span-limited edge set, far below all O(n^2) pairs.
  EXPECT_LE(after_first, 2u * 4u);
  planner.plan(0, 3);  // fully cached
  EXPECT_EQ(planner.deltas_built(), after_first);
}

TEST(UpgradePlanner, HopSpanLimitsEdges) {
  const auto history = make_history(6, 6);
  PlannerOptions options;
  options.max_hop_span = 1;
  UpgradePlanner planner(views(history), options);
  const UpgradePlan plan = planner.plan(0, 5);
  // Either 5 adjacent hops or a full-image shortcut; never a span-2 delta.
  for (const UpgradeStep& step : plan.steps) {
    EXPECT_TRUE(step.full_image || step.to - step.from == 1);
  }
  Bytes image = history[0];
  planner.execute(plan, image);
  EXPECT_TRUE(test::bytes_equal(history[5], image));
}

TEST(UpgradePlanner, StepArtifactsApplyIndividually) {
  const auto history = make_history(4, 7);
  UpgradePlanner planner(views(history));
  const UpgradePlan plan = planner.plan(1, 3);
  Bytes image = history[1];
  for (const UpgradeStep& step : plan.steps) {
    const Bytes artifact = planner.step_artifact(step);
    if (step.full_image) {
      image = artifact;
    } else {
      image.resize(std::max(image.size(), history[step.to].size()));
      const length_t n = apply_delta_inplace(artifact, image);
      image.resize(static_cast<std::size_t>(n));
    }
  }
  EXPECT_TRUE(test::bytes_equal(history[3], image));
}

TEST(UpgradePlanner, FoldPlanMintsOneDirectDelta) {
  const auto history = make_history(6, 10);
  PlannerOptions options;
  options.max_hop_span = 1;  // force a genuine multi-hop chain
  UpgradePlanner planner(views(history), options);
  const UpgradePlan plan = planner.plan(0, 5);

  const Bytes folded = planner.fold_plan(plan);
  if (plan.steps.size() > 1 && !plan.steps.back().full_image) {
    // A real fold: one in-place delta straight from v0 to v5.
    const DeltaHeader parsed = parse_delta(folded).header;
    EXPECT_TRUE(parsed.in_place);
    EXPECT_EQ(parsed.reference_length, history[0].size());
    EXPECT_EQ(parsed.version_length, history[5].size());
    Bytes image = history[0];
    image.resize(std::max(history[0].size(), history[5].size()));
    const length_t n = apply_delta_inplace(folded, image);
    EXPECT_TRUE(
        test::bytes_equal(history[5], ByteView(image).first(n)));
  }
}

TEST(UpgradePlanner, FoldPlanSingleHopReturnsThatDelta) {
  const auto history = make_history(3, 11);
  UpgradePlanner planner(views(history));
  const UpgradePlan plan = planner.plan(1, 2);
  ASSERT_EQ(plan.steps.size(), 1u);
  const Bytes folded = planner.fold_plan(plan);
  EXPECT_EQ(folded, planner.step_artifact(plan.steps[0]));
}

TEST(UpgradePlanner, FoldPlanRejectsEmptyPlan) {
  const auto history = make_history(2, 12);
  UpgradePlanner planner(views(history));
  EXPECT_THROW(planner.fold_plan(UpgradePlan{}), ValidationError);
}

TEST(UpgradePlanner, RejectsBadArguments) {
  const auto history = make_history(3, 8);
  UpgradePlanner planner(views(history));
  EXPECT_THROW(planner.plan(1, 1), ValidationError);
  EXPECT_THROW(planner.plan(2, 1), ValidationError);
  EXPECT_THROW(planner.plan(0, 3), ValidationError);
  PlannerOptions bad;
  bad.max_hop_span = 0;
  EXPECT_THROW(UpgradePlanner(views(history), bad), ValidationError);
}

TEST(UpgradePlanner, PicksChainWhenDirectDeltaIsBloated) {
  // Drift hard: after 6 heavy releases the direct delta is much larger
  // than the sum of adjacent deltas... verify the planner notices
  // whichever is cheaper and executes correctly either way.
  const auto history = make_history(7, 9, /*edits_per_release=*/120);
  PlannerOptions options;
  options.max_hop_span = 6;
  UpgradePlanner planner(views(history), options);
  const UpgradePlan plan = planner.plan(0, 6);

  std::uint64_t adjacent_total = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    adjacent_total +=
        Pipeline().build_inplace(history[i], history[i + 1]).delta.size() +
        options.per_hop_overhead;
  }
  EXPECT_LE(plan.total_bytes, adjacent_total);

  Bytes image = history[0];
  planner.execute(plan, image);
  EXPECT_TRUE(test::bytes_equal(history[6], image));
}

TEST(UpgradePlanner, ConcurrentPlansAreSafeAndBuildEachEdgeOnce) {
  // Regression test for the planner's lazy edge cache: the delta
  // distribution service shares one planner across request threads, so
  // concurrent plan() + execute() must neither race on the cache map nor
  // build an edge twice.
  const auto history = make_history(8, 13);
  UpgradePlanner serial(views(history));
  const UpgradePlan expected = serial.plan(0, 7);
  const std::size_t serial_builds = serial.deltas_built();

  UpgradePlanner planner(views(history));
  constexpr int kThreads = 8;
  std::vector<UpgradePlan> plans(kThreads);
  std::atomic<int> bad_executions{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      plans[t] = planner.plan(0, 7);
      Bytes image = history[0];
      planner.execute(plans[t], image);
      if (image != history[7]) ++bad_executions;
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(bad_executions.load(), 0);
  for (const UpgradePlan& plan : plans) {
    ASSERT_EQ(plan.steps.size(), expected.steps.size());
    EXPECT_EQ(plan.total_bytes, expected.total_bytes);
  }
  // The shared lazy cache built exactly the serial planner's edge set —
  // once — despite eight threads racing to fill it.
  EXPECT_EQ(planner.deltas_built(), serial_builds);
}

}  // namespace
}  // namespace ipd
