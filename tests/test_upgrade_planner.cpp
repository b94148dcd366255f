// Upgrade routes across a release history, as DeltaService::serve picks
// them with cheapest_route(): a served route is never worse than the
// direct delta or the image, it chains the per-release hops when the
// direct delta is bloated, its steps are contiguous and each applies on
// its own, and concurrent requests build each edge once.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "server/delta_service.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

using test::interleaved_history;
using test::kLongMatch;

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

void publish_all(VersionStore& store, const std::vector<Bytes>& history) {
  for (const Bytes& body : history) store.publish(body);
}

/// Options under which interleaved_history() serves a chain.
ServiceOptions chain_options() {
  ServiceOptions options;
  options.direct_gain_threshold = 0.1;
  options.pipeline.differ_options.min_match = kLongMatch;
  return options;
}

/// What the response costs under cheapest_route()'s pricing.
std::uint64_t route_cost(const ServeResult& result) {
  return result.total_bytes + result.steps.size() * kPerHopOverhead;
}

TEST(Route, AdjacentUpgradeIsOneDeltaStep) {
  const auto history = make_history(3, 1);
  VersionStore store;
  publish_all(store, history);
  DeltaService service(store);
  const ServeResult result = service.serve(0, 1);
  ASSERT_EQ(result.steps.size(), 1u);
  EXPECT_EQ(result.steps[0].from, 0u);
  EXPECT_EQ(result.steps[0].to, 1u);
  EXPECT_FALSE(result.steps[0].full_image);
  EXPECT_EQ(result.total_bytes, result.steps[0].bytes->size());
}

TEST(Route, ServedResponseReachesTarget) {
  const auto history = make_history(6, 2);
  VersionStore store;
  publish_all(store, history);
  DeltaService service(store);
  for (const ReleaseId from : {0u, 2u, 4u}) {
    const ServeResult result = service.serve(from, 5);
    EXPECT_TRUE(
        test::bytes_equal(history[5], apply_served(result, history[from])))
        << "from " << from;
  }
}

TEST(Route, NeverWorseThanDirectDeltaOrImage) {
  struct Case {
    std::vector<Bytes> history;
    ServiceOptions options;
  };
  std::vector<Case> cases;
  cases.push_back({make_history(7, 4, /*edits_per_release=*/60), {}});
  cases.push_back({make_history(7, 4, /*edits_per_release=*/60),
                   ServiceOptions{.direct_gain_threshold = 0.1}});
  cases.push_back({interleaved_history(7, 5), chain_options()});
  // Unrelated releases: every delta is about the file size.
  std::vector<Bytes> unrelated;
  for (int i = 0; i < 4; ++i) {
    unrelated.push_back(test::random_bytes(100 + i, 30000));
  }
  cases.push_back({std::move(unrelated), {}});

  for (const Case& c : cases) {
    VersionStore store;
    publish_all(store, c.history);
    DeltaService service(store, c.options);
    const Pipeline pipeline(c.options.pipeline);
    const ReleaseId last = c.history.size() - 1;
    for (ReleaseId from = 0; from < last; ++from) {
      const ServeResult result = service.serve(from, last);
      const std::uint64_t direct =
          pipeline.build_inplace(c.history[from], c.history[last])
              .delta.size();
      EXPECT_LE(route_cost(result), direct + kPerHopOverhead)
          << "from " << from;
      EXPECT_LE(route_cost(result), c.history[last].size() + kPerHopOverhead)
          << "from " << from;
      EXPECT_TRUE(test::bytes_equal(c.history[last],
                                    apply_served(result, c.history[from])));
    }
  }
}

TEST(Route, PicksChainWhenDirectDeltaIsBloated) {
  const auto history = interleaved_history(7, 9);
  VersionStore store;
  publish_all(store, history);
  const ServiceOptions options = chain_options();
  DeltaService service(store, options);
  const ServeResult result = service.serve(0, 6);

  EXPECT_EQ(service.metrics().chains_served.load(), 1u);
  const Bytes direct =
      Pipeline(options.pipeline).build_inplace(history[0], history[6]).delta;
  EXPECT_LT(route_cost(result), direct.size() + kPerHopOverhead);

  // Contiguous single hops from 0 to 6, each applying on its own.
  ASSERT_EQ(result.steps.size(), 6u);
  Bytes image = history[0];
  for (std::size_t i = 0; i < result.steps.size(); ++i) {
    const ServedStep& step = result.steps[i];
    EXPECT_EQ(step.from, i);
    EXPECT_EQ(step.to, i + 1);
    ASSERT_FALSE(step.full_image);
    image.resize(std::max(image.size(), history[step.to].size()));
    const length_t n = apply_delta_inplace(*step.bytes, image);
    image.resize(static_cast<std::size_t>(n));
    EXPECT_TRUE(test::bytes_equal(history[step.to], image)) << "hop " << i;
  }
}

TEST(Route, ConcurrentServesAreSafeAndBuildEachEdgeOnce) {
  // Eight threads request one chain-routed upgrade at once: singleflight
  // and the DeltaCache must hand every thread the serial service's route
  // while building each edge exactly once.
  const auto history = interleaved_history(8, 13);
  VersionStore store;
  publish_all(store, history);
  const ServiceOptions options = chain_options();
  DeltaService serial(store, options);
  const ServeResult expected = serial.serve(0, 7);
  ASSERT_GT(expected.steps.size(), 1u);
  const std::uint64_t serial_builds = serial.metrics().builds.load();

  DeltaService service(store, options);
  constexpr int kThreads = 8;
  std::vector<ServeResult> results(kThreads);
  std::atomic<int> bad_applies{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t] = service.serve(0, 7);
      if (apply_served(results[t], history[0]) != history[7]) ++bad_applies;
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(bad_applies.load(), 0);
  for (const ServeResult& result : results) {
    ASSERT_EQ(result.steps.size(), expected.steps.size());
    for (std::size_t i = 0; i < result.steps.size(); ++i) {
      EXPECT_TRUE(test::bytes_equal(*expected.steps[i].bytes,
                                    *result.steps[i].bytes));
    }
  }
  EXPECT_EQ(service.metrics().builds.load(), serial_builds);
}

}  // namespace
}  // namespace ipd
