// Multi-threaded stress tests for the delta distribution service —
// many client threads, few distinct (from, to) pairs, so every
// concurrency guard (sharded cache, singleflight, worker pool, planner
// mutex) gets hammered on purpose. Labeled `stress` in CTest; run under
// IPDELTA_SANITIZE=thread to race-test (see README).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "server/delta_service.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

// Small bodies keep each build cheap: the point is contention volume,
// not differencer throughput (TSan slows everything ~10x).
std::vector<Bytes> make_history(std::size_t releases, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> history;
  history.push_back(generate_file(rng, 8 << 10, FileProfile::kBinary));
  MutationModel model;
  model.length_scale = 32;
  for (std::size_t i = 1; i < releases; ++i) {
    history.push_back(mutate(history.back(), rng, 15, model));
  }
  return history;
}

void publish_all(VersionStore& store, const std::vector<Bytes>& history) {
  for (const Bytes& body : history) store.publish(body);
}

TEST(ServerStress, FewPairsManyThreadsBuildExactlyOnce) {
  const auto history = make_history(5, 101);
  VersionStore store;
  publish_all(store, history);
  ServiceOptions options;
  options.cache_budget = 32 << 20;  // ample: nothing evicts
  options.workers = 4;
  DeltaService service(store, options);

  // 16 threads hammer 4 distinct adjacent pairs, 64 serves each.
  constexpr std::size_t kThreads = 16;
  constexpr std::size_t kServesPerThread = 64;
  const std::vector<std::pair<ReleaseId, ReleaseId>> pairs = {
      {0, 1}, {1, 2}, {2, 3}, {3, 4}};

  // Reference artifacts, built independently of the service.
  std::vector<Bytes> expected;
  for (const auto& [from, to] : pairs) {
    expected.push_back(
        Pipeline(options.pipeline).build_inplace(history[from], history[to]).delta);
  }

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kServesPerThread; ++i) {
        const std::size_t p = (t + i) % pairs.size();
        const ServeResult result =
            service.serve(pairs[p].first, pairs[p].second);
        if (result.steps.size() != 1 || result.steps[0].full_image ||
            result.steps[0].bytes == nullptr ||
            *result.steps[0].bytes != expected[p]) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Bit-identical with a direct Pipeline::build_inplace on every serve.
  EXPECT_EQ(mismatches.load(), 0u);

  const ServiceMetrics& m = service.metrics();
  EXPECT_EQ(m.requests.load(), kThreads * kServesPerThread);
  // Exactly-once builds: one per distinct pair, no matter the contention
  // (singleflight + double-check; the budget guarantees no eviction).
  EXPECT_EQ(m.builds.load(), pairs.size());
  EXPECT_EQ(m.evictions.load(), 0u);
  // Every request resolves exactly one way: a cache hit (first lookup or
  // the leader's double-check), a coalesced wait, or a build.
  EXPECT_EQ(m.cache_hits.load() + m.coalesced_waits.load() + m.builds.load(),
            m.requests.load());
}

TEST(ServerStress, ByteBudgetHoldsUnderConcurrentEviction) {
  const auto history = make_history(8, 202);
  VersionStore store;
  publish_all(store, history);
  ServiceOptions options;
  // A budget sized to hold only a few artifacts forces constant eviction
  // while 8 threads cycle through every (from, to) pair.
  options.cache_budget = 8 << 10;
  options.cache_shards = 4;
  options.workers = 2;
  DeltaService service(store, options);

  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<std::size_t> failures{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (std::size_t i = 0; i < 24; ++i) {
        const ReleaseId from =
            static_cast<ReleaseId>(rng.below(history.size() - 1));
        const ReleaseId to =
            from + 1 +
            static_cast<ReleaseId>(rng.below(history.size() - 1 - from));
        const ServeResult result = service.serve(from, to);
        const Bytes reconstructed = apply_served(result, history[from]);
        if (!(reconstructed == history[to])) ++failures;
        // The budget is a hard cap at every instant we can observe.
        if (service.cache().stats().bytes_held > options.cache_budget) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0u);
  const DeltaCache::Stats stats = service.cache().stats();
  EXPECT_LE(stats.bytes_held, options.cache_budget);
  // The tiny budget genuinely churned (else this test proves nothing).
  const ServiceMetrics& m = service.metrics();
  EXPECT_GT(m.evictions.load() + m.rejected_inserts.load(), 0u);
}

TEST(ServerStress, MixedPairsReconstructBitIdenticalUnderLoad) {
  const auto history = make_history(6, 303);
  VersionStore store;
  publish_all(store, history);
  ServiceOptions options;
  options.workers = 4;
  DeltaService service(store, options);

  constexpr std::size_t kThreads = 12;
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(7000 + t);
      for (std::size_t i = 0; i < 20; ++i) {
        const ReleaseId from =
            static_cast<ReleaseId>(rng.below(history.size() - 1));
        const ReleaseId to =
            from + 1 +
            static_cast<ReleaseId>(rng.below(history.size() - 1 - from));
        const ServeResult result = service.serve(from, to);
        if (!(apply_served(result, history[from]) == history[to])) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(service.metrics().requests.load(), kThreads * 20);
}

}  // namespace
}  // namespace ipd
