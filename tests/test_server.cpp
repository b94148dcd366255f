// Unit tests for the delta distribution service components: version
// store, sharded LRU cache, singleflight, thread pool, metrics, and the
// single-threaded behaviour of DeltaService itself. The multi-threaded
// hammering lives in test_server_stress.cpp (ctest label: stress).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "server/delta_service.hpp"
#include "server/fingerprint.hpp"
#include "store/store_backed_version_store.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

std::vector<Bytes> make_history(std::size_t releases, std::uint64_t seed,
                                std::size_t edits_per_release = 25,
                                length_t size = 24 << 10) {
  Rng rng(seed);
  std::vector<Bytes> history;
  history.push_back(generate_file(rng, size, FileProfile::kBinary));
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

std::shared_ptr<const Bytes> bytes_of(std::string_view s) {
  return std::make_shared<const Bytes>(to_bytes(s));
}

// ---------------------------------------------------------------- store

TEST(VersionStore, PublishAssignsSequentialIds) {
  VersionStore store;
  EXPECT_EQ(store.publish(to_bytes("v0")), 0u);
  EXPECT_EQ(store.publish(to_bytes("v1")), 1u);
  EXPECT_EQ(store.release_count(), 2u);
  EXPECT_EQ(store.latest(), 1u);
  EXPECT_EQ(to_string(*store.body(0)), "v0");
  EXPECT_EQ(to_string(*store.body(1)), "v1");
}

TEST(VersionStore, ContentAddressingFindsLatestMatch) {
  VersionStore store;
  store.publish(to_bytes("alpha"));
  store.publish(to_bytes("beta"));
  store.publish(to_bytes("alpha"));  // re-released content
  const ContentKey key = store.content_key(0);
  EXPECT_EQ(store.content_key(2), key);
  const auto found = store.find(key);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 2u);  // newest release with that content wins
  EXPECT_FALSE(store.find(ContentKey{0xDEAD, 99}).has_value());
}

TEST(VersionStore, BadIdThrows) {
  VersionStore store;
  EXPECT_THROW(store.body(0), ValidationError);
  EXPECT_THROW(store.content_key(0), ValidationError);
  EXPECT_THROW(store.latest(), ValidationError);
}

TEST(VersionStore, BodiesSurviveConcurrentPublishes) {
  VersionStore store;
  const ReleaseId id = store.publish(test::random_bytes(1, 4096));
  const auto body = store.body(id);
  std::thread publisher([&store] {
    for (int i = 0; i < 64; ++i) store.publish(test::random_bytes(i, 512));
  });
  // The previously obtained body stays valid and unchanged throughout.
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(body->size(), 4096u);
    EXPECT_TRUE(test::bytes_equal(*store.body(id), *body));
  }
  publisher.join();
  EXPECT_EQ(store.release_count(), 65u);
}

// ---------------------------------------------------------------- cache

TEST(DeltaCache, GetMissThenHit) {
  ServiceMetrics metrics;
  DeltaCache cache(1 << 20, 4, &metrics);
  const DeltaKey key{0, 1, 42};
  EXPECT_EQ(cache.get(key), nullptr);
  EXPECT_TRUE(cache.put(key, bytes_of("delta")));
  const auto hit = cache.get(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(to_string(*hit), "delta");
  EXPECT_EQ(metrics.cache_misses.load(), 1u);
  EXPECT_EQ(metrics.cache_hits.load(), 1u);
}

TEST(DeltaCache, DistinctFingerprintsAreDistinctEntries) {
  DeltaCache cache(1 << 20, 1);
  cache.put(DeltaKey{0, 1, 1}, bytes_of("pipeline-a"));
  cache.put(DeltaKey{0, 1, 2}, bytes_of("pipeline-b"));
  EXPECT_EQ(to_string(*cache.get(DeltaKey{0, 1, 1})), "pipeline-a");
  EXPECT_EQ(to_string(*cache.get(DeltaKey{0, 1, 2})), "pipeline-b");
}

TEST(DeltaCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  ServiceMetrics metrics;
  // Single shard, 100-byte budget, 40-byte entries: holds two.
  DeltaCache cache(100, 1, &metrics);
  const auto forty = std::make_shared<const Bytes>(Bytes(40, 0xAB));
  cache.put(DeltaKey{0, 1, 0}, forty);
  cache.put(DeltaKey{1, 2, 0}, forty);
  EXPECT_NE(cache.get(DeltaKey{0, 1, 0}), nullptr);  // touch: 0->1 is MRU
  cache.put(DeltaKey{2, 3, 0}, forty);               // evicts 1->2
  EXPECT_NE(cache.get(DeltaKey{0, 1, 0}), nullptr);
  EXPECT_EQ(cache.get(DeltaKey{1, 2, 0}), nullptr);
  EXPECT_NE(cache.get(DeltaKey{2, 3, 0}), nullptr);
  EXPECT_EQ(metrics.evictions.load(), 1u);
  const DeltaCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes_held, 100u);
}

TEST(DeltaCache, RefusesEntriesLargerThanAShard) {
  ServiceMetrics metrics;
  DeltaCache cache(64, 1, &metrics);
  const DeltaKey small{0, 1, 0};
  cache.put(small, bytes_of("tiny"));
  const auto huge = std::make_shared<const Bytes>(Bytes(1000, 0xCD));
  EXPECT_FALSE(cache.put(DeltaKey{1, 2, 0}, huge));
  // The oversized insert neither cached itself nor disturbed residents.
  EXPECT_EQ(cache.get(DeltaKey{1, 2, 0}), nullptr);
  EXPECT_NE(cache.get(small), nullptr);
  EXPECT_EQ(metrics.rejected_inserts.load(), 1u);
}

TEST(DeltaCache, RefreshReplacesValueAndAccounting) {
  DeltaCache cache(1 << 10, 1);
  const DeltaKey key{3, 4, 0};
  cache.put(key, bytes_of("first"));
  cache.put(key, bytes_of("second-longer"));
  EXPECT_EQ(to_string(*cache.get(key)), "second-longer");
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes_held, 13u);
}

TEST(DeltaCache, EvictionDoesNotInvalidateHandedOutValues) {
  DeltaCache cache(50, 1);
  const auto forty = std::make_shared<const Bytes>(Bytes(40, 0xEF));
  cache.put(DeltaKey{0, 1, 0}, forty);
  const auto held = cache.get(DeltaKey{0, 1, 0});
  cache.put(DeltaKey{1, 2, 0}, forty);  // evicts 0->1
  EXPECT_EQ(cache.get(DeltaKey{0, 1, 0}), nullptr);
  ASSERT_NE(held, nullptr);  // our reference is untouched
  EXPECT_EQ(held->size(), 40u);
  EXPECT_EQ((*held)[0], 0xEF);
}

TEST(DeltaCache, ZeroBudgetRejected) {
  EXPECT_THROW(DeltaCache(0, 4), ValidationError);
}

// ---------------------------------------------------------- singleflight

TEST(Singleflight, LeaderRunsOnceFollowersShareResult) {
  Singleflight<int, int> flight;
  std::atomic<int> builds{0};
  std::atomic<int> followers{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      bool leader = false;
      const int value = flight.run(
          7,
          [&] {
            ++builds;
            // Hold the flight open long enough for everyone to join.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return 123;
          },
          &leader);
      EXPECT_EQ(value, 123);
      if (!leader) ++followers;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(followers.load(), kThreads - 1);
  EXPECT_EQ(flight.inflight(), 0u);
}

TEST(Singleflight, DistinctKeysDoNotCoalesce) {
  Singleflight<int, int> flight;
  EXPECT_EQ(flight.run(1, [] { return 10; }), 10);
  EXPECT_EQ(flight.run(2, [] { return 20; }), 20);
}

TEST(Singleflight, LeaderExceptionReachesFollowersAndClearsFlight) {
  Singleflight<int, int> flight;
  std::atomic<int> throws{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      try {
        flight.run(9, [&]() -> int {
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          throw Error("build failed");
        });
      } catch (const Error&) {
        ++throws;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(throws.load(), 4);
  // The failed flight is gone; the key is retryable.
  EXPECT_EQ(flight.run(9, [] { return 5; }), 5);
}

// ----------------------------------------------------------- thread pool

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool pool(1);
  auto future = pool.submit([]() -> int { throw Error("boom"); });
  EXPECT_THROW(future.get(), Error);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++ran;
      });
    }
  }  // destructor must finish all 16, not abandon the queue
  EXPECT_EQ(ran.load(), 16);
}

// ----------------------------------------------------------- fingerprint

TEST(Fingerprint, SensitiveToEveryPipelineKnob) {
  const PipelineOptions base;
  const std::uint64_t h = fingerprint_pipeline(base);
  EXPECT_EQ(h, fingerprint_pipeline(base));  // deterministic

  PipelineOptions differ = base;
  differ.differ = DifferKind::kGreedy;
  PipelineOptions seed = base;
  seed.differ_options.seed_length = 8;
  PipelineOptions policy = base;
  policy.convert.policy = BreakPolicy::kConstantTime;
  PipelineOptions codeword = base;
  codeword.format.codeword = Codeword::kVarint;
  PipelineOptions compress = base;
  compress.compress_payload = true;
  for (const PipelineOptions& variant :
       {differ, seed, policy, codeword, compress}) {
    EXPECT_NE(fingerprint_pipeline(variant), h);
  }
}

// --------------------------------------------------------------- service

TEST(DeltaService, ServesCorrectDeltaAndCountsMissThenHit) {
  const auto history = make_history(3, 11);
  VersionStore store;
  publish_all(store, history);
  DeltaService service(store, {});

  const ServeResult first = service.serve(0, 2);
  EXPECT_FALSE(first.cache_hit);
  ASSERT_EQ(first.steps.size(), 1u);
  EXPECT_FALSE(first.steps[0].full_image);
  EXPECT_TRUE(test::bytes_equal(history[2], apply_served(first, history[0])));

  const ServeResult second = service.serve(0, 2);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(test::bytes_equal(*first.steps[0].bytes,
                                *second.steps[0].bytes));

  const ServiceMetrics& m = service.metrics();
  EXPECT_EQ(m.requests.load(), 2u);
  EXPECT_EQ(m.builds.load(), 1u);
  EXPECT_GE(m.cache_hits.load(), 1u);
  EXPECT_EQ(m.bytes_served.load(), first.total_bytes + second.total_bytes);
}

TEST(DeltaService, ServedDeltaIsBitIdenticalToDirectBuild) {
  const auto history = make_history(2, 21);
  VersionStore store;
  publish_all(store, history);
  ServiceOptions options;
  options.pipeline.differ = DifferKind::kGreedy;
  DeltaService service(store, options);

  const ServeResult served = service.serve(0, 1);
  const Bytes direct =
      Pipeline(options.pipeline).build_inplace(history[0], history[1]).delta;
  ASSERT_EQ(served.steps.size(), 1u);
  EXPECT_TRUE(test::bytes_equal(direct, *served.steps[0].bytes));
}

TEST(DeltaService, UnrelatedReleasesFallBackToFullImage) {
  // Independent random bodies: every delta is ~file size, so no delta
  // route can beat shipping the image.
  VersionStore store;
  store.publish(test::random_bytes(1, 20000));
  store.publish(test::random_bytes(2, 20000));
  DeltaService service(store, {});
  const ServeResult result = service.serve(0, 1);
  ASSERT_EQ(result.steps.size(), 1u);
  EXPECT_TRUE(result.steps[0].full_image);
  EXPECT_TRUE(test::bytes_equal(*store.body(1), *result.steps[0].bytes));
  EXPECT_EQ(service.metrics().full_images_served.load(), 1u);
}

TEST(DeltaService, DriftedHistoryServesChainOfHops) {
  // Heavy per-release churn makes the direct 0->6 delta bloated while
  // adjacent hops stay small — the planner-style fallback should pick
  // either the chain or the image, and the result must still apply.
  const auto history = make_history(7, 31, /*edits_per_release=*/150);
  VersionStore store;
  publish_all(store, history);
  ServiceOptions options;
  options.direct_gain_threshold = 0.1;  // force the fallback evaluation
  DeltaService service(store, options);

  const ServeResult result = service.serve(0, 6);
  EXPECT_TRUE(test::bytes_equal(history[6], apply_served(result, history[0])));
  if (result.steps.size() > 1) {
    // A real chain: steps are contiguous single hops.
    EXPECT_EQ(service.metrics().chains_served.load(), 1u);
    EXPECT_EQ(result.steps.front().from, 0u);
    EXPECT_EQ(result.steps.back().to, 6u);
    for (std::size_t i = 0; i < result.steps.size(); ++i) {
      EXPECT_EQ(result.steps[i].to, result.steps[i].from + 1);
    }
  }
}

TEST(DeltaService, RejectsBadRequests) {
  const auto history = make_history(2, 41);
  VersionStore store;
  publish_all(store, history);
  DeltaService service(store, {});
  EXPECT_THROW(service.serve(0, 0), ValidationError);
  EXPECT_THROW(service.serve(1, 0), ValidationError);
  EXPECT_THROW(service.serve(0, 2), ValidationError);
}

TEST(DeltaService, SnapshotNamesEveryCounterExactlyOnce) {
  const auto history = make_history(2, 51);
  // stats_text() renders each set through the same visit() these checks
  // walk, generated from the X-lists that declare the members, so they
  // cover any metric added later for free. Exactly once each: a series
  // that vanishes or gets duplicated breaks dashboards scraping this
  // text.
  const auto expect_each_once = [](const std::string& text,
                                   const std::string& prefix,
                                   const auto& set) {
    set.visit([&](const char* name, const auto& metric) {
      EXPECT_TRUE(
          test::exposes_once(text, prefix + name, obs::metric_type(metric)));
    });
  };
  {
    VersionStore store;
    publish_all(store, history);
    DeltaService service(store, {});
    service.serve(0, 1);
    const std::string text = service.stats_text();
    expect_each_once(text, "ipdelta_", service.metrics());
    expect_each_once(text, "ipdelta_", service.histograms());
    EXPECT_EQ(test::count_occurrences(text, "ipdelta_store_"), 0u);
  }
  // On a store-backed service the same exposition also carries the
  // ArtifactStore's set under ipdelta_store_: verify_rejects and
  // artifact_bytes then exist under both prefixes, each with its own
  // TYPE line.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ipd_stats_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ArtifactStore::init(dir);
  {
    auto artifacts = std::make_shared<ArtifactStore>(dir);
    StoreBackedVersionStore store(artifacts);
    publish_all(store, history);
    DeltaService service(store, {});
    service.serve(0, 1);
    const std::string text = service.stats_text();
    expect_each_once(text, "ipdelta_", service.metrics());
    expect_each_once(text, "ipdelta_", service.histograms());
    expect_each_once(text, "ipdelta_store_", artifacts->metrics());
    EXPECT_TRUE(test::exposes_once(text, "ipdelta_verify_rejects", "counter"));
    EXPECT_TRUE(
        test::exposes_once(text, "ipdelta_store_verify_rejects", "counter"));
  }
  std::filesystem::remove_all(dir);
}

TEST(DeltaService, ApplyServedRejectsEmptyResult) {
  EXPECT_THROW(apply_served(ServeResult{}, Bytes{}), ValidationError);
}

// ------------------------------------------------------------ route pins
//
// Fixed seeded histories that reach every branch of serve()'s route
// choice. Each pin names the route's step kinds, endpoints and the FNV-1a
// of every artifact, then the route counters, so a change to how routes
// are priced shows up here before any wire or store test.

using test::interleaved_history;
using test::kLongMatch;

/// "from->to delta|image <fnv1a>; " per step, then the route counters
/// and the build count.
std::string route_pin(const DeltaService& service, const ServeResult& r) {
  std::string out;
  char line[96];
  for (const ServedStep& step : r.steps) {
    std::snprintf(line, sizeof line, "%llu->%llu %s %016llx; ",
                  static_cast<unsigned long long>(step.from),
                  static_cast<unsigned long long>(step.to),
                  step.full_image ? "image" : "delta",
                  static_cast<unsigned long long>(test::fnv1a(*step.bytes)));
    out += line;
  }
  const ServiceMetrics& m = service.metrics();
  std::snprintf(line, sizeof line,
                "deltas %llu chains %llu images %llu builds %llu",
                static_cast<unsigned long long>(m.deltas_served.load()),
                static_cast<unsigned long long>(m.chains_served.load()),
                static_cast<unsigned long long>(m.full_images_served.load()),
                static_cast<unsigned long long>(m.builds.load()));
  return out + line;
}

/// Serve one request on a fresh service over `history`, check that the
/// response lands on the target body, and return its pin.
std::string serve_pin(const std::vector<Bytes>& history, ReleaseId from,
                      ReleaseId to, const ServiceOptions& options = {}) {
  VersionStore store;
  publish_all(store, history);
  DeltaService service(store, options);
  const ServeResult result = service.serve(from, to);
  EXPECT_TRUE(
      test::bytes_equal(history[to], apply_served(result, history[from])));
  return route_pin(service, result);
}

TEST(RoutePin, DirectDeltaWins) {
  const auto history = make_history(3, 11);
  EXPECT_EQ(serve_pin(history, 0, 2), "0->2 delta 871b44df7452baf3; "
            "deltas 1 chains 0 images 0 builds 1");
  EXPECT_EQ(serve_pin(history, 1, 2), "1->2 delta 8b21354f36edace4; "
            "deltas 1 chains 0 images 0 builds 1");
}

TEST(RoutePin, DriftedHistoryChainWins) {
  const auto history = interleaved_history(7, 61);
  ServiceOptions options;
  options.direct_gain_threshold = 0.1;
  options.pipeline.differ_options.min_match = kLongMatch;
  EXPECT_EQ(serve_pin(history, 0, 6, options), "0->1 delta c84d6414ad0865a0; "
            "1->2 delta e9a988c3a64b89fe; "
            "2->3 delta 137a8f50e2f3381b; "
            "3->4 delta d8049f5a692d1b2a; "
            "4->5 delta b7a2251dd6f83391; "
            "5->6 delta 51b8e245c4dc3faf; "
            "deltas 0 chains 1 images 0 builds 7");
}

TEST(RoutePin, PricedChainLosesToDirect) {
  // The existing drifted-history input: the chain is priced (the direct
  // delta is above 10% of the image) but the direct delta is cheapest.
  const auto history = make_history(7, 31, /*edits_per_release=*/150);
  ServiceOptions options;
  options.direct_gain_threshold = 0.1;
  EXPECT_EQ(serve_pin(history, 0, 6, options), "0->6 delta 08a03507cdd906c0; "
            "deltas 1 chains 0 images 0 builds 7");
}

TEST(RoutePin, DriftedHistoryImageWins) {
  // Heavy churn: the direct delta is a little larger than the image and
  // the chain is more than twice it.
  const auto history = make_history(7, 31, /*edits_per_release=*/300);
  EXPECT_EQ(serve_pin(history, 0, 6), "0->6 image 39d85ceec768ea97; "
            "deltas 0 chains 0 images 1 builds 7");
}

TEST(RoutePin, SingleHopUnrelatedBodiesShipTheImage) {
  const std::vector<Bytes> history{test::random_bytes(71, 20000),
                                   test::random_bytes(72, 20000)};
  EXPECT_EQ(serve_pin(history, 0, 1), "0->1 image dc38f6d2de7a5022; "
            "deltas 0 chains 0 images 1 builds 1");
}

TEST(RoutePin, RequestLongerThanTheChainLimitIsNotChained) {
  // Nine hops: past the chain limit, so only the direct delta and the
  // image are priced, and the image ships although the chain would be
  // cheaper. Eight hops of the same history fit the limit and chain.
  const auto history = interleaved_history(10, 62);
  ServiceOptions options;
  options.direct_gain_threshold = 0.1;
  options.pipeline.differ_options.min_match = kLongMatch;
  EXPECT_EQ(serve_pin(history, 0, 9, options), "0->9 image afdbcb494de9e151; "
            "deltas 0 chains 0 images 1 builds 1");
  EXPECT_EQ(serve_pin(history, 0, 8, options), "0->1 delta 302571900d531d4c; "
            "1->2 delta 9dff33aca4b18071; "
            "2->3 delta 80aceeeff1775255; "
            "3->4 delta 25cf08669bce9907; "
            "4->5 delta a73cad587086834e; "
            "5->6 delta ea00b159162cb286; "
            "6->7 delta cdcf87d413accaad; "
            "7->8 delta 2dd0dc7295660b65; "
            "deltas 0 chains 1 images 0 builds 9");
}

TEST(CheapestRoute, TiesGoToTheChainThenTheImageThenTheDirectDelta) {
  // Two 100-byte hops cost 2 * (100 + overhead); a direct delta or image
  // of `tie` bytes costs exactly the same.
  const std::vector<std::uint64_t> hops{100, 100};
  const std::uint64_t tie = 200 + kPerHopOverhead;
  EXPECT_EQ(cheapest_route(tie, hops, tie), RouteKind::kChain);
  EXPECT_EQ(cheapest_route(tie - 1, hops, tie), RouteKind::kDirect);
  EXPECT_EQ(cheapest_route(tie, hops, tie - 1), RouteKind::kImage);
  EXPECT_EQ(cheapest_route(tie - 1, hops, tie - 1), RouteKind::kImage);
  // With the chain unpriced, a delta as large as the image ships as the
  // image; one byte smaller, it ships as the delta.
  EXPECT_EQ(cheapest_route(tie, {}, tie), RouteKind::kImage);
  EXPECT_EQ(cheapest_route(tie - 1, {}, tie), RouteKind::kDirect);
  // An empty chain is unpriced, never a free route.
  EXPECT_EQ(cheapest_route(1, {}, 2), RouteKind::kDirect);
}

}  // namespace
}  // namespace ipd
