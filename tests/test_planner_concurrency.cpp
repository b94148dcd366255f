// Routing while the history and the cache change underneath: releases
// published while other threads serve, and verified preloads racing
// with serves. Run it under TSan/ASan via
//   IPDELTA_SANITIZE=thread ctest -L stress
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "server/delta_service.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

using test::random_bytes;

std::vector<Bytes> drifting_history(std::size_t releases,
                                    std::uint64_t seed) {
  std::vector<Bytes> history;
  Bytes body = random_bytes(seed, 8 << 10);
  history.push_back(body);
  for (std::size_t i = 1; i < releases; ++i) {
    Rng rng(seed + i * 7919);
    for (int edit = 0; edit < 4; ++edit) {
      const std::size_t at = rng.below(body.size() - 40);
      for (std::size_t b = 0; b < 40; ++b) {
        body[at + b] = static_cast<std::uint8_t>(rng.next());
      }
    }
    history.push_back(body);
  }
  return history;
}

TEST(ServeConcurrency, PublishWhileServing) {
  const auto history = drifting_history(10, 42);
  VersionStore store;
  for (std::size_t i = 0; i < 6; ++i) store.publish(history[i]);
  DeltaService service(store);

  // Publisher: appends the remaining releases while requests run.
  std::thread publisher([&] {
    for (std::size_t i = 6; i < history.size(); ++i) {
      store.publish(history[i]);
      std::this_thread::yield();
    }
  });

  // Requesters: route and apply over the stable prefix while the
  // history grows underneath them.
  std::vector<std::thread> requesters;
  for (int t = 0; t < 3; ++t) {
    requesters.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round) {
        const ReleaseId to = 3 + static_cast<ReleaseId>(t) % 3;
        const ServeResult result = service.serve(0, to);
        EXPECT_EQ(apply_served(result, history[0]), history[to])
            << "t" << t << " round " << round;
      }
    });
  }
  publisher.join();
  for (std::thread& thread : requesters) thread.join();

  // The appended tail is immediately servable.
  ASSERT_EQ(store.release_count(), history.size());
  const ReleaseId last = history.size() - 1;
  EXPECT_EQ(apply_served(service.serve(0, last), history[0]), history.back());
}

TEST(ServeConcurrency, ConcurrentPreloadAndServe) {
  const auto history = drifting_history(8, 1234);
  VersionStore store;
  for (const Bytes& body : history) store.publish(body);
  DeltaService service(store);

  // Pre-serialize the adjacent-hop deltas to preload from another thread.
  std::vector<Bytes> artifacts;
  for (std::size_t i = 0; i + 1 < history.size(); ++i) {
    artifacts.push_back(
        Pipeline().build_inplace(history[i], history[i + 1]).delta);
  }

  std::atomic<int> refused{0};
  std::thread preloader([&] {
    for (std::size_t i = 0; i + 1 < history.size(); ++i) {
      if (!service.preload(i, i + 1, artifacts[i])) ++refused;
    }
  });
  std::vector<std::thread> requesters;
  for (int t = 0; t < 2; ++t) {
    requesters.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        const ReleaseId last = history.size() - 1;
        EXPECT_EQ(apply_served(service.serve(0, last), history[0]),
                  history.back());
        EXPECT_EQ(apply_served(service.serve(round, round + 1),
                               history[round]),
                  history[round + 1]);
      }
    });
  }
  preloader.join();
  for (std::thread& thread : requesters) thread.join();

  // Every verified preload was admitted, and each hop now serves from
  // the cache.
  EXPECT_EQ(refused.load(), 0);
  for (std::size_t i = 0; i + 1 < history.size(); ++i) {
    EXPECT_TRUE(service.serve(i, i + 1).cache_hit) << i;
  }
}

}  // namespace
}  // namespace ipd
