// Durable artifact store (src/store/): chain policy, record log, publish
// and reconstruct round trips, reopen/restart byte-identity, the
// VersionStore adapter, and stored edges warming a DeltaService.
#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "core/checksum.hpp"
#include "server/delta_service.hpp"
#include "store/artifact_store.hpp"
#include "store/record_log.hpp"
#include "store/store_backed_version_store.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

using test::random_bytes;

/// Fresh per-test store directory under the system temp dir, removed on
/// teardown.
class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("ipd_store_" + std::to_string(::getpid()) + "_" +
            info->test_suite_name() + "_" + info->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

/// A history of drifting release bodies: each one mutates and grows its
/// predecessor, so adjacent deltas are small and distant ones are not.
std::vector<Bytes> make_history(std::size_t releases,
                                std::size_t base_size = 16 << 10,
                                std::uint64_t seed = 99) {
  std::vector<Bytes> history;
  Bytes body = random_bytes(seed, base_size);
  history.push_back(body);
  for (std::size_t i = 1; i < releases; ++i) {
    Rng rng(seed + i);
    for (int edit = 0; edit < 6; ++edit) {
      const std::size_t at = rng.below(body.size());
      const std::size_t len = std::min<std::size_t>(64, body.size() - at);
      for (std::size_t b = 0; b < len; ++b) {
        body[at + b] = static_cast<std::uint8_t>(rng.next());
      }
    }
    const Bytes tail = random_bytes(seed ^ i, 256);
    body.insert(body.end(), tail.begin(), tail.end());
    history.push_back(body);
  }
  return history;
}

// ---- chain policy ----------------------------------------------------

TEST(ChainPolicy, AppendsWhileChainIsHealthy) {
  ChainPolicy policy;
  const ChainDecision d = policy.decide({.chain_length = 3,
                                         .chain_bytes = 3000,
                                         .releases_since_baseline = 3},
                                        1000, 100000);
  EXPECT_EQ(d.action, ChainAction::kAppendDelta);
}

TEST(ChainPolicy, OversizedDeltaBecomesBaseline) {
  ChainPolicy policy;  // baseline_ratio = 0.7
  const ChainDecision d = policy.decide({}, 71, 100);
  EXPECT_EQ(d.action, ChainAction::kNewBaseline);
}

TEST(ChainPolicy, LengthCapTriggersFold) {
  ChainPolicy policy(ChainPolicyOptions{.max_chain_length = 4});
  const ChainDecision d = policy.decide({.chain_length = 4,
                                         .chain_bytes = 400,
                                         .releases_since_baseline = 4},
                                        50, 100000);
  EXPECT_EQ(d.action, ChainAction::kFoldToBaseline);
}

TEST(ChainPolicy, InflationCapTriggersFold) {
  ChainPolicy policy(ChainPolicyOptions{.max_inflation = 1.5});
  // Chain already carries 1.6x the body in delta bytes.
  const ChainDecision d = policy.decide({.chain_length = 3,
                                         .chain_bytes = 1500,
                                         .releases_since_baseline = 3},
                                        100, 1000);
  EXPECT_EQ(d.action, ChainAction::kFoldToBaseline);
}

TEST(ChainPolicy, PeriodicBaselineInterval) {
  ChainPolicy policy(ChainPolicyOptions{.baseline_interval = 5});
  const ChainDecision d = policy.decide({.chain_length = 4,
                                         .chain_bytes = 400,
                                         .releases_since_baseline = 4},
                                        50, 100000);
  EXPECT_EQ(d.action, ChainAction::kNewBaseline);
}

TEST(ChainPolicy, RejectsNonsenseOptions) {
  EXPECT_THROW(ChainPolicy(ChainPolicyOptions{.max_chain_length = 0}),
               ValidationError);
  EXPECT_THROW(ChainPolicy(ChainPolicyOptions{.baseline_ratio = 0.0}),
               ValidationError);
  EXPECT_THROW(ChainPolicy(ChainPolicyOptions{.max_inflation = -1.0}),
               ValidationError);
}

TEST(ChainPolicy, AcceptFoldRequiresRealWin) {
  ChainPolicy policy;  // baseline_ratio = 0.7
  EXPECT_TRUE(policy.accept_fold(69, 100));
  EXPECT_FALSE(policy.accept_fold(70, 100));
}

// ---- record log ------------------------------------------------------

TEST_F(StoreTest, RecordLogRoundTripsAcrossReopen) {
  std::filesystem::create_directories(dir_);
  const auto path = dir_ / "log";
  std::vector<Bytes> payloads;
  std::vector<std::uint64_t> offsets;
  {
    RecordLog log = RecordLog::create(path, "IPDTEST1");
    for (std::uint64_t i = 0; i < 10; ++i) {
      payloads.push_back(random_bytes(i, 100 + i * 37));
      offsets.push_back(log.append(payloads.back()));
    }
    log.sync();
  }
  RecordLog log = RecordLog::open(path, "IPDTEST1");
  std::size_t seen = 0;
  const RecoverStats stats = log.recover([&](std::uint64_t offset, Bytes p) {
    EXPECT_EQ(offset, offsets[seen]);
    EXPECT_EQ(p, payloads[seen]);
    ++seen;
  });
  EXPECT_EQ(stats.records, 10u);
  EXPECT_FALSE(stats.truncated);
  // Random access too.
  EXPECT_EQ(log.read_at(offsets[7]), payloads[7]);
}

TEST_F(StoreTest, RecordLogTruncatesTornTail) {
  std::filesystem::create_directories(dir_);
  const auto path = dir_ / "log";
  std::uint64_t durable = 0;
  {
    RecordLog log = RecordLog::create(path, "IPDTEST1");
    log.append(random_bytes(1, 500));
    durable = log.size();
    log.append(random_bytes(2, 500));
  }
  // Tear the second record's payload.
  std::filesystem::resize_file(path, durable + 8);
  RecordLog log = RecordLog::open(path, "IPDTEST1");
  std::size_t seen = 0;
  const RecoverStats stats = log.recover(
      [&](std::uint64_t, Bytes) { ++seen; });
  EXPECT_EQ(seen, 1u);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.durable_bytes, durable);
  EXPECT_EQ(std::filesystem::file_size(path), durable);
}

TEST_F(StoreTest, RecordLogRejectsForeignMagic) {
  std::filesystem::create_directories(dir_);
  const auto path = dir_ / "log";
  { RecordLog log = RecordLog::create(path, "IPDTEST1"); }
  EXPECT_THROW(RecordLog::open(path, "IPDOTHER"), StoreError);
}

// ---- artifact store --------------------------------------------------

TEST_F(StoreTest, PublishAndReconstructRoundTrip) {
  ArtifactStore::init(dir_);
  ArtifactStore store(dir_);
  const std::vector<Bytes> history = make_history(8);
  for (const Bytes& body : history) {
    store.publish(body);
  }
  ASSERT_EQ(store.release_count(), history.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(*store.body(static_cast<ReleaseId>(i)), history[i])
        << "release " << i;
  }
  // Everything after the first release rode the chain.
  EXPECT_EQ(store.record(0).kind, StoredKind::kBaseline);
  EXPECT_GT(store.stored_edges().size(), 0u);
  EXPECT_LT(store.segment_bytes(),
            2 * history.front().size() + 64 * history.size());
}

TEST_F(StoreTest, HistorySurvivesReopenByteIdentical) {
  ArtifactStore::init(dir_);
  const std::vector<Bytes> history = make_history(6);
  {
    ArtifactStore store(dir_);
    for (const Bytes& body : history) store.publish(body);
  }  // hard stop: destructor closes the logs, nothing else persists

  ArtifactStore reopened(dir_);
  ASSERT_EQ(reopened.release_count(), history.size());
  EXPECT_EQ(reopened.recovery().releases, history.size());
  EXPECT_FALSE(reopened.recovery().manifest_truncated);
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(*reopened.body(static_cast<ReleaseId>(i)), history[i]);
  }
  reopened.check();
}

TEST_F(StoreTest, ChainPolicyBoundsChainLength) {
  ArtifactStore::init(dir_);
  StoreOptions options;
  options.chain.max_chain_length = 3;
  ArtifactStore store(dir_, options);
  const std::vector<Bytes> history = make_history(10);
  for (const Bytes& body : history) store.publish(body);
  for (ReleaseId id = 0; id < store.release_count(); ++id) {
    EXPECT_LE(store.chain_stats(id).chain_length, 3u) << "release " << id;
    EXPECT_EQ(*store.body(id), history[id]);
  }
  EXPECT_GT(store.metrics().folds.load(), 0u);
}

TEST_F(StoreTest, StatsTextNamesEveryMetricExactlyOnce) {
  ArtifactStore::init(dir_);
  auto artifacts = std::make_shared<ArtifactStore>(dir_);
  StoreBackedVersionStore store(artifacts);
  for (const Bytes& body : make_history(3)) store.publish(body);
  // The store's set reaches the process's one exposition through the
  // service that runs on it.
  const DeltaService service(store, {});
  const std::string text = service.stats_text();
  // The prefix keeps verify_rejects and artifact_bytes apart from the
  // service's series of the same names.
  artifacts->metrics().visit([&](const char* name, const auto& metric) {
    EXPECT_TRUE(test::exposes_once(text, "ipdelta_store_" + std::string(name),
                                   obs::metric_type(metric)));
  });
  EXPECT_EQ(test::count_occurrences(text, "\nipdelta_store_publishes 3\n"),
            1u);
}

TEST_F(StoreTest, InitRefusesToEatAnExistingStore) {
  ArtifactStore::init(dir_);
  EXPECT_THROW(ArtifactStore::init(dir_), StoreError);
  EXPECT_THROW(ArtifactStore store(dir_ / "nothere"), StoreError);
}

TEST_F(StoreTest, DuplicateContentCountsAndLatestWins) {
  ArtifactStore::init(dir_);
  ArtifactStore store(dir_);
  const std::vector<Bytes> history = make_history(3);
  store.publish(history[0]);
  store.publish(history[1]);
  // Roll back: re-release the first body.
  const ReleaseId re = store.publish(history[0]);
  EXPECT_EQ(re, 2u);
  EXPECT_EQ(store.metrics().duplicate_publishes.load(), 1u);
  const ContentKey key{crc32c(history[0]), history[0].size()};
  EXPECT_EQ(store.find(key), re);  // newest shadows oldest
  EXPECT_EQ(*store.body(re), history[0]);
}

TEST_F(StoreTest, InMemoryStoreCountsDuplicatesToo) {
  VersionStore store;
  const Bytes a = random_bytes(1, 1000);
  const Bytes b = random_bytes(2, 1000);
  store.publish(a);
  store.publish(b);
  EXPECT_EQ(store.duplicate_publishes(), 0u);
  const ReleaseId re = store.publish(a);
  EXPECT_EQ(store.duplicate_publishes(), 1u);
  EXPECT_EQ(store.find(ContentKey{crc32c(a), a.size()}), re);
}

TEST_F(StoreTest, CompactShortensChainAndGcReclaims) {
  ArtifactStore::init(dir_);
  ArtifactStore store(dir_);
  const std::vector<Bytes> history = make_history(6);
  for (const Bytes& body : history) store.publish(body);
  const ReleaseId tip = store.latest();
  ASSERT_GT(store.chain_stats(tip).chain_length, 1u);
  EXPECT_TRUE(store.compact(tip));
  EXPECT_EQ(store.chain_stats(tip).chain_length, 1u);
  EXPECT_EQ(*store.body(tip), history.back());
  // The superseded chain artifact is dead segment weight until gc.
  const std::uint64_t before = store.segment_bytes();
  EXPECT_GT(store.gc(), 0u);
  EXPECT_LT(store.segment_bytes(), before);
  store.check();
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(*store.body(static_cast<ReleaseId>(i)), history[i]);
  }
}

TEST_F(StoreTest, GcSurvivesReopen) {
  ArtifactStore::init(dir_);
  const std::vector<Bytes> history = make_history(5);
  {
    ArtifactStore store(dir_);
    for (const Bytes& body : history) store.publish(body);
    store.compact(store.latest());
    store.gc();
  }
  ArtifactStore reopened(dir_);
  reopened.check();
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(*reopened.body(static_cast<ReleaseId>(i)), history[i]);
  }
}

TEST_F(StoreTest, DiskCacheServesRepeatReconstructs) {
  ArtifactStore::init(dir_);
  const std::vector<Bytes> history = make_history(5);
  {
    ArtifactStore store(dir_);
    for (const Bytes& body : history) store.publish(body);
  }
  ArtifactStore store(dir_);  // fresh process: RAM state gone, disk warm
  const ReleaseId tip = store.latest();
  EXPECT_EQ(*store.body(tip), history.back());
  const std::uint64_t hits = store.metrics().disk_cache_hits.load();
  EXPECT_GT(hits, 0u);  // publish-time cache files survived
}

// ---- VersionStore adapter + service ----------------------------------

TEST_F(StoreTest, AdapterServesThroughDeltaServiceAfterRestart) {
  ArtifactStore::init(dir_);
  const std::vector<Bytes> history = make_history(6);
  {
    ArtifactStore store(dir_);
    for (const Bytes& body : history) store.publish(body);
  }  // "process exit"

  // Restarted server over the same directory.
  auto artifacts = std::make_shared<ArtifactStore>(dir_);
  StoreBackedVersionStore store(artifacts);
  ASSERT_EQ(store.release_count(), history.size());
  DeltaService service(store);
  const std::size_t warmed = preload_stored_edges(*artifacts, service);
  EXPECT_GT(warmed, 0u);

  // Every upgrade pair must reconstruct byte-identically from disk.
  for (ReleaseId from = 0; from < history.size(); ++from) {
    for (ReleaseId to = from + 1; to < history.size(); ++to) {
      const ServeResult result = service.serve(from, to);
      const Bytes rebuilt = apply_served(result, history[from]);
      EXPECT_TRUE(test::bytes_equal(history[to], rebuilt))
          << from << " -> " << to;
    }
  }
  // Preloaded chain edges serve as cache hits (no build ran).
  const ServeResult hop = service.serve(0, 1);
  EXPECT_TRUE(hop.cache_hit);
}

TEST_F(StoreTest, AdapterForwardsDuplicateCounter) {
  ArtifactStore::init(dir_);
  auto artifacts = std::make_shared<ArtifactStore>(dir_);
  StoreBackedVersionStore store(artifacts);
  const Bytes a = random_bytes(5, 2000);
  const Bytes b = random_bytes(6, 2000);
  store.publish(Bytes(a));
  store.publish(Bytes(b));
  store.publish(Bytes(a));
  EXPECT_EQ(store.duplicate_publishes(), 1u);
  EXPECT_EQ(store.latest(), 2u);
  EXPECT_EQ(store.content_key(0), (ContentKey{crc32c(a), a.size()}));
}

// ---- stored edges warm the service -----------------------------------

TEST_F(StoreTest, PreloadedStoredEdgesServeWithoutBuilds) {
  ArtifactStore::init(dir_);
  const std::vector<Bytes> history = make_history(6);
  auto artifacts = std::make_shared<ArtifactStore>(dir_);
  for (const Bytes& body : history) artifacts->publish(body);
  StoreBackedVersionStore store(artifacts);
  DeltaService service(store);
  const std::vector<StoredEdge> edges = artifacts->stored_edges();
  ASSERT_FALSE(edges.empty());
  EXPECT_EQ(preload_stored_edges(*artifacts, service), edges.size());

  // Every stored edge passed the service's verifier on the way in, so
  // serving it is a cache hit: no differencing pass runs.
  for (const StoredEdge& edge : edges) {
    const ServeResult result = service.serve(edge.from, edge.to);
    EXPECT_TRUE(result.cache_hit) << edge.from << " -> " << edge.to;
    EXPECT_TRUE(test::bytes_equal(history[edge.to],
                                  apply_served(result, history[edge.from])));
  }
  EXPECT_EQ(service.metrics().builds.load(), 0u);
}

}  // namespace
}  // namespace ipd
