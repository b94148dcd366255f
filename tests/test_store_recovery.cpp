// Crash-recovery matrix: a child process publishes releases into a
// store and is SIGKILLed at a randomized point mid-stream; the parent
// reopens the directory and requires (1) recovery succeeds, (2) every
// recovered release is byte-identical to the deterministic history, and
// (3) the store accepts further publishes. The kill delays are seeded
// with bench::repetition_seed so every repetition samples a different
// point in the publish pipeline (during differencing, mid segment
// append, between segment sync and manifest append, ...), while any
// failing run stays reproducible from its printed seed.
#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <filesystem>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_util.hpp"
#include "core/checksum.hpp"
#include "store/artifact_store.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

using test::random_bytes;

/// Deterministic release history shared by the publisher child and the
/// auditing parent: body i is derived from (seed, i) alone.
std::vector<Bytes> shared_history(std::uint64_t seed, std::size_t n) {
  std::vector<Bytes> history;
  Bytes body = random_bytes(seed, 8 << 10);
  history.push_back(body);
  for (std::size_t i = 1; i < n; ++i) {
    Rng rng(seed ^ (0xABCD + i));
    for (int edit = 0; edit < 5; ++edit) {
      const std::size_t at = rng.below(body.size() - 48);
      for (std::size_t b = 0; b < 48; ++b) {
        body[at + b] = static_cast<std::uint8_t>(rng.next());
      }
    }
    history.push_back(body);
  }
  return history;
}

constexpr std::uint64_t kBaseSeed = 0x5705;
constexpr std::size_t kHistorySize = 24;

class StoreRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ipd_recover_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    history_ = shared_history(kBaseSeed, kHistorySize);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Fork a publisher that appends the remaining history to the store,
  /// wait until it reports `publishes` finished releases through a pipe
  /// (or exits), then kill it after `delay_us` more and reap it. Anchoring
  /// the kill to publish progress keeps the kill point independent of
  /// how fast the publisher runs (sanitizers slow it several-fold).
  /// Returns false if the child finished the whole history before the
  /// kill landed.
  bool run_and_kill(std::size_t publishes, std::uint64_t delay_us) {
    int progress[2];
    if (::pipe(progress) != 0) {
      ADD_FAILURE() << "pipe failed";
      return false;
    }
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(progress[0]);
      // Child: publish everything the store does not yet have. Chains
      // are kept short so folds (the most write-heavy publish path) are
      // exercised by the kill matrix too.
      try {
        StoreOptions options;
        options.chain.max_chain_length = 4;
        ArtifactStore store(dir_, options);
        for (std::size_t i = store.release_count(); i < history_.size();
             ++i) {
          store.publish(history_[i]);
          const char done = 'p';
          (void)!::write(progress[1], &done, 1);
        }
      } catch (...) {
        ::_exit(9);  // a recovered store must always accept publishes
      }
      ::_exit(0);
    }
    ::close(progress[1]);
    for (std::size_t seen = 0; seen < publishes;) {
      char done = 0;
      const ssize_t n = ::read(progress[0], &done, 1);
      if (n == 1) {
        ++seen;
      } else if (n == 0 || errno != EINTR) {
        break;  // the child exited (or the pipe failed): stop waiting
      }
    }
    ::usleep(static_cast<useconds_t>(delay_us));
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    ::close(progress[0]);
    return WIFSIGNALED(status);  // false: exited before the kill
  }

  /// Reopen with deep verification; every recovered release must match
  /// the deterministic history.
  std::size_t audit(const std::string& what) {
    StoreOptions options;
    options.verify_on_open = true;
    ArtifactStore store(dir_, options);
    const std::size_t n = store.release_count();
    EXPECT_LE(n, history_.size()) << what;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(*store.body(static_cast<ReleaseId>(i)), history_[i])
          << what << " release " << i;
    }
    return n;
  }

  std::filesystem::path dir_;
  std::vector<Bytes> history_;
};

TEST_F(StoreRecoveryTest, KillNineMatrix) {
  ArtifactStore::init(dir_);
  std::size_t recovered = 0;
  std::size_t kills = 0;
  for (std::uint64_t rep = 0; rep < 12 && recovered < history_.size();
       ++rep) {
    // 0-2 finished publishes, then 0.5ms .. ~8.7ms: from "still
    // differencing" to "several publishes deep". Seeded, not hardcoded,
    // so the matrix drifts across the pipeline as the store grows
    // between reps.
    const std::uint64_t seed = bench::repetition_seed(kBaseSeed, rep);
    const std::uint64_t delay_us = 500 + seed % 8192;
    const std::size_t publishes = static_cast<std::size_t>(seed / 8192 % 3);
    if (run_and_kill(publishes, delay_us)) ++kills;

    const std::size_t now =
        audit("rep " + std::to_string(rep) + " delay " +
              std::to_string(delay_us) + "us");
    // Durability: recovery never loses a release an earlier audit saw.
    EXPECT_GE(now, recovered) << "rep " << rep;
    recovered = now;
  }
  // The matrix must actually have interrupted the publisher, and the
  // store must have made progress through the kills.
  EXPECT_GT(kills, 0u);
  EXPECT_GT(recovered, 1u);

  // A store that survived the matrix still takes publishes to the end.
  {
    StoreOptions options;
    options.chain.max_chain_length = 4;
    ArtifactStore store(dir_, options);
    for (std::size_t i = store.release_count(); i < history_.size(); ++i) {
      store.publish(history_[i]);
    }
  }
  EXPECT_EQ(audit("final"), history_.size());
}

TEST_F(StoreRecoveryTest, KillDuringGcKeepsOldEpoch) {
  ArtifactStore::init(dir_);
  {
    StoreOptions options;
    options.chain.max_chain_length = 4;
    ArtifactStore store(dir_, options);
    for (std::size_t i = 0; i < 8; ++i) store.publish(history_[i]);
    store.compact(store.latest());
  }
  for (std::uint64_t rep = 0; rep < 6; ++rep) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      try {
        ArtifactStore store(dir_);
        store.gc();
      } catch (...) {
        ::_exit(9);
      }
      ::_exit(0);
    }
    const std::uint64_t delay_us =
        200 + bench::repetition_seed(kBaseSeed ^ 0x6C, rep) % 8192;
    ::usleep(static_cast<useconds_t>(delay_us));
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    audit("gc rep " + std::to_string(rep));
  }
}

}  // namespace
}  // namespace ipd
