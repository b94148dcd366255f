// kill -9 matrix for the journaled streaming apply: cut power at every
// journal-record and command boundary (and mid-record offsets), reboot,
// resume via the journal, and require byte-identical recovery — the
// acceptance property for the power-loss-safe device path.
#include "device/stream_updater.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/checksum.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "device/resumable_updater.hpp"
#include "ipdelta.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

constexpr std::size_t kImageArea = 64 << 10;
constexpr std::size_t kJournalSize = 16 << 10;
constexpr std::size_t kStorage = kImageArea + kJournalSize;
constexpr JournalRegion kJournal{kImageArea, kJournalSize};
constexpr std::size_t kChunk = 997;  // deliberately not a divisor of much

struct Fixture {
  Bytes v1;
  Bytes v2;
  Bytes delta;
  StreamArtifactInfo info;
};

Fixture make_fixture(std::uint64_t seed = 31) {
  Fixture f;
  Rng rng(seed);
  f.v1 = generate_file(rng, 48 << 10, FileProfile::kBinary);
  f.v2 = f.v1;
  // Guarantee self-overlapping copies: shift a large region forward.
  std::copy(f.v2.begin() + 1000, f.v2.begin() + 30000, f.v2.begin() + 1500);
  f.v2 = mutate(f.v2, rng, 10);
  f.delta = Pipeline().build_inplace(f.v1, f.v2).delta;
  f.info.artifact_crc = crc32c(f.delta);
  f.info.artifact_size = f.delta.size();
  f.info.full_image = false;
  f.info.meta_from = 1;
  f.info.meta_hop = 2;
  f.info.meta_target = 2;
  return f;
}

FlashDevice make_device(const Bytes& image) {
  FlashDevice dev(kStorage, 512, (96 << 10));
  dev.load_image(image);
  return dev;
}

UpdaterOptions tight_options() {
  UpdaterOptions opts;
  opts.checkpoint_commands = 2;  // many boundaries for the matrix
  opts.window_bytes = 1024;
  return opts;
}

/// Feed `artifact` from the updater's current position to the end.
void feed_rest(StreamingDeviceUpdater& u, ByteView artifact) {
  while (u.next_offset() < artifact.size()) {
    const std::size_t pos = static_cast<std::size_t>(u.next_offset());
    const std::size_t n = std::min(kChunk, artifact.size() - pos);
    u.feed(artifact.subspan(pos, n));
  }
}

void expect_image(const FlashDevice& dev, const Bytes& expected) {
  EXPECT_TRUE(test::bytes_equal(
      expected, ByteView(dev.inspect()).first(expected.size())));
}

/// One cut-at-`cut`-bytes-written run: apply until the power fails,
/// reboot, probe, resume, and verify byte-identical reconstruction.
void run_cut(const Fixture& f, const UpdaterOptions& opts,
             std::uint64_t cut) {
  SCOPED_TRACE("cut at " + std::to_string(cut) + " bytes written");
  FlashDevice dev = make_device(f.v1);
  dev.inject_power_failure_after(cut);
  bool crashed = false;
  {
    StreamingDeviceUpdater u(dev, kJournal, f.info, opts);
    try {
      feed_rest(u, f.delta);
      EXPECT_TRUE(u.finished());
    } catch (const FlashDevice::PowerFailure&) {
      crashed = true;
    }
  }
  if (crashed) {
    dev.clear_power_failure();
    // Reboot: the journal alone tells the device what it was doing.
    const auto probe = StreamingDeviceUpdater::probe(dev, kJournal, opts);
    ASSERT_TRUE(probe.has_value());
    EXPECT_EQ(probe->info.artifact_crc, f.info.artifact_crc);
    EXPECT_EQ(probe->info.meta_hop, f.info.meta_hop);
    StreamingDeviceUpdater u(dev, kJournal, probe->info, opts);
    EXPECT_TRUE(u.resumed());
    if (!u.finished()) {
      EXPECT_EQ(u.next_offset(), probe->resume_offset);
      feed_rest(u, f.delta);
    }
    EXPECT_TRUE(u.finished());
  }
  expect_image(dev, f.v2);
}

TEST(StreamUpdater, CleanRunReconstructsAndJournals) {
  const Fixture f = make_fixture();
  FlashDevice dev = make_device(f.v1);
  StreamingDeviceUpdater u(dev, kJournal, f.info, tight_options());
  feed_rest(u, f.delta);
  ASSERT_TRUE(u.finished());
  EXPECT_FALSE(u.resumed());
  EXPECT_GT(u.journal_records(), 2u);
  EXPECT_GT(u.commands_applied(), 0u);
  expect_image(dev, f.v2);
  // The done record is durable: a probe (and a fresh updater) sees it.
  const auto probe = StreamingDeviceUpdater::probe(dev, kJournal,
                                                   tight_options());
  ASSERT_TRUE(probe.has_value());
  EXPECT_TRUE(probe->done);
  EXPECT_EQ(probe->info.meta_hop, f.info.meta_hop);
  EXPECT_EQ(probe->resume_offset, f.delta.size());
}

TEST(StreamUpdater, FixtureActuallyExercisesSelfOverlap) {
  const Fixture f = make_fixture();
  bool self_overlap = false;
  for (const CopyCommand& c : sorted_copies(parse_delta(f.delta).commands)) {
    self_overlap |= c.self_overlaps();
  }
  EXPECT_TRUE(self_overlap);
}

// The headline matrix: enumerate the bytes-written high-water mark at
// every journal record append and every applied command from a clean
// byte-at-a-time run, then cut exactly there, one byte after, and
// mid-journal-record (+17), requiring byte-identical recovery each time.
TEST(StreamUpdater, PowerCutMatrixAtEveryBoundary) {
  const Fixture f = make_fixture();
  const UpdaterOptions opts = tight_options();

  std::vector<std::uint64_t> boundaries;
  std::uint64_t total_writes = 0;
  {
    FlashDevice dev = make_device(f.v1);
    StreamingDeviceUpdater u(dev, kJournal, f.info, opts);
    std::uint64_t records = 0;
    std::size_t cmds = 0;
    for (std::size_t pos = 0; pos < f.delta.size(); ++pos) {
      u.feed(ByteView(f.delta).subspan(pos, 1));
      if (u.journal_records() != records || u.commands_applied() != cmds) {
        records = u.journal_records();
        cmds = u.commands_applied();
        boundaries.push_back(dev.bytes_written());
      }
    }
    ASSERT_TRUE(u.finished());
    total_writes = dev.bytes_written();
    expect_image(dev, f.v2);
  }
  ASSERT_GT(boundaries.size(), 10u);

  std::size_t runs = 0;
  for (const std::uint64_t b : boundaries) {
    for (const std::uint64_t off : {std::uint64_t{0}, std::uint64_t{1},
                                    std::uint64_t{17}}) {
      if (b + off >= total_writes) continue;
      run_cut(f, opts, b + off);
      ++runs;
    }
  }
  EXPECT_GT(runs, 30u);
}

TEST(StreamUpdater, SurvivesRepeatedCutsUntilDone) {
  const Fixture f = make_fixture();
  const UpdaterOptions opts = tight_options();
  FlashDevice dev = make_device(f.v1);
  int reboots = 0;
  for (;;) {
    dev.inject_power_failure_after(8 << 10);
    const auto probe = StreamingDeviceUpdater::probe(dev, kJournal, opts);
    if (probe && probe->done) break;
    try {
      StreamingDeviceUpdater u(dev, kJournal, f.info, opts);
      if (u.finished()) break;
      feed_rest(u, f.delta);
      EXPECT_TRUE(u.finished());
      break;
    } catch (const FlashDevice::PowerFailure&) {
      dev.clear_power_failure();
      ++reboots;
      ASSERT_LT(reboots, 200) << "update not making progress";
    }
  }
  dev.clear_power_failure();
  EXPECT_GT(reboots, 1);
  expect_image(dev, f.v2);
}

// Sparse sweep over a seeded corpus: different content profiles and
// mutation shapes, 24 cut points each.
TEST(StreamUpdater, PowerCutSweepOverSeededCorpus) {
  for (const std::uint64_t seed : {7ull, 77ull, 123ull}) {
    const Fixture f = make_fixture(seed);
    const UpdaterOptions opts = tight_options();
    std::uint64_t total_writes = 0;
    {
      FlashDevice dev = make_device(f.v1);
      StreamingDeviceUpdater u(dev, kJournal, f.info, opts);
      feed_rest(u, f.delta);
      ASSERT_TRUE(u.finished());
      total_writes = dev.bytes_written();
    }
    for (int i = 1; i <= 24; ++i) {
      run_cut(f, opts, total_writes * i / 25);
    }
  }
}

TEST(StreamUpdater, FullImageModeStreamsWithCheckpoints) {
  const Fixture f = make_fixture();
  StreamArtifactInfo info;
  info.artifact_crc = crc32c(f.v2);
  info.artifact_size = f.v2.size();
  info.full_image = true;
  info.meta_from = 0;
  info.meta_hop = 2;
  info.meta_target = 2;
  UpdaterOptions opts;
  opts.full_image_checkpoint_bytes = 4096;

  // Clean run.
  {
    FlashDevice dev = make_device(f.v1);
    StreamingDeviceUpdater u(dev, kJournal, info, opts);
    feed_rest(u, f.v2);
    ASSERT_TRUE(u.finished());
    EXPECT_GT(u.journal_records(), 5u);
    expect_image(dev, f.v2);
  }
  // Cut sweep.
  std::uint64_t total_writes = 0;
  {
    FlashDevice dev = make_device(f.v1);
    StreamingDeviceUpdater u(dev, kJournal, info, opts);
    feed_rest(u, f.v2);
    total_writes = dev.bytes_written();
  }
  for (int i = 1; i <= 12; ++i) {
    const std::uint64_t cut = total_writes * i / 13;
    SCOPED_TRACE("full-image cut at " + std::to_string(cut));
    FlashDevice dev = make_device(f.v1);
    dev.inject_power_failure_after(cut);
    bool crashed = false;
    {
      StreamingDeviceUpdater u(dev, kJournal, info, opts);
      try {
        feed_rest(u, f.v2);
      } catch (const FlashDevice::PowerFailure&) {
        crashed = true;
      }
    }
    if (crashed) {
      dev.clear_power_failure();
      const auto probe = StreamingDeviceUpdater::probe(dev, kJournal, opts);
      ASSERT_TRUE(probe.has_value());
      EXPECT_TRUE(probe->info.full_image);
      StreamingDeviceUpdater u(dev, kJournal, probe->info, opts);
      EXPECT_TRUE(u.resumed());
      if (!u.finished()) feed_rest(u, f.v2);
      EXPECT_TRUE(u.finished());
    }
    expect_image(dev, f.v2);
  }
}

TEST(StreamUpdater, DoneRecordSurvivesNextArtifactsTornFirstRecord) {
  // Crash-window regression: hop N completes (done record), hop N+1
  // starts and its very first checkpoint is torn by a power cut. The
  // done record must still be recoverable — it is the device's only
  // memory that hop N landed.
  const Fixture f = make_fixture();
  FlashDevice dev = make_device(f.v1);
  {
    StreamingDeviceUpdater u(dev, kJournal, f.info, tight_options());
    feed_rest(u, f.delta);
    ASSERT_TRUE(u.finished());
  }
  // Next hop: delta from v2 to v3.
  Rng rng(99);
  Bytes v3 = mutate(f.v2, rng, 6);
  const Bytes delta2 = Pipeline().build_inplace(f.v2, v3).delta;
  StreamArtifactInfo info2;
  info2.artifact_crc = crc32c(delta2);
  info2.artifact_size = delta2.size();
  info2.meta_from = 2;
  info2.meta_hop = 3;
  info2.meta_target = 3;
  dev.inject_power_failure_after(64);  // tear the first checkpoint write
  bool crashed = false;
  try {
    StreamingDeviceUpdater u(dev, kJournal, info2, tight_options());
    feed_rest(u, delta2);
  } catch (const FlashDevice::PowerFailure&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);
  dev.clear_power_failure();
  const auto probe = StreamingDeviceUpdater::probe(dev, kJournal,
                                                   tight_options());
  ASSERT_TRUE(probe.has_value());
  if (probe->done) {
    // Fell back to hop N's done record: the client re-requests hop N+1.
    EXPECT_EQ(probe->info.meta_hop, f.info.meta_hop);
    EXPECT_EQ(probe->info.artifact_crc, f.info.artifact_crc);
  } else {
    // The first checkpoint landed before the cut: resume hop N+1.
    EXPECT_EQ(probe->info.artifact_crc, info2.artifact_crc);
  }
  // Either way the device converges on v3.
  StreamingDeviceUpdater u(dev, kJournal, info2, tight_options());
  if (!u.finished()) feed_rest(u, delta2);
  EXPECT_TRUE(u.finished());
  expect_image(dev, v3);
}

TEST(StreamUpdater, RejectsBadArtifactsBeforeFlashWrites) {
  const Fixture f = make_fixture();
  // Not in-place.
  {
    const Bytes plain = Pipeline({.format = kPaperExplicit}).build_delta(f.v1, f.v2).delta;
    if (!parse_delta(plain).header.in_place) {
      FlashDevice dev = make_device(f.v1);
      StreamArtifactInfo info;
      info.artifact_crc = crc32c(plain);
      info.artifact_size = plain.size();
      StreamingDeviceUpdater u(dev, kJournal, info, tight_options());
      const std::uint64_t before = dev.bytes_written();
      EXPECT_THROW(u.feed(plain), ValidationError);
      EXPECT_EQ(dev.bytes_written(), before) << "no write before the gate";
      EXPECT_THROW(u.feed(plain), ValidationError) << "poisoned";
    }
  }
  // Implicit write offsets cannot resume (running write cursor).
  {
    const Bytes payload = test::random_bytes(4, 16);
    DeltaHeader header;
    header.format = kVarintSequential;
    header.in_place = true;  // a single add really is conflict-free
    header.reference_length = 16;
    header.version_length = 16;
    header.version_crc = crc32c(payload);
    const Bytes implicit =
        test::encode(header, test::script_of({test::A(0, payload)}));
    FlashDevice dev = make_device(f.v1);
    StreamArtifactInfo info;
    info.artifact_crc = crc32c(implicit);
    info.artifact_size = implicit.size();
    StreamingDeviceUpdater u(dev, kJournal, info, tight_options());
    EXPECT_THROW(u.feed(implicit), ValidationError);
  }
  // Artifact size mismatch between network metadata and container.
  {
    FlashDevice dev = make_device(f.v1);
    StreamArtifactInfo info = f.info;
    info.artifact_size = f.delta.size() + 5;
    StreamingDeviceUpdater u(dev, kJournal, info, tight_options());
    EXPECT_THROW(u.feed(f.delta), FormatError);
  }
}

/// Stream a hand-built in-place-flagged delta whose last command is a
/// copy reading bytes an earlier add wrote; the oracle must reject it
/// before the copy's flash write, leaving [100, 110) untouched.
void expect_conflict_before_copy(
    std::initializer_list<test::Fixture> commands) {
  const Fixture f = make_fixture();
  DeltaHeader header;
  header.format = kVarintExplicit;
  header.in_place = true;  // the producer's (false) claim
  header.reference_length = 120;
  header.version_length = 120;
  const Bytes delta = test::encode(header, test::script_of(commands));
  FlashDevice dev = make_device(f.v1);
  StreamArtifactInfo info;
  info.artifact_crc = crc32c(delta);
  info.artifact_size = delta.size();
  StreamingDeviceUpdater u(dev, kJournal, info, tight_options());
  EXPECT_THROW(u.feed(delta), ConflictError);
  EXPECT_TRUE(test::bytes_equal(ByteView(f.v1).subspan(100, 10),
                                ByteView(dev.inspect()).subspan(100, 10)));
}

TEST(StreamUpdater, OracleSeesWritesShadowedByAShorterOne) {
  // The second add starts where the first did: the written set must keep
  // [0, 100), not just the later, shorter [0, 10).
  expect_conflict_before_copy({test::A(0, test::random_bytes(1, 100)),
                               test::A(0, test::random_bytes(2, 10)),
                               test::C(50, 100, 10)});
}

TEST(StreamUpdater, OracleSeesWritesAroundANestedOne) {
  // [50, 60) nests inside [0, 100); a read of [70, 80) still conflicts.
  expect_conflict_before_copy({test::A(0, test::random_bytes(1, 100)),
                               test::A(50, test::random_bytes(2, 10)),
                               test::C(70, 100, 10)});
}

TEST(StreamUpdater, CopyMayReadPastTheVersion) {
  const test::PastVersionCase c = test::reads_past_version();
  DeltaHeader header;
  header.format = kVarintExplicit;
  header.in_place = true;
  header.reference_length = c.reference.size();
  header.version_length = c.version.size();
  header.version_crc = crc32c(c.version);
  const Bytes delta = test::encode(header, c.script);
  FlashDevice dev = make_device(c.reference);
  StreamArtifactInfo info;
  info.artifact_crc = crc32c(delta);
  info.artifact_size = delta.size();
  StreamingDeviceUpdater u(dev, kJournal, info, tight_options());
  feed_rest(u, delta);
  ASSERT_TRUE(u.finished());
  expect_image(dev, c.version);
}

TEST(StreamUpdater, RefusesAConflictSetPastTheRamBudget) {
  // The written set, V/8 bytes, is charged once the header parses: a
  // budget one byte short of the measured peak is refused before the
  // write-ahead checkpoint or any image write.
  const Fixture f = make_fixture();
  std::size_t high_water = 0;
  {
    FlashDevice dev = make_device(f.v1);
    StreamingDeviceUpdater u(dev, kJournal, f.info, tight_options());
    feed_rest(u, f.delta);
    ASSERT_TRUE(u.finished());
    high_water = dev.ram().high_water();
  }
  FlashDevice poor(kStorage, 512, high_water - 1);
  poor.load_image(f.v1);
  StreamingDeviceUpdater u(poor, kJournal, f.info, tight_options());
  EXPECT_THROW(feed_rest(u, f.delta), DeviceError);
  EXPECT_EQ(poor.bytes_written(), 0u);
}

TEST(StreamUpdater, JournalRegionValidation) {
  const Fixture f = make_fixture();
  FlashDevice dev = make_device(f.v1);
  // Too small for two slots.
  EXPECT_THROW(StreamingDeviceUpdater(dev, JournalRegion{kImageArea, 64},
                                      f.info, tight_options()),
               DeviceError);
  // Past the end of storage.
  EXPECT_THROW(
      StreamingDeviceUpdater(dev, JournalRegion{kStorage - 16, kJournalSize},
                             f.info, tight_options()),
      DeviceError);
  // Overlapping the image area: caught once the header announces the
  // image extent, before any flash write.
  StreamingDeviceUpdater u(dev, JournalRegion{0, kJournalSize}, f.info,
                           tight_options());
  const std::uint64_t before = dev.bytes_written();
  EXPECT_THROW(u.feed(f.delta), DeviceError);
  EXPECT_EQ(dev.bytes_written(), before);
}

TEST(StreamUpdater, RefusesAnUndoWindowOutsideTheVersion) {
  // A CRC-valid record whose undo would land on the journal itself, past
  // the version, or at an offset that wraps must be refused before the
  // restore writes a byte.
  const Fixture f = make_fixture();
  const UpdaterOptions opts = tight_options();
  const ApplyJournalOptions journal_opts{512, opts.window_bytes,
                                         opts.header_capacity};
  for (const std::uint64_t undo_to :
       {std::uint64_t{kImageArea}, std::uint64_t{f.v2.size() - 63},
        std::numeric_limits<std::uint64_t>::max() - 5}) {
    SCOPED_TRACE("undo_to " + std::to_string(undo_to));
    FlashDevice dev = make_device(f.v1);
    dev.inject_power_failure_after(10 << 10);
    {
      StreamingDeviceUpdater u(dev, kJournal, f.info, opts);
      EXPECT_THROW(feed_rest(u, f.delta), FlashDevice::PowerFailure);
    }
    dev.clear_power_failure();
    {
      DeviceJournal dj(dev, kJournal, journal_opts, "test");
      ASSERT_TRUE(dj.journal.newest().has_value());
      ApplyRecord forged = *dj.journal.newest();
      ASSERT_FALSE(forged.header.empty());
      forged.undo_to = undo_to;
      forged.undo = Bytes(64, 0xEE);
      dj.journal.append(std::move(forged));
    }
    const Bytes before(dev.inspect().begin(), dev.inspect().end());
    EXPECT_THROW(StreamingDeviceUpdater(dev, kJournal, f.info, opts),
                 DeviceError);
    EXPECT_TRUE(test::bytes_equal(before, dev.inspect()));
  }
}

TEST(StreamUpdater, HeaderCapacityIsEnforced) {
  const Fixture f = make_fixture();
  FlashDevice dev = make_device(f.v1);
  UpdaterOptions opts = tight_options();
  opts.header_capacity = 8;  // far too small for any real container
  StreamingDeviceUpdater u(dev, kJournal, f.info, opts);
  EXPECT_THROW(u.feed(f.delta), DeviceError);
}

TEST(StreamUpdater, ClearForgetsTheJournal) {
  const Fixture f = make_fixture();
  FlashDevice dev = make_device(f.v1);
  {
    StreamingDeviceUpdater u(dev, kJournal, f.info, tight_options());
    feed_rest(u, f.delta);
  }
  ASSERT_TRUE(
      StreamingDeviceUpdater::probe(dev, kJournal, tight_options()));
  clear_journal(dev, kJournal);
  EXPECT_FALSE(
      StreamingDeviceUpdater::probe(dev, kJournal, tight_options()));
}

}  // namespace
}  // namespace ipd
