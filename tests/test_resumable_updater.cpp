#include "device/resumable_updater.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/checksum.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "device/channel.hpp"
#include "device/stream_updater.hpp"
#include "ipdelta.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

constexpr std::size_t kImageArea = 64 << 10;
constexpr std::size_t kJournalSize = 16 << 10;
constexpr std::size_t kStorage = kImageArea + kJournalSize;
constexpr JournalRegion kJournal{kImageArea, kJournalSize};

struct Fixture {
  Bytes v1;
  Bytes v2;
  Bytes delta;
};

Fixture make_fixture(std::uint64_t seed = 31,
                     FileProfile profile = FileProfile::kBinary) {
  Fixture f;
  Rng rng(seed);
  f.v1 = generate_file(rng, 48 << 10, profile);
  f.v2 = f.v1;
  // Guarantee self-overlapping copies: shift a large region forward.
  std::copy(f.v2.begin() + 1000, f.v2.begin() + 30000, f.v2.begin() + 1500);
  f.v2 = mutate(f.v2, rng, 10);
  f.delta = Pipeline().build_inplace(f.v1, f.v2).delta;
  return f;
}

FlashDevice make_device(const Fixture& f) {
  FlashDevice dev(kStorage, 512, (96 << 10));
  dev.load_image(f.v1);
  clear_journal(dev, kJournal);
  return dev;
}

void expect_updated(const FlashDevice& dev, const Fixture& f) {
  EXPECT_TRUE(test::bytes_equal(
      f.v2, ByteView(dev.inspect()).first(f.v2.size())));
}

/// Cut power at 24 evenly spaced write counts of a clean run, reboot,
/// resume, and require the version byte for byte after every cut.
void sweep_power_cuts(const Fixture& f) {
  std::uint64_t total_writes = 0;
  {
    FlashDevice dev = make_device(f);
    apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
    total_writes = dev.bytes_written();
    expect_updated(dev, f);
  }
  ASSERT_GT(total_writes, 0u);
  std::size_t resumed = 0;
  for (int i = 1; i <= 24; ++i) {
    const std::uint64_t crash_at = total_writes * i / 25;
    SCOPED_TRACE("crash point " + std::to_string(crash_at));
    FlashDevice dev = make_device(f);
    dev.inject_power_failure_after(crash_at);
    try {
      apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
    } catch (const FlashDevice::PowerFailure&) {
      dev.clear_power_failure();
      const ResumableUpdateResult r =
          apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
      EXPECT_TRUE(r.resumed);
      EXPECT_TRUE(r.update.crc_verified);
      ++resumed;
    }
    expect_updated(dev, f);
  }
  EXPECT_GT(resumed, 20u);
}

/// A delta with implicit write offsets that is still in-place safe: its
/// commands run in write order and every copy reads at or after the
/// byte it writes, so no copy reads what an earlier command wrote. Most
/// copies shift data left over themselves, so they run as sub-steps.
Fixture make_implicit_fixture() {
  Fixture f;
  Rng rng(41);
  f.v1 = generate_file(rng, 48 << 10, FileProfile::kBinary);
  std::vector<Command> commands;
  offset_t to = 0;
  while (to + 2800 < f.v1.size()) {
    const length_t shift = rng.below(700);
    const length_t len = 600 + rng.below(1400);
    commands.push_back(CopyCommand{to + shift, to, len});
    to += len;
    Bytes literal(1 + rng.below(60));
    for (std::uint8_t& b : literal) b = static_cast<std::uint8_t>(rng.next());
    const offset_t at = to;
    to += literal.size();
    commands.push_back(AddCommand{at, std::move(literal)});
  }
  DeltaFile file;
  file.format = kPaperSequential;
  file.in_place = true;
  file.reference_length = f.v1.size();
  file.version_length = to;
  file.script = Script(std::move(commands));
  f.v2 = apply_script(file.script, f.v1);
  file.version_crc = crc32c(f.v2);
  f.delta = serialize_delta(file);
  return f;
}

TEST(ResumableUpdater, CleanRunMatchesPlainUpdater) {
  const Fixture f = make_fixture();
  FlashDevice dev = make_device(f);
  const ResumableUpdateResult r =
      apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
  EXPECT_FALSE(r.resumed);
  EXPECT_TRUE(r.update.crc_verified);
  EXPECT_GT(r.journal_records, 0u);
  expect_updated(dev, f);
}

TEST(ResumableUpdater, SecondRunAfterCompletionIsIdempotent) {
  const Fixture f = make_fixture();
  FlashDevice dev = make_device(f);
  apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
  const ResumableUpdateResult again =
      apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
  EXPECT_TRUE(again.resumed);
  EXPECT_TRUE(again.update.crc_verified);
  expect_updated(dev, f);
}

// The headline property: crash at EVERY byte-offset granularity bucket,
// resume, and always end with a byte-perfect v2.
TEST(ResumableUpdater, SurvivesPowerFailureAtManyPoints) {
  const Fixture f = make_fixture();

  // Measure an uninterrupted run to size the injection sweep.
  FlashDevice probe = make_device(f);
  const ResumableUpdateResult clean =
      apply_update_resumable(probe, f.delta, channel_28k(), kJournal);
  const std::uint64_t total_writes = probe.bytes_written();
  ASSERT_GT(total_writes, 0u);
  (void)clean;

  for (int i = 1; i <= 24; ++i) {
    const std::uint64_t crash_at = total_writes * i / 25;
    FlashDevice dev = make_device(f);
    dev.inject_power_failure_after(crash_at);
    bool crashed = false;
    try {
      apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
    } catch (const FlashDevice::PowerFailure&) {
      crashed = true;
    }
    if (!crashed) {
      // Injection landed after the last write; the run completed.
      expect_updated(dev, f);
      continue;
    }
    // "Reboot" and resume.
    dev.clear_power_failure();
    const ResumableUpdateResult r =
        apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
    EXPECT_TRUE(r.resumed) << "crash point " << crash_at;
    EXPECT_TRUE(r.update.crc_verified) << "crash point " << crash_at;
    expect_updated(dev, f);
  }
}

TEST(ResumableUpdater, SurvivesRepeatedCrashesInOneUpdate) {
  const Fixture f = make_fixture();
  FlashDevice dev = make_device(f);

  // Crash every ~20 KiB of writes until the update finally completes.
  int crashes = 0;
  for (;;) {
    dev.inject_power_failure_after(20 << 10);
    try {
      const ResumableUpdateResult r =
          apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
      EXPECT_TRUE(r.update.crc_verified);
      break;
    } catch (const FlashDevice::PowerFailure&) {
      ++crashes;
      ASSERT_LT(crashes, 100) << "update not making progress";
    }
  }
  dev.clear_power_failure();
  EXPECT_GT(crashes, 1);
  expect_updated(dev, f);
}

TEST(ResumableUpdater, SurvivesACutDuringRecovery) {
  // A second cut while the resumed run restores an undo and rewrites the
  // in-flight sub-step's record must leave a journal that still resumes
  // byte-exactly: the resumed run may journal nothing that licenses a
  // replay of sub-steps that already ran.
  const Fixture f = make_fixture();
  std::uint64_t total_writes = 0;
  {
    FlashDevice dev = make_device(f);
    apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
    total_writes = dev.bytes_written();
  }
  for (int i = 1; i <= 24; ++i) {
    for (std::uint64_t second = 1; second < 10000; second += 199) {
      const std::uint64_t first = total_writes * i / 25;
      SCOPED_TRACE("cuts at " + std::to_string(first) + " then " +
                   std::to_string(second));
      FlashDevice dev = make_device(f);
      for (const std::uint64_t cut : {first, second}) {
        dev.inject_power_failure_after(cut);
        try {
          apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
        } catch (const FlashDevice::PowerFailure&) {
        }
        dev.clear_power_failure();
      }
      EXPECT_TRUE(apply_update_resumable(dev, f.delta, channel_28k(), kJournal)
                      .update.crc_verified);
      expect_updated(dev, f);
    }
  }
}

TEST(ResumableUpdater, JournalRegionValidation) {
  const Fixture f = make_fixture();
  FlashDevice dev = make_device(f);
  // Overlapping the image area.
  EXPECT_THROW(apply_update_resumable(dev, f.delta, channel_28k(),
                                      JournalRegion{0, kJournalSize}),
               DeviceError);
  // Past the end of storage.
  EXPECT_THROW(
      apply_update_resumable(dev, f.delta, channel_28k(),
                             JournalRegion{kStorage - 16, kJournalSize}),
      DeviceError);
  // Too small for two slots.
  EXPECT_THROW(apply_update_resumable(dev, f.delta, channel_28k(),
                                      JournalRegion{kImageArea, 64}),
               DeviceError);
}

TEST(ResumableUpdater, RejectsNonInplaceDelta) {
  const Fixture f = make_fixture();
  const Bytes plain = Pipeline({.format = kPaperExplicit}).build_delta(f.v1, f.v2).delta;
  if (deserialize_delta(plain).in_place) {
    GTEST_SKIP() << "delta happened to be conflict-free";
  }
  FlashDevice dev = make_device(f);
  EXPECT_THROW(
      apply_update_resumable(dev, plain, channel_28k(), kJournal),
      ValidationError);
}

TEST(ResumableUpdater, StaleJournalFromOtherDeltaIsIgnored) {
  const Fixture f = make_fixture(31);
  const Fixture other = make_fixture(77);
  FlashDevice dev = make_device(f);

  // Crash mid-way through updating with f's delta...
  dev.inject_power_failure_after(10 << 10);
  EXPECT_THROW(apply_update_resumable(dev, f.delta, channel_28k(), kJournal),
               FlashDevice::PowerFailure);
  dev.clear_power_failure();

  // ...then try the OTHER delta: its checksum does not match the journal,
  // so no resume happens (and the update fails CRC because the image is
  // half-written — exactly the protection we want).
  bool resumed = true;
  try {
    const ResumableUpdateResult r =
        apply_update_resumable(dev, other.delta, channel_28k(), kJournal);
    resumed = r.resumed;
  } catch (const Error&) {
    resumed = false;  // CRC failure is acceptable here
  }
  EXPECT_FALSE(resumed);
}

TEST(ResumableUpdater, RefusesAnUndoWindowOutsideTheVersion) {
  // A CRC-valid record whose undo would land on the journal itself, past
  // the version, or at an offset that wraps must be refused before the
  // restore writes a byte.
  const Fixture f = make_fixture();
  const ApplyJournalOptions opts{512, UpdaterOptions{}.window_bytes, 0};
  for (const std::uint64_t undo_to :
       {std::uint64_t{kImageArea}, std::uint64_t{f.v2.size() - 63},
        std::numeric_limits<std::uint64_t>::max() - 5}) {
    SCOPED_TRACE("undo_to " + std::to_string(undo_to));
    FlashDevice dev = make_device(f);
    dev.inject_power_failure_after(10 << 10);
    EXPECT_THROW(apply_update_resumable(dev, f.delta, channel_28k(), kJournal),
                 FlashDevice::PowerFailure);
    dev.clear_power_failure();
    {
      DeviceJournal dj(dev, kJournal, opts, "test");
      ASSERT_TRUE(dj.journal.newest().has_value());
      ApplyRecord forged = *dj.journal.newest();
      forged.undo_to = undo_to;
      forged.undo = Bytes(64, 0xEE);
      dj.journal.append(std::move(forged));
    }
    const Bytes before(dev.inspect().begin(), dev.inspect().end());
    EXPECT_THROW(apply_update_resumable(dev, f.delta, channel_28k(), kJournal),
                 DeviceError);
    EXPECT_TRUE(test::bytes_equal(before, dev.inspect()));
  }
}

TEST(ResumableUpdater, PowerFailureDuringJournalWriteIsRecoverable) {
  const Fixture f = make_fixture();

  // Find the byte offset of the first journal write by instrumenting a
  // clean run: journal writes target the journal region.
  FlashDevice dev = make_device(f);
  // Crash after very few bytes — almost certainly inside the first
  // journal record or first command.
  dev.inject_power_failure_after(16);
  EXPECT_THROW(apply_update_resumable(dev, f.delta, channel_28k(), kJournal),
               FlashDevice::PowerFailure);
  dev.clear_power_failure();
  const ResumableUpdateResult r =
      apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
  EXPECT_TRUE(r.update.crc_verified);
  expect_updated(dev, f);
}

TEST(ResumableUpdater, SurvivesPowerCutsOnCompressedDelta) {
  // LZSS payloads go through parse_delta: the adds the executor writes
  // point into the decompressed stream. New text makes the payload
  // add-heavy enough for LZSS to pay.
  Fixture f = make_fixture(31, FileProfile::kText);
  Rng rng(5);
  const Bytes fresh = generate_file(rng, 8 << 10, FileProfile::kText);
  ASSERT_GT(f.v2.size(), 36000 + fresh.size());
  std::copy(fresh.begin(), fresh.end(), f.v2.begin() + 36000);
  f.delta = Pipeline({.compress_payload = true}).build_inplace(f.v1, f.v2)
                .delta;
  ASSERT_TRUE(deserialize_delta(f.delta).compress_payload);
  sweep_power_cuts(f);
}

TEST(ResumableUpdater, SurvivesPowerCutsOnImplicitOffsetDelta) {
  const Fixture f = make_implicit_fixture();
  const DeltaFile file = deserialize_delta(f.delta);
  ASSERT_EQ(file.format.offsets, WriteOffsets::kImplicit);
  bool self_overlap = false;
  for (const CopyCommand& c : file.script.copies()) {
    self_overlap |= c.self_overlaps();
  }
  ASSERT_TRUE(self_overlap);
  sweep_power_cuts(f);
}

TEST(ResumableUpdater, BatchesCheckpointsAcrossCommands) {
  const Fixture f = make_fixture();
  FlashDevice dev = make_device(f);
  const ResumableUpdateResult r =
      apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
  EXPECT_LT(r.journal_records, parse_delta(f.delta).commands.size());
  EXPECT_EQ(r.steps_replayed, 0u);
}

TEST(ResumableUpdater, MatchesTheStreamingUpdater) {
  // One executor behind both paths: the same artifact leaves the same
  // image area and the same journal record count.
  const Fixture f = make_fixture();
  FlashDevice staged = make_device(f);
  const ResumableUpdateResult r =
      apply_update_resumable(staged, f.delta, channel_28k(), kJournal);

  FlashDevice streamed = make_device(f);
  StreamArtifactInfo info;
  info.artifact_crc = crc32c(f.delta);
  info.artifact_size = f.delta.size();
  StreamingDeviceUpdater u(streamed, kJournal, info);
  u.feed(f.delta);
  ASSERT_TRUE(u.finished());

  EXPECT_TRUE(test::bytes_equal(ByteView(staged.inspect()).first(kImageArea),
                                ByteView(streamed.inspect()).first(kImageArea)));
  EXPECT_EQ(r.journal_records, u.journal_records());
}

TEST(ResumableUpdater, ResumeReportsTheCommandItResumedAt) {
  const Fixture f = make_fixture();
  FlashDevice dev = make_device(f);
  dev.inject_power_failure_after(24 << 10);
  EXPECT_THROW(apply_update_resumable(dev, f.delta, channel_28k(), kJournal),
               FlashDevice::PowerFailure);
  dev.clear_power_failure();
  const ResumableUpdateResult r =
      apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
  EXPECT_TRUE(r.resumed);
  EXPECT_GT(r.steps_replayed, 0u);
  EXPECT_LT(r.steps_replayed, parse_delta(f.delta).commands.size());
  expect_updated(dev, f);
  const ResumableUpdateResult again =
      apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
  EXPECT_EQ(again.steps_replayed, parse_delta(f.delta).commands.size());
}

TEST(ResumableUpdater, FixtureActuallyExercisesSelfOverlap) {
  // Guard the fixture: the crash sweep above is only meaningful if the
  // delta contains self-overlapping copies (the non-idempotent case).
  const Fixture f = make_fixture();
  const DeltaFile file = deserialize_delta(f.delta);
  bool self_overlap = false;
  for (const CopyCommand& c : file.script.copies()) {
    self_overlap |= c.self_overlaps();
  }
  EXPECT_TRUE(self_overlap);
}

}  // namespace
}  // namespace ipd
