#include "device/resumable_updater.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <tuple>

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
  dev.reset_stats();  // write counts cover the update alone
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
  Script script;
  offset_t to = 0;
  while (to + 2800 < f.v1.size()) {
    const length_t shift = rng.below(700);
    const length_t len = 600 + rng.below(1400);
    script.push(CopyCommand{to + shift, to, len});
    to += len;
    Bytes literal(1 + rng.below(60));
    for (std::uint8_t& b : literal) b = static_cast<std::uint8_t>(rng.next());
    script.push_owned_add(to, literal);
    to += literal.size();
  }
  f.v2 = apply_script(script, f.v1);
  DeltaHeader header;
  header.format = kPaperSequential;
  header.in_place = true;
  header.reference_length = f.v1.size();
  header.version_length = to;
  header.version_crc = crc32c(f.v2);
  f.delta = test::encode(header, script);
  return f;
}

TEST(ResumableUpdater, CleanRunReachesTheVersion) {
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

TEST(ResumableUpdater, JournalOptionsFindTheRecordAPowerCutLeft) {
  // resumable_journal_options is the one owner of the staged layout:
  // one page per slot, an undo window per record and no header (the
  // staged path re-stages the whole delta). A journal opened with it, as
  // the fleet's brick check does, finds the checkpoint a mid-apply power
  // cut left behind.
  const Fixture f = make_fixture();
  FlashDevice dev = make_device(f);
  const ApplyJournalOptions opts = resumable_journal_options(dev);
  EXPECT_EQ(opts.page_size, dev.page_size());
  EXPECT_EQ(opts.undo_capacity, UpdaterOptions{}.window_bytes);
  EXPECT_EQ(opts.header_capacity, 0u);

  dev.inject_power_failure_after(10 << 10);
  EXPECT_THROW(apply_update_resumable(dev, f.delta, channel_28k(), kJournal),
               FlashDevice::PowerFailure);
  dev.clear_power_failure();
  const DeviceJournal dj(dev, kJournal, opts, "test");
  const std::optional<ApplyRecord> rec = dj.journal.newest();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->artifact_crc, crc32c(f.delta));
  EXPECT_NE(rec->kind, ApplyRecordKind::kDone);
}

/// Cut power at 24 evenly spaced write counts of `update`, then
/// re-provision the device with v1 and clear_journal: the journal opened
/// with `layout` must hold no record, and a fresh `update` must reach v2.
/// The slots sit at the front of the region and, on 512 B pages, are not
/// half of it, so this fails if clearing misses slot 1.
void expect_reprovision_forgets_cut_updates(
    const Fixture& f, const ApplyJournalOptions& layout,
    const std::function<void(FlashDevice&)>& update) {
  std::uint64_t total_writes = 0;
  {
    FlashDevice dev = make_device(f);
    update(dev);
    total_writes = dev.bytes_written();
  }
  std::size_t cuts = 0;
  for (int i = 1; i <= 24; ++i) {
    SCOPED_TRACE("cut " + std::to_string(i));
    FlashDevice dev = make_device(f);
    dev.inject_power_failure_after(total_writes * i / 25);
    try {
      update(dev);
      continue;
    } catch (const FlashDevice::PowerFailure&) {
      ++cuts;
    }
    dev.clear_power_failure();
    dev.load_image(f.v1);
    clear_journal(dev, kJournal);
    EXPECT_FALSE(DeviceJournal(dev, kJournal, layout, "test")
                     .journal.newest()
                     .has_value());
    EXPECT_NO_THROW(update(dev));
    expect_updated(dev, f);
  }
  EXPECT_GT(cuts, 20u);
}

TEST(ClearJournal, ReprovisionForgetsACutStagedUpdate) {
  const Fixture f = make_fixture();
  FlashDevice layout_of = make_device(f);
  expect_reprovision_forgets_cut_updates(
      f, resumable_journal_options(layout_of), [&f](FlashDevice& dev) {
        apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
      });
}

TEST(ClearJournal, ReprovisionForgetsACutStreamingUpdate) {
  const Fixture f = make_fixture();
  StreamArtifactInfo info;
  info.artifact_crc = crc32c(f.delta);
  info.artifact_size = f.delta.size();
  FlashDevice layout_of = make_device(f);
  expect_reprovision_forgets_cut_updates(
      f, StreamingDeviceUpdater::journal_options(layout_of, {}),
      [&f, &info](FlashDevice& dev) {
        StreamingDeviceUpdater u(dev, kJournal, info);
        for (std::size_t at = 0; at < f.delta.size(); at += 1000) {
          u.feed(ByteView(f.delta).subspan(
              at, std::min<std::size_t>(1000, f.delta.size() - at)));
        }
        ASSERT_TRUE(u.finished());
      });
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
  if (parse_delta(plain).header.in_place) {
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

/// An LZSS-compressed fixture: new text makes the payload add-heavy
/// enough for LZSS to pay.
void make_compressed_fixture(Fixture& f) {
  f = make_fixture(31, FileProfile::kText);
  Rng rng(5);
  const Bytes fresh = generate_file(rng, 8 << 10, FileProfile::kText);
  ASSERT_GT(f.v2.size(), 36000 + fresh.size());
  std::copy(fresh.begin(), fresh.end(), f.v2.begin() + 36000);
  f.delta = Pipeline({.compress_payload = true}).build_inplace(f.v1, f.v2)
                .delta;
  ASSERT_TRUE(parse_delta(f.delta).header.compress_payload);
}

TEST(ResumableUpdater, SurvivesPowerCutsOnCompressedDelta) {
  // LZSS payloads go through parse_delta: the adds the executor writes
  // point into the decompressed stream.
  Fixture f;
  ASSERT_NO_FATAL_FAILURE(make_compressed_fixture(f));
  sweep_power_cuts(f);
}

TEST(ResumableUpdater, SurvivesPowerCutsOnImplicitOffsetDelta) {
  const Fixture f = make_implicit_fixture();
  ASSERT_EQ(parse_delta(f.delta).header.format.offsets,
            WriteOffsets::kImplicit);
  bool self_overlap = false;
  for (const CopyCommand& c : sorted_copies(parse_delta(f.delta).commands)) {
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

TEST(ResumableUpdater, BatchClosesAccountForEveryRecord) {
  const Fixture f = make_fixture();
  FlashDevice dev = make_device(f);
  const ResumableUpdateResult r =
      apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
  const BatchCloses& c = r.closes;
  // Every record but the write-ahead checkpoint and the done record
  // closes a batch.
  EXPECT_EQ(c.checkpoint_cap + c.intersection + c.substep + 2,
            r.journal_records);
  EXPECT_GT(c.intersection, 0u);
  EXPECT_GT(c.substep, 0u);
  // Each version byte is written once; each record takes whole pages.
  EXPECT_EQ(r.image_bytes_written, f.v2.size());
  EXPECT_EQ(r.image_bytes_written + r.journal_bytes_written,
            r.update.storage_bytes_written);
  EXPECT_EQ(r.journal_bytes_written % dev.page_size(), 0u);
  EXPECT_GE(r.journal_bytes_written, r.journal_records * dev.page_size());

  // A resumed run writes no write-ahead checkpoint.
  FlashDevice cut = make_device(f);
  cut.inject_power_failure_after(24 << 10);
  EXPECT_THROW(apply_update_resumable(cut, f.delta, channel_28k(), kJournal),
               FlashDevice::PowerFailure);
  cut.clear_power_failure();
  const ResumableUpdateResult resumed =
      apply_update_resumable(cut, f.delta, channel_28k(), kJournal);
  ASSERT_TRUE(resumed.resumed);
  const BatchCloses& rc = resumed.closes;
  EXPECT_EQ(rc.checkpoint_cap + rc.intersection + rc.substep + 1,
            resumed.journal_records);
  EXPECT_LT(resumed.image_bytes_written, f.v2.size());
  expect_updated(cut, f);
}

TEST(ResumableUpdater, CountsEachCloseByItsCause) {
  const Bytes reference = test::random_bytes(6, 8 << 10);
  const auto closes_of = [&reference](Script script) {
    Fixture f;
    f.v1 = reference;
    f.v2 = apply_script(script, reference);
    DeltaHeader header;
    header.format = kVarintExplicit;
    header.in_place = true;
    header.reference_length = reference.size();
    header.version_length = f.v2.size();
    header.version_crc = crc32c(f.v2);
    f.delta = test::encode(header, script);
    FlashDevice dev = make_device(f);
    const ResumableUpdateResult r =
        apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
    expect_updated(dev, f);
    return std::tuple{r.closes.checkpoint_cap, r.closes.intersection,
                      r.closes.substep, r.journal_records};
  };
  using Counts = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                            std::size_t>;
  // 40 adds read nothing: one batch fills its 32 commands.
  Script adds;
  for (offset_t at = 0; at < 400; at += 10) {
    adds.push_owned_add(at, test::random_bytes(at, 10));
  }
  EXPECT_EQ(closes_of(adds), (Counts{1, 0, 0, 3}));
  // The last add writes [100, 150), which the copy read.
  const Script rewrite = test::script_of(
      {test::C(100, 0, 50), test::A(50, test::random_bytes(7, 50)),
       test::A(100, test::random_bytes(8, 50))});
  EXPECT_EQ(closes_of(rewrite), (Counts{0, 1, 0, 3}));
  // A 5,000-byte copy shifted left over itself runs as two 4 KiB-window
  // sub-steps; the add then writes what the second one read.
  const Script shift = test::script_of(
      {test::C(100, 0, 5000), test::A(5000, test::random_bytes(9, 100))});
  EXPECT_EQ(closes_of(shift), (Counts{0, 1, 2, 5}));
}

/// A hand-built in-place-flagged delta over a 120-byte version whose
/// last command is a copy of 10 bytes to [100, 110) that reads bytes an
/// earlier add wrote.
Fixture conflicting_fixture(std::initializer_list<test::Fixture> commands) {
  Fixture f;
  f.v1 = test::random_bytes(5, 48 << 10);
  DeltaHeader header;
  header.format = kVarintExplicit;
  header.in_place = true;  // the producer's (false) claim
  header.reference_length = 120;
  header.version_length = 120;
  f.delta = test::encode(header, test::script_of(commands));
  return f;
}

void expect_copy_destination_untouched(const FlashDevice& dev,
                                       const Fixture& f) {
  EXPECT_TRUE(test::bytes_equal(ByteView(f.v1).subspan(100, 10),
                                ByteView(dev.inspect()).subspan(100, 10)));
}

TEST(ResumableUpdater, OracleSeesAConflictBeforeTheCopy) {
  const Fixture f = conflicting_fixture({test::A(0, test::random_bytes(1, 100)),
                                         test::C(50, 100, 10),
                                         test::A(110, "0123456789")});
  FlashDevice dev = make_device(f);
  EXPECT_THROW(apply_update_resumable(dev, f.delta, channel_28k(), kJournal),
               ConflictError);
  expect_copy_destination_untouched(dev, f);
}

/// Writes that overlap never reach the staged executor: parse_delta's
/// tiling check refuses them before any flash write. Feed the decoded
/// table to the executor as apply_update_resumable configures it; the
/// oracle must throw before the copy's first flash write.
void expect_staged_conflict_before_copy(
    std::initializer_list<test::Fixture> commands) {
  const Fixture f = conflicting_fixture(commands);
  FlashDevice dev = make_device(f);
  const std::uint64_t before = dev.bytes_written();
  EXPECT_THROW(apply_update_resumable(dev, f.delta, channel_28k(), kJournal),
               ValidationError);
  EXPECT_EQ(dev.bytes_written(), before);

  ParsedDelta parsed;
  ASSERT_FALSE(decode_delta(f.delta, parsed).has_value());
  DeviceJournal dj(dev, kJournal,
                   ApplyJournalOptions{dev.page_size(),
                                       UpdaterOptions{}.window_bytes, 0},
                   "test");
  JournaledExecutor executor(
      dev, dj, parsed.header,
      ApplyRecordFields{.artifact_crc = crc32c(f.delta),
                        .artifact_size = f.delta.size()},
      {}, StreamUpdaterOptions{}.checkpoint_commands,
      [](std::uint64_t) { return ResumePoint{}; });
  executor.begin(ResumePoint{});
  executor.execute(parsed.commands[0], 0);
  executor.execute(parsed.commands[1], 0);
  EXPECT_THROW(executor.execute(parsed.commands[2], 0), ConflictError);
  expect_copy_destination_untouched(dev, f);
}

TEST(ResumableUpdater, OracleSeesWritesShadowedByAShorterOne) {
  // The second add starts where the first did: the written set must keep
  // [0, 100), not just the later, shorter [0, 10).
  expect_staged_conflict_before_copy({test::A(0, test::random_bytes(1, 100)),
                                      test::A(0, test::random_bytes(2, 10)),
                                      test::C(50, 100, 10)});
}

TEST(ResumableUpdater, OracleSeesWritesAroundANestedOne) {
  // [50, 60) nests inside [0, 100); a read of [70, 80) still conflicts.
  expect_staged_conflict_before_copy({test::A(0, test::random_bytes(1, 100)),
                                      test::A(50, test::random_bytes(2, 10)),
                                      test::C(70, 100, 10)});
}

TEST(ResumableUpdater, CopyMayReadPastTheVersion) {
  const test::PastVersionCase c = test::reads_past_version();
  Fixture f;
  f.v1 = c.reference;
  f.v2 = c.version;
  DeltaHeader header;
  header.format = kVarintExplicit;
  header.in_place = true;
  header.reference_length = c.reference.size();
  header.version_length = c.version.size();
  header.version_crc = crc32c(c.version);
  f.delta = test::encode(header, c.script);
  FlashDevice dev = make_device(f);
  apply_update_resumable(dev, f.delta, channel_28k(), kJournal);
  expect_updated(dev, f);
}

/// The written set is V/8 bytes of device RAM on top of the staged
/// delta, its parsed table (commands plus any decompressed payload), the
/// copy window and the journal slot. A budget one byte short of all
/// five, or short of just the table, is refused before the first flash
/// write.
void expect_ram_charged(const Fixture& f) {
  std::size_t high_water = 0;
  {
    FlashDevice dev = make_device(f);
    high_water =
        apply_update_resumable(dev, f.delta, channel_28k(), kJournal)
            .update.ram_high_water;
  }
  const std::size_t set = WrittenBytes::storage_bytes(f.v2.size());
  const std::size_t slot = ApplyJournal::slot_bytes(
      ApplyJournalOptions{512, UpdaterOptions{}.window_bytes, 0});
  const std::size_t table = parse_delta(f.delta).table_bytes();
  EXPECT_EQ(high_water, f.delta.size() + table +
                            UpdaterOptions{}.window_bytes + slot + set);

  for (const std::size_t budget : {high_water - 1, high_water - table}) {
    FlashDevice poor(kStorage, 512, budget);
    poor.load_image(f.v1);
    clear_journal(poor, kJournal);
    const std::uint64_t before = poor.bytes_written();
    EXPECT_THROW(
        apply_update_resumable(poor, f.delta, channel_28k(), kJournal),
        DeviceError)
        << "budget " << budget;
    EXPECT_EQ(poor.bytes_written(), before) << "budget " << budget;
  }
}

TEST(ResumableUpdater, ChargesTheConflictSetToDeviceRam) {
  expect_ram_charged(make_fixture());
}

TEST(ResumableUpdater, ChargesTheDecompressedPayloadToDeviceRam) {
  Fixture f;
  ASSERT_NO_FATAL_FAILURE(make_compressed_fixture(f));
  ASSERT_FALSE(parse_delta(f.delta).decompressed.empty());
  expect_ram_charged(f);
}

TEST(ResumableUpdater, FixtureActuallyExercisesSelfOverlap) {
  // Guard the fixture: the crash sweep above is only meaningful if the
  // delta contains self-overlapping copies (the non-idempotent case).
  const Fixture f = make_fixture();
  bool self_overlap = false;
  for (const CopyCommand& c : sorted_copies(parse_delta(f.delta).commands)) {
    self_overlap |= c.self_overlaps();
  }
  EXPECT_TRUE(self_overlap);
}

}  // namespace
}  // namespace ipd
