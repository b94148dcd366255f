#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "device/channel.hpp"
#include "device/flash_device.hpp"
#include "device/flash_journal.hpp"
#include "device/resumable_updater.hpp"
#include "ipdelta.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

TEST(Channel, TransferTimeScalesWithBytes) {
  const ChannelModel ch = channel_28k();
  const double t1 = ch.transfer_seconds(1000);
  const double t2 = ch.transfer_seconds(2000);
  EXPECT_GT(t2, t1);
  // Latency floor.
  EXPECT_GE(ch.transfer_seconds(0), ch.latency_s);
}

TEST(Channel, FasterLinksAreFaster) {
  const std::uint64_t bytes = 100000;
  EXPECT_GT(channel_9600().transfer_seconds(bytes),
            channel_28k().transfer_seconds(bytes));
  EXPECT_GT(channel_28k().transfer_seconds(bytes),
            channel_56k().transfer_seconds(bytes));
  EXPECT_GT(channel_56k().transfer_seconds(bytes),
            channel_isdn().transfer_seconds(bytes));
  EXPECT_GT(channel_isdn().transfer_seconds(bytes),
            channel_t1().transfer_seconds(bytes));
}

TEST(RamArena, TracksUsageAndHighWater) {
  RamArena arena(1000);
  EXPECT_EQ(arena.in_use(), 0u);
  {
    auto a = arena.allocate(400);
    EXPECT_EQ(arena.in_use(), 400u);
    {
      auto b = arena.allocate(500);
      EXPECT_EQ(arena.in_use(), 900u);
    }
    EXPECT_EQ(arena.in_use(), 400u);
  }
  EXPECT_EQ(arena.in_use(), 0u);
  EXPECT_EQ(arena.high_water(), 900u);
}

TEST(RamArena, ThrowsOverBudget) {
  RamArena arena(100);
  auto a = arena.allocate(80);
  EXPECT_THROW(arena.allocate(21), DeviceError);
  EXPECT_NO_THROW(arena.allocate(20));
}

TEST(RamArena, RefusesBeforeAllocatingHostMemory) {
  // 256 TiB would fail as bad_alloc if host memory came first.
  RamArena arena(1 << 20);
  EXPECT_THROW(arena.allocate(std::size_t{1} << 48), DeviceError);
  EXPECT_EQ(arena.in_use(), 0u);
  EXPECT_EQ(arena.high_water(), 0u);
}

TEST(RamArena, MoveTransfersOwnership) {
  RamArena arena(100);
  {
    RamArena::Allocation a = arena.allocate(50);
    RamArena::Allocation b = std::move(a);
    EXPECT_EQ(arena.in_use(), 50u);
    EXPECT_EQ(b.size(), 50u);
  }
  EXPECT_EQ(arena.in_use(), 0u);
}

TEST(FlashDevice, ReadWriteRoundTrip) {
  FlashDevice dev(1024, 256, 1 << 16);
  const Bytes data = test::random_bytes(1, 300);
  dev.write(100, data);
  Bytes back(300);
  dev.read(100, back);
  EXPECT_TRUE(test::bytes_equal(data, back));
}

TEST(FlashDevice, CountsPagesTouched) {
  FlashDevice dev(4096, 256, 1 << 16);
  dev.write(0, Bytes(256, 1));  // exactly page 0
  EXPECT_EQ(dev.pages_touched_write(), 1u);
  dev.write(250, Bytes(12, 2));  // straddles pages 0 and 1
  EXPECT_EQ(dev.pages_touched_write(), 3u);
  Bytes buf(512);
  dev.read(256, buf);  // pages 1-2
  EXPECT_EQ(dev.pages_touched_read(), 2u);
  EXPECT_EQ(dev.bytes_written(), 268u);
  dev.reset_stats();
  EXPECT_EQ(dev.bytes_written(), 0u);
}

TEST(FlashDevice, OutOfRangeThrows) {
  FlashDevice dev(100, 16, 1000);
  Bytes buf(50);
  EXPECT_THROW(dev.read(60, buf), DeviceError);
  EXPECT_THROW(dev.write(60, buf), DeviceError);
  EXPECT_THROW(dev.load_image(Bytes(101, 0)), DeviceError);
}

TEST(FlashDevice, OffsetThatWrapsPastTwoToThe64Throws) {
  // UINT64_MAX - 5 + 10 wraps to 4, inside storage; the bounds check
  // must see the access as out of range, not index before storage.
  FlashDevice dev(4096, 256, 64 << 10);
  const offset_t wrap = std::numeric_limits<std::uint64_t>::max() - 5;
  Bytes buf(10, 0xAB);
  EXPECT_THROW(dev.write(wrap, buf), DeviceError);
  EXPECT_THROW(dev.read(wrap, buf), DeviceError);
  EXPECT_EQ(dev.bytes_written(), 0u);
}

TEST(FlashJournalStorage, OffsetThatWrapsPastTwoToThe64Throws) {
  FlashDevice dev(4096, 256, 64 << 10);
  const offset_t wrap = std::numeric_limits<std::uint64_t>::max() - 5;
  FlashJournalStorage storage(dev, JournalRegion{2048, 2048});
  Bytes buf(10, 0xAB);
  EXPECT_THROW(storage.write(wrap, buf), DeviceError);
  EXPECT_THROW(storage.read(wrap, buf), DeviceError);
  EXPECT_THROW(FlashJournalStorage(dev, JournalRegion{wrap, 10}), DeviceError);
  EXPECT_EQ(dev.bytes_written(), 0u);
}

TEST(FlashDevice, PowerFailureTearsWrite) {
  FlashDevice dev(100, 16, 1000);
  dev.load_image(Bytes(100, 0xAA));
  dev.inject_power_failure_after(4);
  EXPECT_THROW(dev.write(10, Bytes(10, 0xBB)), FlashDevice::PowerFailure);
  // The first 4 bytes landed, the rest did not.
  Bytes back(10);
  dev.clear_power_failure();
  dev.read(10, back);
  EXPECT_EQ(std::count(back.begin(), back.end(), 0xBB), 4);
  EXPECT_EQ(std::count(back.begin(), back.end(), 0xAA), 6);
}

TEST(FlashDevice, PowerFailureCountsAcrossWrites) {
  FlashDevice dev(100, 16, 1000);
  dev.inject_power_failure_after(10);
  dev.write(0, Bytes(6, 1));   // 6 of 10
  dev.write(6, Bytes(4, 2));   // exactly exhausts the budget, no tear
  EXPECT_THROW(dev.write(10, Bytes(1, 3)), FlashDevice::PowerFailure);
}

TEST(FlashDevice, ClearPowerFailureDisarms) {
  FlashDevice dev(100, 16, 1000);
  dev.inject_power_failure_after(1);
  dev.clear_power_failure();
  EXPECT_NO_THROW(dev.write(0, Bytes(50, 1)));
}

TEST(DeviceWindowedCopy, MatchesMemmoveInBothDirections) {
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    FlashDevice dev(256, 32, 1 << 16);
    Bytes content = test::random_bytes(trial, 256);
    dev.load_image(content);

    const offset_t from = rng.below(200);
    const offset_t to = rng.below(200);
    const length_t len = rng.below(256 - std::max(from, to) + 1);
    Bytes expect = content;
    std::memmove(expect.data() + to, expect.data() + from, len);

    Bytes window(1 + rng.below(16));
    device_windowed_copy(dev, window, from, to, len);
    ASSERT_TRUE(test::bytes_equal(expect, dev.inspect())) << "trial "
                                                          << trial;
  }
}

class UpdaterTest : public ::testing::Test {
 protected:
  // A firmware-style pair: 48 KiB image with scattered edits, on a
  // device with a 64 KiB image area and its apply journal behind it.
  static constexpr std::size_t kImageArea = 64 << 10;
  static constexpr JournalRegion kJournal{kImageArea, 16 << 10};
  static constexpr std::size_t kStorage = kImageArea + (16 << 10);

  void SetUp() override {
    Rng rng(11);
    old_image_ = generate_file(rng, 48 << 10, FileProfile::kBinary);
    new_image_ = mutate(old_image_, rng, 25);
    delta_ = Pipeline().build_inplace(old_image_, new_image_).delta;
  }

  FlashDevice device(std::size_t ram) const {
    FlashDevice dev(kStorage, 4096, ram);
    dev.load_image(old_image_);
    clear_journal(dev, kJournal);
    return dev;
  }

  Bytes old_image_;
  Bytes new_image_;
  Bytes delta_;
};

TEST_F(UpdaterTest, EndToEndUpdateSucceeds) {
  FlashDevice dev = device(96 << 10);
  const UpdateResult r =
      apply_update_resumable(dev, delta_, channel_28k(), kJournal).update;
  EXPECT_EQ(r.new_image_length, new_image_.size());
  EXPECT_TRUE(r.crc_verified);
  EXPECT_GT(r.download_seconds, 0.0);
  EXPECT_TRUE(test::bytes_equal(
      new_image_, ByteView(dev.inspect()).first(new_image_.size())));
  // RAM never exceeded delta + its parsed table + window + one journal
  // slot + the conflict set (plus nothing hidden).
  const std::size_t slot =
      ApplyJournal::slot_bytes(resumable_journal_options(dev));
  EXPECT_LE(r.ram_high_water,
            delta_.size() + parse_delta(delta_).table_bytes() + 4096 + slot +
                WrittenBytes::storage_bytes(new_image_.size()));
}

TEST_F(UpdaterTest, RamBudgetIsEnforced) {
  // Budget too small to stage the delta: must throw, not swap to hidden
  // memory.
  FlashDevice dev = device(delta_.size() / 2);
  EXPECT_THROW(apply_update_resumable(dev, delta_, channel_28k(), kJournal),
               DeviceError);
}

TEST_F(UpdaterTest, TinyWindowStillCorrect) {
  FlashDevice dev = device(96 << 10);
  UpdaterOptions options;
  options.window_bytes = 64;  // pathologically small working buffer
  const ResumableUpdateResult r =
      apply_update_resumable(dev, delta_, channel_28k(), kJournal, options);
  EXPECT_TRUE(r.update.crc_verified);
  EXPECT_TRUE(test::bytes_equal(
      new_image_, ByteView(dev.inspect()).first(new_image_.size())));
}

TEST_F(UpdaterTest, WrongBaseImageFailsCrc) {
  FlashDevice dev = device(96 << 10);
  Bytes tampered = old_image_;
  tampered[1234] ^= 0xFF;
  dev.load_image(tampered);
  EXPECT_THROW(apply_update_resumable(dev, delta_, channel_28k(), kJournal),
               FormatError);
}

TEST_F(UpdaterTest, ImageTooLargeForStorage) {
  // 8 KiB of image area in front of the journal: the 48 KiB image does
  // not fit, and nothing is written.
  FlashDevice dev((8 << 10) + kJournal.size, 4096, 96 << 10);
  const std::uint64_t before = dev.bytes_written();
  EXPECT_THROW(apply_update_resumable(dev, delta_, channel_28k(),
                                      JournalRegion{8 << 10, kJournal.size}),
               DeviceError);
  EXPECT_EQ(dev.bytes_written(), before);
}

TEST(Updater, GrowingImageUpdatesInPlace) {
  // New version larger than the old one — the buffer slack case.
  Rng rng(21);
  const Bytes old_image = generate_file(rng, 10 << 10, FileProfile::kBinary);
  Bytes new_image = old_image;
  const Bytes extra = test::random_bytes(5, 4 << 10);
  new_image.insert(new_image.end(), extra.begin(), extra.end());

  const Bytes delta = Pipeline().build_inplace(old_image, new_image).delta;
  const JournalRegion journal{16 << 10, 12 << 10};
  FlashDevice dev(journal.offset + journal.size, 1024, 64 << 10);
  dev.load_image(old_image);
  clear_journal(dev, journal);
  const UpdateResult r =
      apply_update_resumable(dev, delta, channel_56k(), journal).update;
  EXPECT_EQ(r.new_image_length, new_image.size());
  EXPECT_TRUE(test::bytes_equal(
      new_image, ByteView(dev.inspect()).first(new_image.size())));
}

}  // namespace
}  // namespace ipd
