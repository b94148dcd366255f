#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "device/channel.hpp"
#include "device/flash_device.hpp"
#include "device/flash_journal.hpp"
#include "device/updater.hpp"
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
  // A firmware-style pair: 48 KiB image with scattered edits.
  void SetUp() override {
    Rng rng(11);
    old_image_ = generate_file(rng, 48 << 10, FileProfile::kBinary);
    new_image_ = mutate(old_image_, rng, 25);
    delta_ = Pipeline().build_inplace(old_image_, new_image_).delta;
  }

  Bytes old_image_;
  Bytes new_image_;
  Bytes delta_;
};

TEST_F(UpdaterTest, EndToEndUpdateSucceeds) {
  FlashDevice dev(64 << 10, 4096, 64 << 10);
  dev.load_image(old_image_);
  const UpdateResult r = apply_update(dev, delta_, channel_28k());
  EXPECT_EQ(r.new_image_length, new_image_.size());
  EXPECT_TRUE(r.crc_verified);
  EXPECT_GT(r.download_seconds, 0.0);
  EXPECT_TRUE(test::bytes_equal(
      new_image_, ByteView(dev.inspect()).first(new_image_.size())));
  // RAM never exceeded delta + window (plus nothing hidden).
  EXPECT_LE(r.ram_high_water, delta_.size() + 4096);
}

TEST_F(UpdaterTest, RamBudgetIsEnforced) {
  // Budget too small to stage the delta: must throw, not swap to hidden
  // memory.
  FlashDevice dev(64 << 10, 4096, delta_.size() / 2);
  dev.load_image(old_image_);
  EXPECT_THROW(apply_update(dev, delta_, channel_28k()), DeviceError);
}

TEST_F(UpdaterTest, TinyWindowStillCorrect) {
  FlashDevice dev(64 << 10, 4096, 64 << 10);
  dev.load_image(old_image_);
  UpdaterOptions options;
  options.window_bytes = 64;  // pathologically small working buffer
  const UpdateResult r = apply_update(dev, delta_, channel_28k(), options);
  EXPECT_TRUE(r.crc_verified);
  EXPECT_TRUE(test::bytes_equal(
      new_image_, ByteView(dev.inspect()).first(new_image_.size())));
}

TEST_F(UpdaterTest, WrongBaseImageFailsCrc) {
  FlashDevice dev(64 << 10, 4096, 64 << 10);
  Bytes tampered = old_image_;
  tampered[1234] ^= 0xFF;
  dev.load_image(tampered);
  EXPECT_THROW(apply_update(dev, delta_, channel_28k()), FormatError);
}

TEST_F(UpdaterTest, NonInplaceDeltaRejected) {
  const Bytes plain = Pipeline({.format = kPaperExplicit}).build_delta(old_image_, new_image_).delta;
  FlashDevice dev(64 << 10, 4096, 64 << 10);
  dev.load_image(old_image_);
  // A delta that merely *happens* to be conflict-free would carry the
  // flag; this one was not converted and (with these edits) is unsafe.
  const DeltaFile parsed = deserialize_delta(plain);
  if (!parsed.in_place) {
    EXPECT_THROW(apply_update(dev, plain, channel_28k()), ValidationError);
  }
}

TEST_F(UpdaterTest, ImageTooLargeForStorage) {
  FlashDevice dev(8 << 10, 4096, 64 << 10);
  EXPECT_THROW(apply_update(dev, delta_, channel_28k()), DeviceError);
}

TEST(Updater, GrowingImageUpdatesInPlace) {
  // New version larger than the old one — the buffer slack case.
  Rng rng(21);
  const Bytes old_image = generate_file(rng, 10 << 10, FileProfile::kBinary);
  Bytes new_image = old_image;
  const Bytes extra = test::random_bytes(5, 4 << 10);
  new_image.insert(new_image.end(), extra.begin(), extra.end());

  const Bytes delta = Pipeline().build_inplace(old_image, new_image).delta;
  FlashDevice dev(16 << 10, 1024, 64 << 10);
  dev.load_image(old_image);
  const UpdateResult r = apply_update(dev, delta, channel_56k());
  EXPECT_EQ(r.new_image_length, new_image.size());
  EXPECT_TRUE(test::bytes_equal(
      new_image, ByteView(dev.inspect()).first(new_image.size())));
}

}  // namespace
}  // namespace ipd
