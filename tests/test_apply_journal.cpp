#include "apply/apply_journal.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/checksum.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

constexpr ApplyJournalOptions kOpts{/*page_size=*/256, /*undo_capacity=*/512,
                                    /*header_capacity=*/128};

Bytes scratch_for(const ApplyJournalOptions& opts) {
  return Bytes(ApplyJournal::slot_bytes(opts), 0);
}

ApplyRecord sample_record() {
  ApplyRecord rec;
  rec.kind = ApplyRecordKind::kSubstep;
  rec.full_image = false;
  rec.artifact_crc = 0xDEADBEEF;
  rec.artifact_size = 123456;
  rec.meta_from = 3;
  rec.meta_hop = 4;
  rec.meta_target = 9;
  rec.command_index = 42;
  rec.substep = 7;
  rec.artifact_offset = 1000;
  rec.adler_state = 0x12345678;
  rec.undo_to = 2048;
  rec.undo = test::random_bytes(5, 300);
  rec.header = test::random_bytes(6, 64);
  return rec;
}

void expect_same(const ApplyRecord& a, const ApplyRecord& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.full_image, b.full_image);
  EXPECT_EQ(a.artifact_crc, b.artifact_crc);
  EXPECT_EQ(a.artifact_size, b.artifact_size);
  EXPECT_EQ(a.meta_from, b.meta_from);
  EXPECT_EQ(a.meta_hop, b.meta_hop);
  EXPECT_EQ(a.meta_target, b.meta_target);
  EXPECT_EQ(a.command_index, b.command_index);
  EXPECT_EQ(a.substep, b.substep);
  EXPECT_EQ(a.artifact_offset, b.artifact_offset);
  EXPECT_EQ(a.adler_state, b.adler_state);
  EXPECT_EQ(a.undo_to, b.undo_to);
  EXPECT_TRUE(test::bytes_equal(a.undo, b.undo));
  EXPECT_TRUE(test::bytes_equal(a.header, b.header));
}

TEST(MemoryJournalStorage, OffsetThatWrapsPastTwoToThe64Throws) {
  MemoryJournalStorage storage(4096);
  const offset_t wrap = std::numeric_limits<std::uint64_t>::max() - 5;
  Bytes buf(10, 0xAB);
  EXPECT_THROW(storage.write(wrap, buf), DeviceError);
  EXPECT_THROW(storage.read(wrap, buf), DeviceError);
  EXPECT_TRUE(test::bytes_equal(storage.bytes(), Bytes(4096, 0)));
}

TEST(ApplyJournal, SlotBytesIsPageAlignedAndCoversCapacities) {
  const std::size_t slot = ApplyJournal::slot_bytes(kOpts);
  EXPECT_EQ(slot % kOpts.page_size, 0u);
  EXPECT_GE(slot, kOpts.undo_capacity + kOpts.header_capacity);
}

TEST(ApplyJournal, RoundTripsAllFieldsAcrossReconstruction) {
  MemoryJournalStorage storage(2 * ApplyJournal::slot_bytes(kOpts));
  Bytes scratch = scratch_for(kOpts);
  {
    ApplyJournal aj(storage, MutByteView(scratch), kOpts);
    EXPECT_FALSE(aj.newest().has_value());
    aj.append(sample_record());
  }
  // A fresh journal (the "rebooted device") scans the same storage.
  ApplyJournal aj(storage, MutByteView(scratch), kOpts);
  ASSERT_TRUE(aj.newest().has_value());
  expect_same(sample_record(), *aj.newest());
  EXPECT_EQ(aj.newest()->seq, 0u);
}

TEST(ApplyJournal, AlternatesSlotsAndKeepsNewest) {
  MemoryJournalStorage storage(2 * ApplyJournal::slot_bytes(kOpts));
  Bytes scratch = scratch_for(kOpts);
  ApplyJournal aj(storage, MutByteView(scratch), kOpts);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ApplyRecord rec = sample_record();
    rec.command_index = i;
    rec.undo.clear();
    aj.append(std::move(rec));
  }
  EXPECT_EQ(aj.records_written(), 5u);
  ApplyJournal again(storage, MutByteView(scratch), kOpts);
  ASSERT_TRUE(again.newest().has_value());
  EXPECT_EQ(again.newest()->seq, 4u);
  EXPECT_EQ(again.newest()->command_index, 4u);
}

TEST(ApplyJournal, TornNewestSlotFallsBackToPrevious) {
  MemoryJournalStorage storage(2 * ApplyJournal::slot_bytes(kOpts));
  Bytes scratch = scratch_for(kOpts);
  const std::size_t slot = ApplyJournal::slot_bytes(kOpts);
  ApplyJournal aj(storage, MutByteView(scratch), kOpts);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ApplyRecord rec = sample_record();
    rec.command_index = i;
    aj.append(std::move(rec));
  }
  // Record seq 3 lives in slot 1; tear its tail (CRC no longer verifies).
  for (std::size_t b = slot + slot / 2; b < 2 * slot; ++b) {
    storage.bytes()[b] = 0;
  }
  ApplyJournal recovered(storage, MutByteView(scratch), kOpts);
  ASSERT_TRUE(recovered.newest().has_value());
  EXPECT_EQ(recovered.newest()->seq, 2u);
  EXPECT_EQ(recovered.newest()->command_index, 2u);
  // The next append must continue past the torn record's sequence so it
  // lands in the torn slot, never over the only intact record.
  ApplyRecord rec = sample_record();
  rec.command_index = 99;
  recovered.append(std::move(rec));
  ApplyJournal after(storage, MutByteView(scratch), kOpts);
  ASSERT_TRUE(after.newest().has_value());
  EXPECT_EQ(after.newest()->command_index, 99u);
  EXPECT_EQ(after.newest()->seq % 2, 1u) << "append must reuse the torn slot";
}

std::string hex(ByteView bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

// On-flash byte compatibility: each record's padded slot image, as the
// ByteWriter serializer wrote it before records were serialized straight
// into the scratch buffer. Storage starts as non-record garbage, so the
// scratch holds garbage after the recovery scan, and the records shrink
// and grow: every padding byte must still come out zero.
TEST(ApplyJournal, SerializesGoldenBytes) {
  constexpr ApplyJournalOptions opts{/*page_size=*/16, /*undo_capacity=*/32,
                                     /*header_capacity=*/32};
  const std::size_t slot = ApplyJournal::slot_bytes(opts);
  MemoryJournalStorage storage(2 * slot);
  std::fill(storage.bytes().begin(), storage.bytes().end(), 0x5A);
  Bytes scratch(slot, 0xC3);
  ApplyJournal aj(storage, MutByteView(scratch), opts);
  ASSERT_FALSE(aj.newest().has_value());
  const auto slot_image = [&](std::uint64_t seq, std::size_t n) {
    return hex(ByteView(storage.bytes()).subspan((seq % 2) * slot, n));
  };

  ApplyRecordFields substep;
  substep.kind = ApplyRecordKind::kSubstep;
  substep.artifact_crc = 0xDEADBEEF;
  substep.artifact_size = 123456;
  substep.meta_from = 3;
  substep.meta_hop = 4;
  substep.meta_target = 9;
  substep.command_index = 42;
  substep.substep = 7;
  substep.artifact_offset = 1000;
  substep.adler_state = 0x12345678;
  substep.undo_to = 2048;
  Bytes undo;
  for (int i = 0; i < 20; ++i) undo.push_back(static_cast<std::uint8_t>(0xA0 + i));
  aj.append(substep, undo, {});
  EXPECT_EQ(slot_image(0, 112),
            "4950414a00000000000000000200efbeadde40e2010000000000030000000400"
            "0000090000002a000000000000000700000000000000e8030000000000007856"
            "341200080000000000001400000000000000a0a1a2a3a4a5a6a7a8a9aaabacad"
            "aeafb0b1b2b3de6e5b50000000000000");

  ApplyRecordFields checkpoint;
  checkpoint.kind = ApplyRecordKind::kCheckpoint;
  checkpoint.full_image = true;
  checkpoint.artifact_crc = 0x01020304;
  checkpoint.artifact_size = 77;
  checkpoint.command_index = 5;
  checkpoint.artifact_offset = 64;
  checkpoint.adler_state = 0x0BADF00D;
  aj.append(checkpoint, {}, {});
  EXPECT_EQ(slot_image(1, 96),
            "4950414a01000000000000000101040302014d00000000000000000000000000"
            "0000000000000500000000000000000000000000000040000000000000000df0"
            "ad0b0000000000000000000000000000000015d13aea00000000000000000000");

  ApplyRecordFields done;
  done.kind = ApplyRecordKind::kDone;
  done.artifact_crc = 0xCAFEBABE;
  done.artifact_size = 4096;
  done.meta_from = 1;
  done.meta_hop = 2;
  done.meta_target = 2;
  done.command_index = 300;
  done.artifact_offset = 4096;
  done.adler_state = 0x55667788;
  Bytes header;
  for (int i = 0; i < 16; ++i) header.push_back(static_cast<std::uint8_t>(0x30 + i));
  aj.append(done, {}, header);
  EXPECT_EQ(slot_image(2, 112),
            "4950414a02000000000000000300bebafeca0010000000000000010000000200"
            "0000020000002c01000000000000000000000000000000100000000000008877"
            "665500000000000000000000000010000000303132333435363738393a3b3c3d"
            "3e3feacc943d00000000000000000000");

  // The owning overload writes the same bytes.
  ApplyRecord owned;
  static_cast<ApplyRecordFields&>(owned) = checkpoint;
  aj.append(owned);
  EXPECT_EQ(slot_image(3, 96),
            "4950414a03000000000000000101040302014d00000000000000000000000000"
            "0000000000000500000000000000000000000000000040000000000000000df0"
            "ad0b000000000000000000000000000000005f45b86900000000000000000000");

  // A borrowed append leaves newest() with the fields and no payloads.
  aj.append(substep, undo, {});
  ASSERT_TRUE(aj.newest().has_value());
  EXPECT_EQ(aj.newest()->seq, 4u);
  EXPECT_EQ(aj.newest()->command_index, 42u);
  EXPECT_TRUE(aj.newest()->undo.empty());
  ApplyJournal reopened(storage, MutByteView(scratch), opts);
  ASSERT_TRUE(reopened.newest().has_value());
  EXPECT_EQ(reopened.newest()->seq, 4u);
  EXPECT_TRUE(test::bytes_equal(reopened.newest()->undo, undo));
}

TEST(ApplyJournal, SingleBitFlipInvalidatesARecord) {
  MemoryJournalStorage storage(2 * ApplyJournal::slot_bytes(kOpts));
  Bytes scratch = scratch_for(kOpts);
  {
    ApplyJournal aj(storage, MutByteView(scratch), kOpts);
    aj.append(sample_record());
  }
  storage.bytes()[40] ^= 0x01;
  ApplyJournal aj(storage, MutByteView(scratch), kOpts);
  EXPECT_FALSE(aj.newest().has_value());
}

TEST(ApplyJournal, NewestForFiltersByArtifactIdentity) {
  MemoryJournalStorage storage(2 * ApplyJournal::slot_bytes(kOpts));
  Bytes scratch = scratch_for(kOpts);
  ApplyJournal aj(storage, MutByteView(scratch), kOpts);
  aj.append(sample_record());
  const ApplyRecord rec = sample_record();
  EXPECT_TRUE(aj.newest_for(rec.artifact_crc, rec.artifact_size).has_value());
  EXPECT_FALSE(aj.newest_for(rec.artifact_crc + 1, rec.artifact_size));
  EXPECT_FALSE(aj.newest_for(rec.artifact_crc, rec.artifact_size + 1));
}

TEST(ApplyJournal, ClearForgetsEverythingAndRestartsSequence) {
  MemoryJournalStorage storage(2 * ApplyJournal::slot_bytes(kOpts));
  Bytes scratch = scratch_for(kOpts);
  ApplyJournal aj(storage, MutByteView(scratch), kOpts);
  aj.append(sample_record());
  aj.append(sample_record());
  aj.clear();
  EXPECT_FALSE(aj.newest().has_value());
  aj.append(sample_record());
  EXPECT_EQ(aj.newest()->seq, 0u);
  ApplyJournal again(storage, MutByteView(scratch), kOpts);
  ASSERT_TRUE(again.newest().has_value());
  EXPECT_EQ(again.newest()->seq, 0u);
}

TEST(ApplyJournal, RejectsOverCapacityPayloads) {
  MemoryJournalStorage storage(2 * ApplyJournal::slot_bytes(kOpts));
  Bytes scratch = scratch_for(kOpts);
  ApplyJournal aj(storage, MutByteView(scratch), kOpts);
  ApplyRecord big_undo = sample_record();
  big_undo.undo = Bytes(kOpts.undo_capacity + 1, 0xAA);
  EXPECT_THROW(aj.append(std::move(big_undo)), ValidationError);
  ApplyRecord big_header = sample_record();
  big_header.header = Bytes(kOpts.header_capacity + 1, 0xBB);
  EXPECT_THROW(aj.append(std::move(big_header)), ValidationError);
}

TEST(ApplyJournal, RejectsUndersizedScratchAndStorage) {
  const std::size_t slot = ApplyJournal::slot_bytes(kOpts);
  {
    MemoryJournalStorage storage(2 * slot);
    Bytes small(slot - 1, 0);
    EXPECT_THROW(ApplyJournal(storage, MutByteView(small), kOpts),
                 DeviceError);
  }
  {
    MemoryJournalStorage storage(2 * slot - 1);
    Bytes scratch = scratch_for(kOpts);
    EXPECT_THROW(ApplyJournal(storage, MutByteView(scratch), kOpts),
                 DeviceError);
  }
}

TEST(ApplyJournal, StaleRecordSurvivesOneAppendThenRetires) {
  // A fresh artifact must not destroy the previous artifact's record
  // with its FIRST append: until the new record is durable, the old one
  // is the device's only memory. Slot alternation gives exactly that.
  MemoryJournalStorage storage(2 * ApplyJournal::slot_bytes(kOpts));
  Bytes scratch = scratch_for(kOpts);
  ApplyJournal aj(storage, MutByteView(scratch), kOpts);
  ApplyRecord old = sample_record();
  old.kind = ApplyRecordKind::kDone;
  aj.append(std::move(old));  // seq 0 -> slot 0

  ApplyJournal next(storage, MutByteView(scratch), kOpts);
  ApplyRecord fresh = sample_record();
  fresh.artifact_crc = 0x0BADF00D;  // different artifact
  next.append(std::move(fresh));  // seq 1 -> slot 1, old record intact

  ApplyJournal check(storage, MutByteView(scratch), kOpts);
  // Newest is the fresh artifact...
  ASSERT_TRUE(check.newest().has_value());
  EXPECT_EQ(check.newest()->artifact_crc, 0x0BADF00Du);
  // ...and if that first append had been torn by a power cut, recovery
  // would still find the old artifact's done record in the other slot.
  const std::size_t slot = ApplyJournal::slot_bytes(kOpts);
  for (std::size_t b = slot; b < 2 * slot; ++b) {
    storage.bytes()[b] = 0xFF;  // tear the fresh record (seq 1, slot 1)
  }
  ApplyJournal fallback(storage, MutByteView(scratch), kOpts);
  ASSERT_TRUE(fallback.newest().has_value());
  EXPECT_EQ(fallback.newest()->kind, ApplyRecordKind::kDone);
  EXPECT_EQ(fallback.newest()->artifact_crc, sample_record().artifact_crc);
}

}  // namespace
}  // namespace ipd
