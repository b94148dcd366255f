// JournalStorage adapter over a reserved FlashDevice region — the spare
// flash sector the apply journal (apply/apply_journal.hpp) lives in.
// Bounds are enforced here, so the journal can never scribble on the
// image area; power-failure injection applies to journal writes exactly
// like image writes (a checkpoint record can be torn mid-write, which is
// the failure mode the two-slot alternation exists for).
#pragma once

#include <string>

#include "apply/apply_journal.hpp"
#include "core/interval.hpp"
#include "device/flash_device.hpp"

namespace ipd {

/// Reserved storage region for the journal. Must not overlap the image
/// area [0, max(reference, version)).
struct JournalRegion {
  offset_t offset = 0;
  std::size_t size = 0;
};

class FlashJournalStorage final : public JournalStorage {
 public:
  FlashJournalStorage(FlashDevice& device, const JournalRegion& region)
      : device_(device), region_(region) {
    if (!range_fits(region.offset, region.size, device.storage_size())) {
      throw DeviceError("flash journal: region exceeds device storage");
    }
  }

  std::size_t size() const override { return region_.size; }

  void read(offset_t offset, MutByteView out) override {
    check(offset, out.size());
    device_.read(region_.offset + offset, out);
  }

  void write(offset_t offset, ByteView data) override {
    check(offset, data.size());
    device_.write(region_.offset + offset, data);
    bytes_written_ += data.size();
  }

  /// Journal bytes written to flash through this adapter.
  std::uint64_t bytes_written() const noexcept { return bytes_written_; }

 private:
  void check(offset_t offset, std::size_t n) const {
    if (!range_fits(offset, n, region_.size)) {
      throw DeviceError("flash journal: access outside the journal region");
    }
  }

  FlashDevice& device_;
  JournalRegion region_;
  std::uint64_t bytes_written_ = 0;
};

/// An updater's journal and the device RAM it works in: the copy window
/// (undo capacity bytes) and one scratch slot, both charged to the
/// device's arena, over the two slots at the front of `region`. Throws
/// DeviceError, naming `who`, when the region cannot hold two slots or
/// exceeds storage.
struct DeviceJournal {
  DeviceJournal(FlashDevice& device, const JournalRegion& region,
                const ApplyJournalOptions& options, const std::string& who)
      : window(device.ram().allocate(options.undo_capacity)),
        scratch(device.ram().allocate(ApplyJournal::slot_bytes(options))),
        region(slots(device, region, scratch.size(), who)),
        storage(device, this->region),
        journal(storage, scratch.view(), options) {}

  /// Throws DeviceError, naming `who`, unless an image of `extent` bytes
  /// fits the device and stays clear of the journal at `region`.
  static void check_image_area(const FlashDevice& device,
                               const JournalRegion& region,
                               std::uint64_t extent, const std::string& who) {
    if (extent > device.storage_size()) {
      throw DeviceError(who + ": image does not fit storage");
    }
    if (region.offset < extent) {
      throw DeviceError(who + ": journal region overlaps the image area");
    }
  }

  RamArena::Allocation window;
  RamArena::Allocation scratch;
  JournalRegion region;  ///< the two slots
  FlashJournalStorage storage;
  ApplyJournal journal;

 private:
  static JournalRegion slots(const FlashDevice& device,
                             const JournalRegion& region, std::size_t slot,
                             const std::string& who) {
    if (region.size < 2 * slot) {
      throw DeviceError(who + ": journal region smaller than two slots (" +
                        std::to_string(2 * slot) + " bytes)");
    }
    if (!range_fits(region.offset, region.size, device.storage_size())) {
      throw DeviceError(who + ": journal region exceeds storage");
    }
    return JournalRegion{region.offset, 2 * slot};
  }
};

}  // namespace ipd
