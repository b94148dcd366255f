#include "device/resumable_updater.hpp"

#include <algorithm>

#include "core/checksum.hpp"
#include "delta/codec.hpp"

namespace ipd {

void clear_journal(FlashDevice& device, const JournalRegion& journal) {
  // Every layout puts its slots at the front of the region, but their
  // size depends on the page size, the window and the header capacity:
  // zeroing the whole region kills every record of every layout.
  device.write(journal.offset, Bytes(journal.size, 0));
}

ResumableUpdateResult apply_update_resumable(FlashDevice& device,
                                             ByteView delta,
                                             const ChannelModel& channel,
                                             const JournalRegion& journal,
                                             const UpdaterOptions& options) {
  ResumableUpdateResult result;
  result.update.delta_bytes = delta.size();
  result.update.download_seconds = channel.transfer_seconds(delta.size());

  // Stage the delta and parse it: adds stay borrowed from the staged
  // bytes (or the decompressed payload), and the table is charged to the
  // device RAM too.
  RamArena::Allocation staged = device.ram().allocate(delta.size());
  std::copy(delta.begin(), delta.end(), staged.data());
  const ParsedDelta parsed = parse_delta(staged.view());
  const RamArena::Charge table(device.ram(), parsed.table_bytes());
  const DeltaHeader& header = parsed.header;
  if (!header.in_place) {
    throw ValidationError(
        "resumable updater: delta is not marked in-place reconstructible");
  }
  DeviceJournal dj(device, journal,
                   updater_journal_options(device.page_size(), options),
                   "resumable updater");
  const ApplyRecordFields identity{.artifact_crc = crc32c(delta),
                                   .artifact_size = delta.size()};
  JournaledExecutor executor(device, dj, header, identity, {},
                             options.checkpoint_commands,
                             [](std::uint64_t) { return ResumePoint{}; });

  // Recovery: resume from the newest valid record for this delta. A
  // record for a different artifact is someone else's history — leave it
  // alone (seq continuation keeps our appends off its slot until ours
  // outnumber it) and start from command 0.
  const std::size_t count = parsed.commands.size();
  const std::optional<ApplyRecord> rec =
      dj.journal.newest_for(identity.artifact_crc, identity.artifact_size);
  const bool done = rec && rec->kind == ApplyRecordKind::kDone;
  if (rec && !done) {
    if (rec->command_index > count) {
      throw DeviceError("resumable updater: journal step out of range");
    }
    executor.resume(*rec);
  }
  result.resumed = rec.has_value();
  result.steps_replayed =
      done ? count : static_cast<std::size_t>(executor.next_command());

  const std::uint64_t pages_before = device.pages_touched_write();
  const std::uint64_t bytes_before = device.bytes_written();
  const std::uint64_t journal_before = dj.storage.bytes_written();
  if (done) {
    executor.verify_version();
  } else {
    if (!rec) executor.begin(ResumePoint{});
    for (std::size_t k = result.steps_replayed; k < count; ++k) {
      executor.execute(parsed.commands[k], 0);
    }
    executor.finish(ResumePoint{});
  }
  result.journal_records = static_cast<std::size_t>(dj.journal.records_written());
  result.update.new_image_length = header.version_length;
  result.update.storage_bytes_written = device.bytes_written() - bytes_before;
  result.journal_bytes_written = dj.storage.bytes_written() - journal_before;
  result.image_bytes_written =
      result.update.storage_bytes_written - result.journal_bytes_written;
  result.closes = executor.closes();
  result.update.storage_pages_written =
      device.pages_touched_write() - pages_before;
  result.update.crc_verified = true;
  result.update.ram_high_water = device.ram().high_water();
  return result;
}

}  // namespace ipd
