#include "device/resumable_updater.hpp"

#include <algorithm>

#include "core/checksum.hpp"
#include "delta/codec.hpp"
#include "device/stream_updater.hpp"

namespace ipd {

void clear_journal(FlashDevice& device, const JournalRegion& journal) {
  // Invalidate both slots of the largest journal that could live here:
  // a record's magic sits at its slot's first byte, so zeroing the first
  // page of each half kills any record regardless of the layout in use.
  const std::size_t page = std::max<std::size_t>(device.page_size(), 4);
  const std::size_t half = journal.size / 2;
  const Bytes zeros(std::min(page, journal.size), 0);
  device.write(journal.offset, zeros);
  if (half >= zeros.size()) {
    device.write(journal.offset + half, zeros);
  }
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
  // bytes (or the decompressed payload).
  RamArena::Allocation staged = device.ram().allocate(delta.size());
  std::copy(delta.begin(), delta.end(), staged.data());
  const ParsedDelta parsed = parse_delta(staged.view());
  const DeltaHeader& header = parsed.header;
  if (!header.in_place) {
    throw ValidationError(
        "resumable updater: delta is not marked in-place reconstructible");
  }
  // No header capacity: the staged path re-stages the whole delta.
  DeviceJournal dj(device, journal,
                   ApplyJournalOptions{device.page_size(),
                                       options.window_bytes, 0},
                   "resumable updater");
  const ApplyRecordFields identity{.artifact_crc = crc32c(delta),
                                   .artifact_size = delta.size()};
  JournaledExecutor executor(device, dj, header, identity, {},
                             StreamUpdaterOptions{}.checkpoint_commands,
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
  result.update.storage_pages_written =
      device.pages_touched_write() - pages_before;
  result.update.crc_verified = true;
  result.update.ram_high_water = device.ram().high_water();
  return result;
}

}  // namespace ipd
