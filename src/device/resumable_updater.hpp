// Power-failure-tolerant staged in-place update.
//
// In-place reconstruction destroys the only copy of the old version as it
// runs (§1); if power fails mid-update the device holds neither version.
// The staged updater downloads the whole delta into device RAM, decodes
// it with parse_delta() (so every container check — LZSS, implicit
// offsets, exact tiling — runs, and the table is charged to device RAM,
// before the first flash write), and feeds
// the command table to the journaled executor the streaming updater also
// runs (device/stream_updater.hpp): replay-idempotent checkpoint batches
// and journaled sub-steps in a two-slot journal. Recovery is automatic:
// if the journal holds a valid record for this delta (matched by
// checksum), the updater restores its undo and resumes at the recorded
// command and sub-step. The staged journal carries no container header
// (header_capacity = 0), so its slot layout depends only on the page size
// and the window (resumable_journal_options); see docs/DEVICE.md for the
// on-flash layout.
#pragma once

#include "device/channel.hpp"
#include "device/flash_device.hpp"
#include "device/flash_journal.hpp"
#include "device/stream_updater.hpp"

namespace ipd {

struct UpdaterOptions {
  /// Size of the bounded copy window (device working buffer).
  std::size_t window_bytes = 4096;
};

struct UpdateResult {
  length_t new_image_length = 0;
  double download_seconds = 0;       ///< channel time for the delta
  std::size_t delta_bytes = 0;
  std::size_t ram_high_water = 0;    ///< peak device RAM during update
  std::uint64_t storage_bytes_written = 0;
  std::uint64_t storage_pages_written = 0;
  /// The version CRC read back from storage matched; always true on
  /// return, since a mismatch throws.
  bool crc_verified = false;
};

struct ResumableUpdateResult {
  UpdateResult update;
  bool resumed = false;  ///< recovery path was taken
  /// Command index this run resumed at: 0 on a fresh start, the command
  /// count when the journal already held the done record.
  std::size_t steps_replayed = 0;
  std::size_t journal_records = 0;
  /// update.storage_bytes_written split into version-image bytes and
  /// apply-journal bytes.
  std::uint64_t image_bytes_written = 0;
  std::uint64_t journal_bytes_written = 0;
  /// Why this run closed each replay batch: with the write-ahead
  /// checkpoint of a fresh start and the done record, they account for
  /// every journal record written.
  BatchCloses closes;
};

/// Apply `delta` (a serialized in-place delta) to `device` with journaled
/// crash tolerance. Call again with the same arguments after a power
/// failure to resume. Throws FlashDevice::PowerFailure through (that is
/// the simulated crash), DeviceError for resource violations, and
/// Format/ValidationError for bad deltas.
ResumableUpdateResult apply_update_resumable(
    FlashDevice& device, ByteView delta, const ChannelModel& channel,
    const JournalRegion& journal, const UpdaterOptions& options = {});

/// The apply-journal layout apply_update_resumable uses on `device` with
/// `options`: anything that reads its journal opens it with this.
ApplyJournalOptions resumable_journal_options(
    const FlashDevice& device, const UpdaterOptions& options = {});

/// Erase any journal state in `journal` (provisioning, test reset): one
/// write of zeros over the whole region, whatever layout last used it.
/// NOT part of the normal hop sequence: a completed hop's done record is
/// the device's only durable memory of the release it now runs.
void clear_journal(FlashDevice& device, const JournalRegion& journal);

}  // namespace ipd
