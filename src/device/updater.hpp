// The on-device updater: receives an in-place delta over a channel and
// rebuilds the new software version directly in device storage.
//
// This is the paper's §1 scenario executed literally. RAM use is bounded
// and enforced by the device's RamArena: the delta itself (devices stage
// the downloaded delta in RAM — it is small) plus one fixed copy window.
// Copies whose read and write ranges overlap are performed window-by-
// window, left-to-right when f >= t and right-to-left otherwise — the
// "read/write buffer of any size" generalisation of §4.1.
#pragma once

#include "delta/command.hpp"
#include "device/channel.hpp"
#include "device/flash_device.hpp"

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

/// Deliver `delta` (a serialized in-place delta file) over `channel` and
/// apply it to `device` storage in place. The device's current image must
/// be the delta's reference version. Throws:
///  * DeviceError  — RAM budget exceeded or storage bounds violated;
///  * Validation/FormatError — malformed delta, wrong flags, CRC mismatch.
UpdateResult apply_update(FlashDevice& device, ByteView delta,
                          const ChannelModel& channel,
                          const UpdaterOptions& options = {});

/// Storage-to-storage copy through a bounded RAM window, ordered so
/// overlapping source/destination never reads an overwritten byte
/// (§4.1's buffer-granular copy). Shared by the plain updater and the
/// journaled executor; exposed for tests.
void device_windowed_copy(FlashDevice& device, MutByteView window,
                          offset_t from, offset_t to, length_t length);

/// CRC-32C of storage bytes [0, length), read back through `window`:
/// how the updaters check a reconstruction before committing it.
std::uint32_t storage_crc(FlashDevice& device, MutByteView window,
                          length_t length);

}  // namespace ipd
