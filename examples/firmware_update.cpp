// firmware_update — the paper's motivating scenario end to end (§1).
//
// A set-top-box-class device holds firmware v1 in flash, has a few KiB of
// RAM, and hangs off a slow link. The server diffs v1 -> v2, converts the
// delta for in-place reconstruction, and ships it; the device rebuilds v2
// in the flash pages v1 occupies, inside its RAM budget, under a power-cut
// journal kept in a spare flash region behind the image.
//
// Run:  ./examples/firmware_update
#include <algorithm>
#include <cstdio>

#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "device/resumable_updater.hpp"
#include "ipdelta.hpp"

int main() {
  using namespace ipd;

  // -- build a firmware pair ---------------------------------------------
  Rng rng(0xF1A5);
  const length_t image_size = 192 << 10;  // 192 KiB firmware
  const Bytes v1 = generate_file(rng, image_size, FileProfile::kBinary);
  MutationModel model;
  model.max_edit_fraction = 0.03;
  const Bytes v2 = mutate(v1, rng, 40, model);  // one release worth of edits

  std::printf("firmware v1: %zu bytes, v2: %zu bytes\n", v1.size(),
              v2.size());

  // -- server side: make the in-place delta -------------------------------
  BuildResult built = Pipeline().build_inplace(v1, v2);
  const ConvertReport& report = built.report;
  const Bytes& delta = built.delta;
  std::printf(
      "in-place delta: %zu bytes (%.1f%% of v2)\n"
      "  conversion: %zu/%zu copies re-encoded as adds, %zu cycles broken, "
      "%llu bytes of compression given up\n",
      delta.size(), 100.0 * static_cast<double>(delta.size()) /
                        static_cast<double>(v2.size()),
      report.copies_converted, report.copies_in, report.cycles_found,
      static_cast<unsigned long long>(report.conversion_cost));

  // -- how long would the download take? ----------------------------------
  std::printf("\n%-14s %14s %14s %9s\n", "channel", "full image", "delta",
              "speedup");
  for (const ChannelModel& ch :
       {channel_9600(), channel_28k(), channel_56k(), channel_isdn(),
        channel_t1()}) {
    const double full = ch.transfer_seconds(v2.size());
    const double inc = ch.transfer_seconds(delta.size());
    std::printf("%-14s %12.1f s %12.1f s %8.1fx\n", ch.name.c_str(), full,
                inc, full / inc);
  }

  // -- device side: apply inside the RAM budget ----------------------------
  // 256 KiB of firmware flash, then a 16 KiB journal region. The device
  // stages the delta and holds its parsed command table, the copy window,
  // one journal slot and the conflict set (a bit per version byte).
  const std::size_t page = 4096;
  const JournalRegion journal{256 << 10, 16 << 10};
  UpdaterOptions updater;
  updater.window_bytes = 4096;
  const std::size_t slot = ApplyJournal::slot_bytes(
      ApplyJournalOptions{page, updater.window_bytes, 0});
  const std::size_t ram_budget = delta.size() +
                                 parse_delta(delta).table_bytes() +
                                 updater.window_bytes + slot +
                                 WrittenBytes::storage_bytes(v2.size());
  FlashDevice device(journal.offset + journal.size, page, ram_budget);
  device.load_image(v1);
  clear_journal(device, journal);
  device.reset_stats();

  const ResumableUpdateResult result =
      apply_update_resumable(device, delta, channel_28k(), journal, updater);

  std::printf(
      "\ndevice update: new image %llu bytes, CRC %s\n"
      "  RAM high-water: %zu bytes (budget %zu)\n"
      "  flash: %llu bytes written (image %llu + journal %llu in %zu "
      "records) across %llu page touches\n"
      "  download over %s: %.1f s\n",
      static_cast<unsigned long long>(result.update.new_image_length),
      result.update.crc_verified ? "verified" : "NOT verified",
      result.update.ram_high_water, ram_budget,
      static_cast<unsigned long long>(result.update.storage_bytes_written),
      static_cast<unsigned long long>(result.image_bytes_written),
      static_cast<unsigned long long>(result.journal_bytes_written),
      result.journal_records,
      static_cast<unsigned long long>(result.update.storage_pages_written),
      channel_28k().name.c_str(), result.update.download_seconds);

  const bool ok =
      std::equal(v2.begin(), v2.end(), device.inspect().begin());
  std::printf("flash contents %s firmware v2\n",
              ok ? "MATCH" : "DO NOT MATCH");
  return ok ? 0 : 1;
}
