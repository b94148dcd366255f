// E8 — the paper's §1 motivation, quantified: time to update software on
// a network device over low-bandwidth channels, comparing
//
//   * shipping the full new image (what a device without delta support
//     does),
//   * shipping an ordinary delta (needs 2x storage on the device —
//     impossible on the constrained device, shown for reference),
//   * shipping an in-place delta (the paper's contribution: delta-sized
//     download, 1x storage, RAM = delta + window).
//
// The executed row runs the journaled updater, the only device apply:
// the paper's device plus a power-cut journal behind the image, and the
// conflict set (V/8) and one journal slot in RAM. Exits 1 unless flash
// ends holding v2.
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "device/resumable_updater.hpp"
#include "ipdelta.hpp"

namespace {

using namespace ipd;

}  // namespace

int main() {
  Rng rng(0x0E8);
  const length_t image_size = 256 << 10;
  const Bytes v1 = generate_file(rng, image_size, FileProfile::kBinary);
  MutationModel model;
  model.max_edit_fraction = 0.02;
  const Bytes v2 = mutate(v1, rng, 48, model);

  const Bytes plain =
      Pipeline({.format = kPaperSequential}).build_delta(v1, v2).delta;
  const Bytes inplace = Pipeline().build_inplace(v1, v2).delta;

  std::printf(
      "Software-update time over constrained channels (§1 scenario)\n"
      "firmware: v1 %zu B -> v2 %zu B; plain delta %zu B; in-place delta "
      "%zu B\n",
      v1.size(), v2.size(), plain.size(), inplace.size());
  bench::rule('=');

  std::printf("%-14s %12s %12s %12s %10s\n", "channel", "full image",
              "plain delta", "in-place", "speedup");
  for (const ChannelModel& ch :
       {channel_9600(), channel_28k(), channel_56k(), channel_isdn(),
        channel_t1()}) {
    const double full = ch.transfer_seconds(v2.size());
    const double d_plain = ch.transfer_seconds(plain.size());
    const double d_inplace = ch.transfer_seconds(inplace.size());
    std::printf("%-14s %10.1f s %10.1f s %10.1f s %9.1fx\n", ch.name.c_str(),
                full, d_plain, d_inplace, full / d_inplace);
  }

  bench::rule();
  std::printf("device resource requirements per method:\n");
  std::printf("  %-14s %16s %16s\n", "method", "storage needed", "RAM needed");
  std::printf("  %-14s %13zu KiB %16s\n", "full image",
              2 * v2.size() >> 10, "download buffer");
  // A device stages the delta and holds its parsed command table.
  const auto staged = [](const Bytes& delta) {
    return delta.size() + parse_delta(delta).table_bytes();
  };
  std::printf("  %-14s %13zu KiB %13zu KiB\n", "plain delta",
              (v1.size() + v2.size()) >> 10, staged(plain) >> 10);
  std::printf("  %-14s %13zu KiB %13zu KiB\n", "in-place",
              std::max(v1.size(), v2.size()) >> 10,
              (staged(inplace) + 4096) >> 10);

  bench::rule();
  // Prove the in-place path runs on a device with 1x image storage. The
  // journal starts at the first page past both versions (v2 outgrows v1).
  const std::size_t page = 4096;
  const std::size_t image_area =
      (std::max(v1.size(), v2.size()) + page - 1) / page * page;
  const JournalRegion journal{image_area, 16 << 10};
  const std::size_t window = UpdaterOptions{}.window_bytes;
  // RAM: the paper's device, plus one journal slot and the conflict set.
  const std::size_t ram_budget =
      staged(inplace) + window +
      ApplyJournal::slot_bytes(updater_journal_options(page)) +
      WrittenBytes::storage_bytes(v2.size());
  FlashDevice device(image_area + journal.size, page, ram_budget);
  device.load_image(v1);
  clear_journal(device, journal);
  device.reset_stats();
  const ResumableUpdateResult result =
      apply_update_resumable(device, inplace, channel_28k(), journal);
  const bool flashed =
      std::equal(v2.begin(), v2.end(), device.inspect().begin());
  std::printf(
      "in-place update executed on a simulated journaled device: CRC %s, "
      "flash %s v2, download %.1f s over %s\n",
      result.update.crc_verified ? "ok" : "FAIL",
      flashed ? "holds" : "DOES NOT hold", result.update.download_seconds,
      channel_28k().name.c_str());
  std::printf("  %-18s %10s %12s %14s\n", "device", "storage", "RAM",
              "flash written");
  std::printf("  %-18s %6zu KiB %10zu B %12zu B  (analytic: the version, "
              "once)\n",
              "paper (no journal)", std::max(v1.size(), v2.size()) >> 10,
              staged(inplace) + window, v2.size());
  std::printf("  %-18s %6zu KiB %10zu B %12llu B  (image %llu + journal "
              "%llu, %zu records)\n",
              "journaled", (image_area + journal.size) >> 10,
              result.update.ram_high_water,
              static_cast<unsigned long long>(
                  result.update.storage_bytes_written),
              static_cast<unsigned long long>(result.image_bytes_written),
              static_cast<unsigned long long>(result.journal_bytes_written),
              result.journal_records);

  std::printf(
      "\nexpected shape: delta download is several times faster than the\n"
      "full image (paper: 4-10x compression); in-place costs only a small\n"
      "constant over the plain delta while halving device storage.\n");
  return result.update.crc_verified && flashed ? 0 : 1;
}
