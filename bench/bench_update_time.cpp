// E8 — the paper's §1 motivation, quantified: time to update software on
// a network device over low-bandwidth channels, comparing
//
//   * shipping the full new image (what a device without delta support
//     does),
//   * shipping an ordinary delta (needs 2x storage on the device —
//     impossible on the constrained device, shown for reference),
//   * shipping an in-place delta (the paper's contribution: delta-sized
//     download, 1x storage, RAM = delta + window).
#include <cstdio>

#include "bench_util.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "device/updater.hpp"
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
  // Prove the in-place path actually runs on a device with 1x storage.
  FlashDevice device(image_size + (16 << 10), 4096,
                     staged(inplace) + (8 << 10));
  device.load_image(v1);
  const UpdateResult result = apply_update(device, inplace, channel_28k());
  std::printf(
      "in-place update executed on simulated device: CRC %s, RAM "
      "high-water %zu B, %llu flash pages written, download %.1f s over "
      "%s\n",
      result.crc_verified ? "ok" : "FAIL", result.ram_high_water,
      static_cast<unsigned long long>(result.storage_pages_written),
      result.download_seconds, channel_28k().name.c_str());

  std::printf(
      "\nexpected shape: delta download is several times faster than the\n"
      "full image (paper: 4-10x compression); in-place costs only a small\n"
      "constant over the plain delta while halving device storage.\n");
  return result.crc_verified ? 0 : 1;
}
