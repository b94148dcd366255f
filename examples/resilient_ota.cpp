// resilient_ota — the failure modes the basic flow ignores, handled.
//
// 1. Streaming: the device applies the delta while it downloads, so it
//    never stages the whole delta in RAM.
// 2. Power loss: the journaled updater is interrupted at random points
//    (simulated write tearing) and resumes until the update lands, with
//    the flash verified byte-perfect afterwards.
//
// Run:  ./examples/resilient_ota
#include <cstdio>

#include "apply/stream_applier.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "device/resumable_updater.hpp"
#include "ipdelta.hpp"

int main() {
  using namespace ipd;

  // Firmware pair with a shifted region (forces self-overlapping copies,
  // the non-idempotent case the journal exists for).
  Rng rng(0x07A);
  Bytes v1 = generate_file(rng, 128 << 10, FileProfile::kBinary);
  Bytes v2 = v1;
  std::copy(v2.begin() + 4096, v2.begin() + 90000, v2.begin() + 6000);
  v2 = mutate(v2, rng, 25);
  const Bytes delta = Pipeline().build_inplace(v1, v2).delta;
  std::printf("firmware: %zu B -> %zu B, in-place delta %zu B\n", v1.size(),
              v2.size(), delta.size());

  // --- part 1: streaming application ------------------------------------
  {
    Bytes image = v1;
    image.resize(std::max(v1.size(), v2.size()));
    StreamingInplaceApplier applier(image);
    std::size_t chunks = 0;
    for (std::size_t pos = 0; pos < delta.size(); pos += 1400) {  // ~MTU
      applier.feed(ByteView(delta).subspan(
          pos, std::min<std::size_t>(1400, delta.size() - pos)));
      ++chunks;
    }
    std::printf(
        "\nstreaming: %zu network chunks, %zu commands applied on the fly,\n"
        "  parser RAM high-water %zu B (vs %zu B to stage the delta); %s\n",
        chunks, applier.commands_applied(), applier.peak_buffered(),
        delta.size(),
        applier.finished() && std::equal(v2.begin(), v2.end(), image.begin())
            ? "image verified"
            : "FAILED");
  }

  // --- part 2: power-failure storm --------------------------------------
  {
    const std::size_t image_area = 192 << 10;
    const JournalRegion journal{image_area, 16 << 10};
    FlashDevice device(
        image_area + journal.size, 4096,
        delta.size() + parse_delta(delta).table_bytes() + (32 << 10));
    device.load_image(v1);
    clear_journal(device, journal);

    Rng chaos(0xDEAD);
    int failures = 0;
    ResumableUpdateResult result;
    for (;;) {
      // Pull the plug after a random 4-40 KiB of flash writes.
      device.inject_power_failure_after(chaos.range(4 << 10, 40 << 10));
      try {
        result = apply_update_resumable(device, delta, channel_28k(), journal);
        break;
      } catch (const FlashDevice::PowerFailure&) {
        ++failures;
        std::printf("  power failed mid-update (#%d) — rebooting...\n",
                    failures);
      }
    }
    device.clear_power_failure();

    const bool ok =
        std::equal(v2.begin(), v2.end(), device.inspect().begin());
    std::printf(
        "\njournaled update survived %d power failures; resumed from step "
        "%zu on the final run;\n  %zu journal records, CRC %s, flash %s\n",
        failures, result.steps_replayed, result.journal_records,
        result.update.crc_verified ? "verified" : "NOT verified",
        ok ? "matches v2" : "DOES NOT match v2");
    return ok ? 0 : 1;
  }
}
