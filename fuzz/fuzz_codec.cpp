// Fuzz target: the delta container codec (delta/codec.hpp) — header
// parse, full deserialization, the never-throwing command probe, and the
// bounded in-place apply. Contract under hostile input:
//
//  * try_parse_header / deserialize_delta throw ipd::Error or succeed;
//  * a container that decodes must re-serialize into a container that
//    decodes to the same script (round-trip stability);
//  * probe_command never throws and always makes progress on kOk;
//  * apply_delta_inplace on a bounded buffer either throws or produces
//    exactly version_length bytes matching the header's version CRC;
//  * the borrowed batch appliers (parse_delta's command table) and the
//    owning ones (deserialize_delta + apply_script / apply_inplace) give
//    the same verdict, exception type and bytes, in place and scratch.
#include <cstdint>
#include <cstdlib>

#include "apply_paths.hpp"
#include "core/checksum.hpp"
#include "delta/codec.hpp"
#include "ipdelta.hpp"

using namespace ipd;

namespace {

// Bound the apply buffer: a hostile header may announce huge lengths,
// and the harness must not oblige with the allocation.
constexpr std::size_t kMaxApplyBytes = 1u << 20;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const ByteView input(data, size);

  std::optional<std::pair<DeltaHeader, std::size_t>> header;
  try {
    header = try_parse_header(input);
    if (header && header->second > size) abort();  // consumed > available
  } catch (const Error&) {
    header.reset();
  }

  try {
    const DeltaFile file = deserialize_delta(input);
    const Bytes again = serialize_delta(file);
    const DeltaFile file2 = deserialize_delta(again);
    if (file2.script.commands() != file.script.commands()) abort();
    if (file2.version_length != file.version_length) abort();
    if (file2.version_crc != file.version_crc) abort();
  } catch (const Error&) {
    // rejected: fine
  }

  // The verifier's probe primitive must never throw and must either
  // consume bytes or stop.
  if (header) {
    const std::uint64_t payload_len = header->first.payload_length;
    if (header->second + payload_len <= size) {
      const ByteView payload =
          input.subspan(header->second, static_cast<std::size_t>(payload_len));
      offset_t running_to = 0;
      std::size_t at = 0;
      while (at < payload.size()) {
        const CommandProbe probe =
            probe_command(payload.subspan(at), header->first.format,
                          header->first.version_length, running_to);
        if (probe.status != CommandProbe::Status::kOk) break;
        if (probe.consumed == 0) abort();  // livelock: no progress on kOk
        at += probe.consumed;
      }
    }

    const DeltaHeader& h = header->first;
    if (h.reference_length <= kMaxApplyBytes &&
        h.version_length <= kMaxApplyBytes) {
      // A patterned reference, so a copy from the wrong offset shows.
      Bytes buffer(
          std::max<std::size_t>(h.reference_length, h.version_length));
      for (std::size_t i = 0; i < buffer.size(); ++i) {
        buffer[i] = static_cast<std::uint8_t>((i * 167) ^ (i >> 8));
      }
      const fuzzcorpus::ApplyOutcome inplace =
          fuzzcorpus::borrowed_inplace(input, buffer);
      if (inplace.error.empty() &&
          (inplace.bytes.size() != h.version_length ||
           crc32c(inplace.bytes) != h.version_crc)) {
        abort();
      }
      if (inplace != fuzzcorpus::owning_inplace(input, buffer)) abort();

      const ByteView reference =
          ByteView(buffer).first(static_cast<std::size_t>(h.reference_length));
      if (fuzzcorpus::borrowed_scratch(input, reference) !=
          fuzzcorpus::owning_scratch(input, reference)) {
        abort();
      }
    }
  }
  return 0;
}
