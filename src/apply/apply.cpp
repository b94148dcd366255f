#include "apply/apply.hpp"

#include <algorithm>
#include <cstring>

#include "core/checksum.hpp"
#include "obs/trace.hpp"

namespace ipd {

Bytes apply_script(const Script& script, ByteView reference) {
  Bytes version(script.version_length());
  for (const CommandRef& cmd : script.commands()) {
    if (!range_fits(cmd.to, cmd.length, version.size()) ||
        (!cmd.is_add() &&
         !range_fits(cmd.from, cmd.length, reference.size()))) {
      throw ValidationError(cmd.is_add() ? "apply: add command out of bounds"
                                         : "apply: copy command out of bounds");
    }
    const std::uint8_t* source =
        cmd.is_add() ? cmd.literal : reference.data() + cmd.from;
    std::copy_n(source, cmd.length,
                version.begin() + static_cast<std::ptrdiff_t>(cmd.to));
  }
  return version;
}

Bytes apply_delta(ByteView delta, ByteView reference) {
  obs::Span span(obs::Stage::kApplyScratch, delta.size());
  const ParsedDelta parsed = parse_delta(delta);
  const DeltaHeader& header = parsed.header;
  if (header.reference_length != reference.size()) {
    throw FormatError("apply: reference length mismatch (delta expects " +
                      std::to_string(header.reference_length) + ", got " +
                      std::to_string(reference.size()) + ")");
  }
  // parse_delta has bounded the table: adds come straight from the
  // artifact bytes.
  Bytes version(static_cast<std::size_t>(header.version_length));
  for (const CommandRef& cmd : parsed.commands) {
    const std::uint8_t* source =
        cmd.is_add() ? cmd.literal : reference.data() + cmd.from;
    std::memcpy(version.data() + cmd.to, source,
                static_cast<std::size_t>(cmd.length));
  }
  if (crc32c(version) != header.version_crc) {
    throw FormatError("apply: version CRC mismatch after reconstruction");
  }
  return version;
}

}  // namespace ipd
