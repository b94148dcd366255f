#include "apply/apply.hpp"

#include <algorithm>
#include <cstring>

#include "core/checksum.hpp"
#include "obs/trace.hpp"

namespace ipd {

void apply_script_into(const Script& script, ByteView reference,
                       MutByteView version) {
  for (const Command& cmd : script.commands()) {
    if (const auto* copy = std::get_if<CopyCommand>(&cmd)) {
      if (!range_fits(copy->from, copy->length, reference.size()) ||
          !range_fits(copy->to, copy->length, version.size())) {
        throw ValidationError("apply: copy command out of bounds");
      }
      std::copy_n(reference.begin() + static_cast<std::ptrdiff_t>(copy->from),
                  copy->length,
                  version.begin() + static_cast<std::ptrdiff_t>(copy->to));
    } else {
      const AddCommand& add = std::get<AddCommand>(cmd);
      if (!range_fits(add.to, add.length(), version.size())) {
        throw ValidationError("apply: add command out of bounds");
      }
      std::copy(add.data.begin(), add.data.end(),
                version.begin() + static_cast<std::ptrdiff_t>(add.to));
    }
  }
}

Bytes apply_script(const Script& script, ByteView reference) {
  Bytes version(script.version_length());
  apply_script_into(script, reference, version);
  return version;
}

namespace {

/// The scratch loop over a table parse_delta has bounded: adds come
/// straight from the artifact bytes.
Bytes reconstruct(const ParsedDelta& parsed, ByteView reference) {
  Bytes version(static_cast<std::size_t>(parsed.header.version_length));
  for (const CommandRef& cmd : parsed.commands) {
    const std::uint8_t* source =
        cmd.is_add() ? cmd.literal : reference.data() + cmd.from;
    std::memcpy(version.data() + cmd.to, source,
                static_cast<std::size_t>(cmd.length));
  }
  return version;
}

}  // namespace

Bytes apply_delta(ByteView delta, ByteView reference) {
  obs::Span span(obs::Stage::kApplyScratch, delta.size());
  const ParsedDelta parsed = parse_delta(delta);
  const DeltaHeader& header = parsed.header;
  if (header.reference_length != reference.size()) {
    throw FormatError("apply: reference length mismatch (delta expects " +
                      std::to_string(header.reference_length) + ", got " +
                      std::to_string(reference.size()) + ")");
  }
  Bytes version = reconstruct(parsed, reference);
  if (crc32c(version) != header.version_crc) {
    throw FormatError("apply: version CRC mismatch after reconstruction");
  }
  return version;
}

VerifyResult verify_delta(ByteView delta, ByteView reference) {
  VerifyResult result;
  try {
    const ParsedDelta parsed = parse_delta(delta);
    const DeltaHeader& header = parsed.header;
    result.version_length = header.version_length;
    if (header.reference_length != reference.size()) {
      result.failure = "reference length mismatch: delta expects " +
                       std::to_string(header.reference_length) + ", got " +
                       std::to_string(reference.size());
      return result;
    }
    if (crc32c(reconstruct(parsed, reference)) != header.version_crc) {
      result.failure = "version CRC mismatch after reconstruction";
      return result;
    }
    const bool eq2 =
        scan_equation2(parsed.commands, parsed.write_order,
                       [](const WriteBeforeRead&) { return false; }) == 0;
    if (header.in_place && !eq2) {
      result.failure =
          "delta claims in-place reconstructibility but violates "
          "Equation 2";
      return result;
    }
    result.in_place_capable = header.in_place && eq2;
    result.ok = true;
  } catch (const Error& e) {
    result.failure = e.what();
  }
  return result;
}

}  // namespace ipd
