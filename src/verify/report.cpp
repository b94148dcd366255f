// Report rendering: the human-facing text listing and the JSON document
// consumed by `ipdelta lint --json` (schema in docs/VERIFY.md).
#include <string>

#include "obs/json.hpp"
#include "verify/verifier.hpp"

namespace ipd {
namespace {

const char* bool_text(bool b) noexcept { return b ? "true" : "false"; }

}  // namespace

const char* severity_name(Severity severity) noexcept {
  return severity == Severity::kError ? "error" : "warning";
}

const char* check_name(Check check) noexcept {
  switch (check) {
    case Check::kContainer:
      return "container";
    case Check::kPayload:
      return "payload";
    case Check::kCodeword:
      return "codeword";
    case Check::kOffsetOverflow:
      return "offset-overflow";
    case Check::kReadBounds:
      return "read-bounds";
    case Check::kWriteBounds:
      return "write-bounds";
    case Check::kWriteOverlap:
      return "write-overlap";
    case Check::kCoverage:
      return "coverage";
    case Check::kWriteBeforeRead:
      return "write-before-read";
    case Check::kInPlaceFlag:
      return "in-place-flag";
    case Check::kAddPlacement:
      return "add-placement";
    case Check::kWriteDiscontinuity:
      return "write-discontinuity";
  }
  return "unknown";
}

std::string Report::to_text() const {
  std::string out;
  out += "well-formed:   ";
  out += bool_text(well_formed);
  out += "\nin-place safe: ";
  out += bool_text(in_place_safe);
  out += "\ncommands:      " + std::to_string(command_count);
  out += "\nerrors:        " + std::to_string(error_count());
  out += "\nwarnings:      " + std::to_string(warning_count());
  out += "\n";
  for (const Finding& f : findings) {
    out += severity_name(f.severity);
    out += " [";
    out += check_name(f.check);
    out += "] ";
    out += f.message;
    out += "\n";
  }
  if (findings_truncated) {
    out += "... finding limit reached; diagnosis incomplete\n";
  }
  return out;
}

std::string Report::to_json() const {
  std::string out = "{";
  out += "\"well_formed\":";
  out += bool_text(well_formed);
  out += ",\"in_place_safe\":";
  out += bool_text(in_place_safe);
  out += ",\"ok\":";
  out += bool_text(ok());
  out += ",\"command_count\":" + std::to_string(command_count);
  out += ",\"errors\":" + std::to_string(error_count());
  out += ",\"warnings\":" + std::to_string(warning_count());
  out += ",\"findings_truncated\":";
  out += bool_text(findings_truncated);
  if (header) {
    out += ",\"header\":{";
    out += "\"format\":\"";
    out += format_name(header->format);
    out += "\",\"in_place\":";
    out += bool_text(header->in_place);
    out += ",\"compressed\":";
    out += bool_text(header->compress_payload);
    out += ",\"reference_length\":" + std::to_string(header->reference_length);
    out += ",\"version_length\":" + std::to_string(header->version_length);
    out += ",\"version_crc\":" + std::to_string(header->version_crc);
    out += ",\"payload_length\":" + std::to_string(header->payload_length);
    out += "}";
  }
  out += ",\"findings\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out += ",";
    out += "{\"severity\":\"";
    out += severity_name(f.severity);
    out += "\",\"check\":\"";
    out += check_name(f.check);
    out += "\",\"message\":\"";
    obs::json_escape_into(&out, f.message);
    out += '"';
    if (f.command) out += ",\"command\":" + std::to_string(*f.command);
    if (f.other) out += ",\"other\":" + std::to_string(*f.other);
    if (f.bytes) {
      out += ",\"first\":" + std::to_string(f.bytes->first);
      out += ",\"last\":" + std::to_string(f.bytes->last);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace ipd
