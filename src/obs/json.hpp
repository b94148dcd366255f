// The one JSON string escaper: flight-recorder dumps, merged traces and
// `ipdelta lint --json` all quote text through it, so their documents
// escape the same bytes the same way.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace ipd::obs {

/// Append `text` to `*out` as the inside of a JSON string literal: `"`
/// and `\` are backslashed, \n and \t keep their short forms, every
/// other byte below 0x20 becomes \u00XX (lowercase hex), and all other
/// bytes, 0x7f and bytes >= 0x80 included, are copied unchanged.
inline void json_escape_into(std::string* out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

}  // namespace ipd::obs
