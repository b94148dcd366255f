// Fuzz target: the delta container codec (delta/codec.hpp) — header
// parse, full deserialization, the static Verifier built on its decode
// step, and the bounded in-place apply. Contract under hostile input:
//
//  * try_parse_header / parse_delta throw ipd::Error or succeed;
//  * a container that parses must re-serialize from its command table
//    into a container that parses to the same header and commands
//    (round-trip stability);
//  * Verifier::check never throws, and parse_delta succeeds iff the
//    report is well-formed with no structural error;
//  * on success, scan_equation2 reports exactly the per-writer oracle's
//    (analyze_conflicts) conflicts, and none iff the report is in-place
//    safe;
//  * apply_delta_inplace on a bounded buffer either throws or produces
//    exactly version_length bytes matching the header's version CRC;
//  * the borrowed batch appliers (parse_delta's command table) and the
//    reference ones (that table as a Script + apply_script / apply_inplace)
//    give the same verdict, exception type and bytes, in place and scratch.
//  * past the header, container and Adler-32 checks, the streaming
//    decoder, fed in chunks of 1 + (last input byte % 97) bytes, yields
//    decode_delta's rows, then its malformed codeword's text at the same
//    row, or waits with bytes buffered at its truncated one.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <tuple>
#include <vector>

#include "apply/oracle.hpp"
#include "apply_paths.hpp"
#include "core/checksum.hpp"
#include "delta/codec.hpp"
#include "ipdelta.hpp"
#include "verify/verifier.hpp"

using namespace ipd;

namespace {

// Bound the apply buffer: a hostile header may announce huge lengths,
// and the harness must not oblige with the allocation.
constexpr std::size_t kMaxApplyBytes = 1u << 20;

/// An error finding that parse_delta would have thrown for: anything but
/// the Equation 2 verdicts, which parse_delta does not check.
bool has_structural_error(const Report& report) {
  for (const Finding& f : report.findings) {
    if (f.severity == Severity::kError &&
        f.check != Check::kWriteBeforeRead && f.check != Check::kInPlaceFlag) {
      return true;
    }
  }
  return false;
}

/// The Verifier accepts exactly what parse_delta accepts, and a table
/// that parses round-trips through the encoder and the one Equation-2
/// scan reports exactly the oracle's conflicts (each byte has one
/// writer once the writes tile).
void check_verifier_matches_parse(ByteView input) {
  Report report;
  try {
    report = Verifier().check(input);
  } catch (...) {
    abort();  // the Verifier must diagnose, never throw
  }
  std::optional<ParsedDelta> parsed;
  try {
    parsed = parse_delta(input);
  } catch (const Error&) {
  }
  if (parsed.has_value() !=
      (report.well_formed && !has_structural_error(report))) {
    abort();
  }
  if (!parsed) return;
  if (!fuzzcorpus::table_round_trips(*parsed)) abort();
  using Triple = std::tuple<std::size_t, std::size_t, offset_t, offset_t>;
  std::vector<Triple> scanned, oracle;
  scan_equation2(parsed->commands, parsed->write_order,
                 [&](const WriteBeforeRead& c) {
                   scanned.emplace_back(c.reader, c.writer, c.overlap.first,
                                        c.overlap.last);
                   return true;
                 });
  for (const Conflict& c :
       analyze_conflicts(Script(parsed->commands))
           .conflicts) {
    oracle.emplace_back(c.reader_index, c.writer_index, c.overlap.first,
                        c.overlap.last);
  }
  std::sort(scanned.begin(), scanned.end());
  std::sort(oracle.begin(), oracle.end());
  if (scanned != oracle || scanned.empty() != report.in_place_safe) abort();
}

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

  check_verifier_matches_parse(input);
  if (size > 0 &&
      !fuzzcorpus::streaming_disagreement(input, 1 + data[size - 1] % 97)
           .empty()) {
    abort();
  }

  if (header) {
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
      if (inplace != fuzzcorpus::script_inplace(input, buffer)) abort();

      const ByteView reference =
          ByteView(buffer).first(static_cast<std::size_t>(h.reference_length));
      if (fuzzcorpus::borrowed_scratch(input, reference) !=
          fuzzcorpus::script_scratch(input, reference)) {
        abort();
      }
    }
  }
  return 0;
}
