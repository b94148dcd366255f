// The in-place conversion algorithm (§4 of the paper).
//
// Input: any valid delta script plus the reference file it reads from.
// Output: a script that materialises the identical version file when the
// commands are applied serially *in the same buffer that holds the
// reference* — the paper's Equation 2 holds: no command reads a byte an
// earlier command wrote.
//
// The six algorithm steps map one-to-one onto this module:
//   1. partition commands into copies C and adds A;
//   2. sort C by write offset;
//   3. build the CRWI digraph over C                 (crwi_graph.hpp);
//   4. topologically sort, breaking cycles per policy (topo_sort.hpp,
//      cycle_policy.hpp, exact_fvs.hpp) — each deleted copy is re-encoded
//      as an add whose bytes are fetched from the reference;
//   5. emit surviving copies in topological order;
//   6. emit all adds (original + converted) at the end.
//
// The output Script copies no add byte it can point at: original adds
// keep borrowing what the input's borrow (a differ's version), converted
// copies borrow the reference. Only coalesced runs whose pieces are not
// contiguous in memory are gathered into the output's arena, which also
// shares the input's.
#pragma once

#include "delta/codec.hpp"
#include "delta/script.hpp"
#include "inplace/exact_fvs.hpp"
#include "inplace/topo_sort.hpp"

namespace ipd {

struct ConvertOptions {
  BreakPolicy policy = BreakPolicy::kLocalMin;
  /// Codeword format the output will be encoded in; fixes the deletion
  /// cost function (the paper's l - |f|).
  DeltaFormat format = kPaperExplicit;
  /// Merge adjacent adds (by write offset) after conversion. Saves the
  /// per-command overhead the paper attributes to "many short add
  /// commands"; off to ablate.
  bool coalesce_adds = true;
  /// Settings for BreakPolicy::kExactOptimal.
  ExactFvsOptions exact;
};

struct ConvertReport {
  std::size_t copies_in = 0;
  std::size_t adds_in = 0;
  std::size_t edges = 0;              ///< |E| of the CRWI digraph
  std::size_t cycles_found = 0;
  std::size_t cycle_length_sum = 0;   ///< locally-minimum extra work
  std::size_t copies_converted = 0;   ///< vertices deleted
  length_t bytes_converted = 0;       ///< version bytes moved into adds
  /// Encoded-size growth from the conversions, in bytes, under
  /// ConvertOptions::format (sum of the paper's per-vertex costs).
  std::uint64_t conversion_cost = 0;
  bool exact_was_optimal = true;      ///< kExactOptimal search completed
  std::size_t scc_rounds = 0;         ///< kSccGlobalMin recomputation rounds
  std::size_t crwi_parallel_chunks = 1;  ///< CRWI edge-discovery fan-out
};

struct ConvertResult {
  Script script;
  ConvertReport report;
};

/// Convert `input` (validated against `reference`) into an in-place
/// reconstructible script. Deleted copies become adds over `reference`'s
/// bytes — safe precisely because Equation 2 guarantees every copy in
/// the output reads original reference data. The result borrows
/// `reference` and whatever `input`'s adds borrow outside its arena
/// (which the result shares): both must stay alive and unchanged until
/// the Script is serialized. So never apply the result in place over its
/// own reference; apply_inplace refuses, and the serialized delta is safe.
///
/// `ctx` parallelizes CRWI edge discovery (crwi_graph.hpp); the output
/// is byte-identical at any parallelism.
ConvertResult convert_to_inplace(const Script& input, ByteView reference,
                                 const ConvertOptions& options = {},
                                 const ParallelContext& ctx = {});

/// Directly verify the paper's Equation 2 on a script: no command's read
/// interval intersects the union of the write intervals of the commands
/// before it. This is the definition the converter's output must
/// satisfy; tests check both this and actual byte-level equality. A
/// wrapper over scan_equation2 in O(n log n); throws ValidationError
/// when two commands write the same byte, a length is zero, or an
/// offset + length wraps u64.
bool satisfies_equation2(const Script& script);

/// End-to-end convenience: diff-script → in-place script → serialized
/// in-place delta file (explicit-offset format, in_place flag set).
/// `compress_payload` applies the container's secondary LZSS compression
/// (incompatible with streaming application; see delta/codec.hpp).
Bytes make_inplace_delta(const Script& input, ByteView reference,
                         ByteView version, const ConvertOptions& options = {},
                         ConvertReport* report_out = nullptr,
                         bool compress_payload = false,
                         const ParallelContext& ctx = {});

/// Serialize an already-converted in-place script into a delta file
/// (explicit-offset format, in_place flag, version CRC). Shared by
/// make_inplace_delta and Pipeline::build_inplace.
Bytes serialize_inplace(Script script, const DeltaFormat& format,
                        ByteView reference, ByteView version,
                        bool compress_payload);

}  // namespace ipd
