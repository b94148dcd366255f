#include "inplace/converter.hpp"

#include <algorithm>
#include <limits>

#include "core/checksum.hpp"
#include "inplace/scc.hpp"
#include "obs/trace.hpp"

namespace ipd {
ConvertResult convert_to_inplace(const Script& input, ByteView reference,
                                 const ConvertOptions& options,
                                 const ParallelContext& ctx) {
  const length_t version_length = input.version_length();
  input.validate(reference.size(), version_length);

  // Steps 1–2: partition and sort the copies by write offset.
  const std::vector<CopyCommand> copies = sorted_copies(input.commands());
  std::vector<CommandRef> adds;
  for (const CommandRef& c : input.commands()) {
    if (c.is_add()) adds.push_back(c);
  }

  ConvertResult result;
  ConvertReport& report = result.report;
  report.copies_in = copies.size();
  report.adds_in = adds.size();

  // Step 3: the CRWI digraph.
  const CrwiGraph graph = [&] {
    obs::Span span(obs::Stage::kCrwiGraph, reference.size());
    return CrwiGraph::build(copies, version_length, ctx,
                            &report.crwi_parallel_chunks);
  }();
  report.edges = graph.edge_count();

  const CodewordCostModel cost_model(options.format, version_length);
  const std::vector<std::uint64_t> costs = conversion_costs(copies, cost_model);

  // Step 4: topological sort with cycle breaking.
  TopoSortResult topo;
  if (options.policy == BreakPolicy::kExactOptimal ||
      options.policy == BreakPolicy::kSccGlobalMin) {
    std::vector<std::uint32_t> feedback_set;
    if (options.policy == BreakPolicy::kExactOptimal) {
      obs::Span span(obs::Stage::kCycleBreakExact);
      ExactFvsResult fvs = exact_min_fvs(graph, costs, options.exact);
      report.exact_was_optimal = fvs.optimal;
      feedback_set = std::move(fvs.removed);
    } else {
      obs::Span span(obs::Stage::kCycleBreakScc);
      feedback_set = scc_greedy_fvs(graph, costs, &report.scc_rounds);
    }
    std::vector<bool> pre_deleted(graph.vertex_count(), false);
    for (const std::uint32_t v : feedback_set) {
      pre_deleted[v] = true;
    }
    // The remainder is acyclic; constant-time policy never fires.
    obs::Span span(obs::Stage::kTopoSort);
    topo = topo_sort_breaking_cycles(graph, BreakPolicy::kConstantTime, costs,
                                     pre_deleted);
    topo.deleted.assign(feedback_set.begin(), feedback_set.end());
  } else {
    // The constant-time and local-min policies break cycles inside the
    // sort itself, so their cost shows up under this span.
    obs::Span span(obs::Stage::kTopoSort);
    topo = topo_sort_breaking_cycles(graph, options.policy, costs);
  }
  report.cycles_found = topo.cycles_found;  // 0 for a pre-deleted set
  report.cycle_length_sum = topo.cycle_length_sum;

  obs::Span emit_span(obs::Stage::kConvertEmit);
  // Deleted vertices: re-encode their copies as adds whose bytes are the
  // reference's (Equation 2 makes this the same data the copy would have
  // read at reconstruction time).
  const std::size_t adds_in = adds.size();
  adds.reserve(adds_in + topo.deleted.size());
  for (const std::uint32_t v : topo.deleted) {
    const CopyCommand& c = copies[v];
    adds.push_back({c.to, c.length, 0, reference.data() + c.from});
    ++report.copies_converted;
    report.bytes_converted += c.length;
    report.conversion_cost += costs[v];
  }

  // Steps 5–6: surviving copies in topological order, then all adds,
  // with runs that abut exactly merged when coalescing.
  std::vector<CommandRef> rows;
  rows.reserve(copies.size() + adds.size());
  for (const std::uint32_t v : topo.order) {
    rows.push_back({copies[v].to, copies[v].length, copies[v].from});
  }
  result.script = Script(std::move(rows));
  result.script.share_arena(input);  // for adds the input's arena holds
  if (!options.coalesce_adds) {
    for (const CommandRef& a : adds) result.script.push(a);
    return result;
  }
  // A differ's adds already are in write order: sort the converted ones
  // and merge.
  const auto by_offset = [](const CommandRef& a, const CommandRef& b) {
    return a.to < b.to;
  };
  const auto converted = adds.begin() + static_cast<std::ptrdiff_t>(adds_in);
  if (!std::is_sorted(adds.begin(), converted, by_offset)) {
    std::sort(adds.begin(), converted, by_offset);
  }
  std::sort(converted, adds.end(), by_offset);
  std::inplace_merge(adds.begin(), converted, adds.end(), by_offset);
  for (const CommandRef& a : adds) {
    result.script.append_add(a.to, a.bytes());
  }
  return result;
}

bool satisfies_equation2(const Script& script) {
  constexpr length_t kUnbounded = std::numeric_limits<length_t>::max();
  const std::span<const CommandRef> table = script.commands();
  // Gaps do not matter to Equation 2, overlaps do: with two writers of
  // one byte, "the earlier writer" is ambiguous.
  const std::vector<KeyedWrite> order =
      check_command_table(table, kUnbounded, kUnbounded, Coverage::kDisjoint);
  return scan_equation2(table, order,
                        [](const WriteBeforeRead&) { return false; }) == 0;
}

Bytes serialize_inplace(Script script, const DeltaFormat& format,
                        ByteView reference, ByteView version,
                        bool compress_payload) {
  if (format.offsets != WriteOffsets::kExplicit) {
    throw ValidationError(
        "in-place delta files require explicit write offsets");
  }
  DeltaHeader header;
  header.format = format;
  header.in_place = true;
  header.compress_payload = compress_payload;
  header.reference_length = reference.size();
  header.version_length = version.size();
  header.version_crc = crc32c(version);
  obs::Span span(obs::Stage::kEncode);
  Bytes out = serialize_delta(header, script.commands());
  span.add_bytes(out.size());
  return out;
}

Bytes make_inplace_delta(const Script& input, ByteView reference,
                         ByteView version, const ConvertOptions& options,
                         ConvertReport* report_out, bool compress_payload,
                         const ParallelContext& ctx) {
  ConvertResult converted = convert_to_inplace(input, reference, options, ctx);
  if (report_out != nullptr) {
    *report_out = converted.report;
  }
  return serialize_inplace(std::move(converted.script), options.format,
                           reference, version, compress_payload);
}

}  // namespace ipd
