#include "inplace/converter.hpp"

#include <algorithm>
#include <limits>

#include "core/checksum.hpp"
#include "inplace/scc.hpp"
#include "obs/trace.hpp"

namespace ipd {
namespace {

/// Sort adds by write offset and merge runs that abut exactly.
std::vector<AddCommand> coalesce(std::vector<AddCommand> adds) {
  std::sort(adds.begin(), adds.end(),
            [](const AddCommand& a, const AddCommand& b) {
              return a.to < b.to;
            });
  std::vector<AddCommand> merged;
  for (AddCommand& a : adds) {
    if (!merged.empty() &&
        merged.back().to + merged.back().length() == a.to) {
      merged.back().data.insert(merged.back().data.end(), a.data.begin(),
                                a.data.end());
    } else {
      merged.push_back(std::move(a));
    }
  }
  return merged;
}

}  // namespace

ConvertResult convert_to_inplace(const Script& input, ByteView reference,
                                 const ConvertOptions& options,
                                 const ParallelContext& ctx) {
  const length_t version_length = input.version_length();
  input.validate(reference.size(), version_length);

  // Steps 1–2: partition and sort the copies by write offset.
  std::vector<CopyCommand> copies = input.copies();
  std::vector<AddCommand> adds = input.adds();
  std::sort(copies.begin(), copies.end(),
            [](const CopyCommand& a, const CopyCommand& b) {
              return a.to < b.to;
            });

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
    report.cycles_found = topo.cycles_found;  // 0 expected
  } else {
    // The constant-time and local-min policies break cycles inside the
    // sort itself, so their cost shows up under this span.
    obs::Span span(obs::Stage::kTopoSort);
    topo = topo_sort_breaking_cycles(graph, options.policy, costs);
    report.cycles_found = topo.cycles_found;
    report.cycles_already_broken = topo.cycles_already_broken;
  }
  report.passes = topo.passes;
  report.cycle_length_sum = topo.cycle_length_sum;

  obs::Span emit_span(obs::Stage::kConvertEmit);
  // Deleted vertices: re-encode their copies as adds, fetching the bytes
  // from the reference (Equation 2 makes this the same data the copy
  // would have read at reconstruction time).
  for (const std::uint32_t v : topo.deleted) {
    const CopyCommand& c = copies[v];
    const auto begin =
        reference.begin() + static_cast<std::ptrdiff_t>(c.from);
    adds.push_back(AddCommand{
        c.to, Bytes(begin, begin + static_cast<std::ptrdiff_t>(c.length))});
    ++report.copies_converted;
    report.bytes_converted += c.length;
    report.conversion_cost += costs[v];
  }

  // Steps 5–6: surviving copies in topological order, then all adds.
  Script& out = result.script;
  for (const std::uint32_t v : topo.order) {
    out.push(copies[v]);
  }
  if (options.coalesce_adds) {
    adds = coalesce(std::move(adds));
  }
  for (AddCommand& a : adds) {
    out.push(std::move(a));
  }
  return result;
}

bool satisfies_equation2(const Script& script) {
  constexpr length_t kUnbounded = std::numeric_limits<length_t>::max();
  std::vector<CommandRef> table;
  std::vector<WriteRange> writes;
  table.reserve(script.size());
  writes.reserve(script.size());
  for (const Command& cmd : script.commands()) {
    const auto* copy = std::get_if<CopyCommand>(&cmd);
    const WriteRange write{command_to(cmd), command_length(cmd)};
    check_command_bounds(table.size(), copy, write, kUnbounded, kUnbounded);
    table.push_back(copy != nullptr
                        ? CommandRef{copy->to, copy->length, copy->from}
                        : CommandRef{write.to, write.length, 0,
                                     std::get<AddCommand>(cmd).data.data()});
    writes.push_back(write);
  }
  // Gaps do not matter to Equation 2, overlaps do: with two writers of
  // one byte, "the earlier writer" is ambiguous.
  const std::vector<KeyedWrite> order = sort_by_offset(writes);
  for (std::size_t k = 1; k < order.size(); ++k) {
    const WriteRange& prev = writes[order[k - 1].index];
    if (order[k].to - prev.to < prev.length) {
      throw ValidationError("satisfies_equation2: commands " +
                            std::to_string(order[k - 1].index) + " and " +
                            std::to_string(order[k].index) +
                            " write the same bytes");
    }
  }
  return scan_equation2(table, order,
                        [](const WriteBeforeRead&) { return false; }) == 0;
}

Bytes serialize_inplace(Script script, const DeltaFormat& format,
                        ByteView reference, ByteView version,
                        bool compress_payload) {
  DeltaFile file;
  file.format = format;
  if (file.format.offsets != WriteOffsets::kExplicit) {
    throw ValidationError(
        "in-place delta files require explicit write offsets");
  }
  file.in_place = true;
  file.compress_payload = compress_payload;
  file.reference_length = reference.size();
  file.version_length = version.size();
  file.version_crc = crc32c(version);
  file.script = std::move(script);
  obs::Span span(obs::Stage::kEncode);
  Bytes out = serialize_delta(file);
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
