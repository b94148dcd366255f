#include "inplace/analysis.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "inplace/converter.hpp"
#include "inplace/scc.hpp"
#include "inplace/topo_sort.hpp"

namespace ipd {

void LengthHistogram::add(length_t length) noexcept {
  const unsigned bucket =
      length == 0 ? 0u : static_cast<unsigned>(std::bit_width(length) - 1);
  ++buckets[std::min<unsigned>(bucket, buckets.size() - 1)];
  max_length = std::max(max_length, length);
  ++count;
}

std::size_t LengthHistogram::top_bucket() const noexcept {
  for (std::size_t i = buckets.size(); i > 0; --i) {
    if (buckets[i - 1] > 0) return i - 1;
  }
  return 0;
}

DeltaAnalysis analyze_delta(const Script& script,
                            length_t reference_length) {
  const length_t version_length = script.version_length();
  script.validate(reference_length, version_length);

  DeltaAnalysis a;
  a.summary = script.summary();
  for (const CommandRef& cmd : script.commands()) {
    (cmd.is_add() ? a.add_lengths : a.copy_lengths).add(cmd.length);
  }

  // Conflict structure.
  const std::vector<CopyCommand> copies = sorted_copies(script.commands());
  const CrwiGraph graph = CrwiGraph::build(copies, version_length);
  a.edges = graph.edge_count();

  std::vector<bool> has_edge(graph.vertex_count(), false);
  for (std::uint32_t v = 0; v < graph.vertex_count(); ++v) {
    if (graph.out_degree(v) > 0) {
      has_edge[v] = true;
      for (const std::uint32_t w : graph.successors(v)) {
        has_edge[w] = true;
      }
    }
  }
  a.conflicting_copies = static_cast<std::size_t>(
      std::count(has_edge.begin(), has_edge.end(), true));

  const SccResult scc = strongly_connected_components(graph);
  for (const auto& members : scc.members) {
    if (members.size() > 1) {
      ++a.nontrivial_sccs;
      a.largest_scc = std::max(a.largest_scc, members.size());
    }
  }
  a.cyclic_vertices = cyclic_vertex_count(scc);
  a.inplace_safe_as_ordered = satisfies_equation2(script);

  // Policy projections (dry: topological sort only).
  const CodewordCostModel model(kPaperExplicit, version_length);
  const std::vector<std::uint64_t> costs = conversion_costs(copies, model);
  for (const BreakPolicy policy :
       {BreakPolicy::kConstantTime, BreakPolicy::kLocalMin}) {
    const TopoSortResult topo =
        topo_sort_breaking_cycles(graph, policy, costs);
    PolicyProjection proj;
    proj.policy = policy;
    proj.copies_converted = topo.deleted.size();
    for (const std::uint32_t v : topo.deleted) {
      proj.bytes_converted += copies[v].length;
      proj.conversion_cost += costs[v];
    }
    a.projections.push_back(proj);
  }

  // Encoded sizes.
  DeltaHeader header;
  header.reference_length = reference_length;
  header.version_length = version_length;
  const auto size_of = [&](DeltaFormat fmt) -> std::uint64_t {
    header.format = fmt;
    return serialize_delta(header, script.commands()).size();
  };
  if (script.in_write_order()) {
    a.size_paper_sequential = size_of(kPaperSequential);
    a.size_varint_sequential = size_of(kVarintSequential);
  }
  a.size_paper_explicit = size_of(kPaperExplicit);
  a.size_varint_explicit = size_of(kVarintExplicit);
  return a;
}

std::string render_analysis(const DeltaAnalysis& a) {
  std::ostringstream os;
  os << "commands: " << a.summary.copy_count << " copies ("
     << a.summary.copied_bytes << " B), " << a.summary.add_count << " adds ("
     << a.summary.added_bytes << " B)\n";

  const auto hist_line = [&](const char* label, const LengthHistogram& h) {
    os << label << " length histogram (log2 buckets):";
    if (h.count == 0) {
      os << " (none)\n";
      return;
    }
    for (std::size_t i = 0; i <= h.top_bucket(); ++i) {
      os << ' ' << h.buckets[i];
    }
    os << "  (max " << h.max_length << ")\n";
  };
  hist_line("copy", a.copy_lengths);
  hist_line("add ", a.add_lengths);

  os << "CRWI digraph: " << a.summary.copy_count << " vertices, " << a.edges
     << " edges; " << a.conflicting_copies << " copies in conflict; "
     << a.nontrivial_sccs << " non-trivial SCCs (largest " << a.largest_scc
     << ", " << a.cyclic_vertices << " cyclic vertices)\n";
  os << "in-place safe as ordered: "
     << (a.inplace_safe_as_ordered ? "yes" : "no") << '\n';

  for (const PolicyProjection& p : a.projections) {
    os << "conversion projection [" << policy_name(p.policy)
       << "]: " << p.copies_converted << " copies -> adds, "
       << p.bytes_converted << " B re-encoded, +" << p.conversion_cost
       << " B delta growth\n";
  }

  os << "encoded sizes:";
  if (a.size_paper_sequential > 0) {
    os << " paper/seq=" << a.size_paper_sequential;
  }
  os << " paper/explicit=" << a.size_paper_explicit;
  if (a.size_varint_sequential > 0) {
    os << " varint/seq=" << a.size_varint_sequential;
  }
  os << " varint/explicit=" << a.size_varint_explicit << '\n';
  return os.str();
}

}  // namespace ipd
