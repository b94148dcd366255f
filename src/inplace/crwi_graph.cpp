#include "inplace/crwi_graph.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "inplace/interval_index.hpp"
#include "obs/trace.hpp"

namespace ipd {
namespace {

// Below this many copy vertices, forking costs more than the probes.
constexpr std::size_t kParallelCrwiMinCopies = 2048;

/// Probe the index for vertices [u0, u1), appending successor lists to
/// `targets` and per-vertex end positions (relative to the start of
/// `targets`) to `ends`. Exactly the serial loop over a subrange.
void discover_edges(const std::vector<CopyCommand>& copies,
                    const IntervalIndex& index, std::uint32_t u0,
                    std::uint32_t u1, std::vector<std::uint32_t>& targets,
                    std::vector<std::size_t>& ends) {
  for (std::uint32_t u = u0; u < u1; ++u) {
    const Interval read = copies[u].read_interval();
    index.for_each_overlapping(read, [&](std::uint32_t v) {
      if (v != u) {  // a command does not conflict with itself (§4.1)
        targets.push_back(v);
      }
    });
    ends.push_back(targets.size());
  }
}

}  // namespace

std::vector<CopyCommand> sorted_copies(std::span<const CommandRef> commands) {
  std::vector<CopyCommand> copies;
  for (const CommandRef& c : commands) {
    if (!c.is_add()) copies.push_back(c.copy());
  }
  std::sort(copies.begin(), copies.end(),
            [](const CopyCommand& a, const CopyCommand& b) {
              return a.to < b.to;
            });
  return copies;
}

CrwiGraph CrwiGraph::build(const std::vector<CopyCommand>& copies,
                           length_t version_length) {
  return build(copies, version_length, ParallelContext{});
}

CrwiGraph CrwiGraph::build(const std::vector<CopyCommand>& copies,
                           length_t version_length, const ParallelContext& ctx,
                           std::size_t* chunks_out) {
  if (copies.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw ValidationError("CRWI graph: more than 2^32 copy commands");
  }
  const IntervalIndex index(copies);
  const std::size_t n = copies.size();

  std::size_t chunks = 1;
  if (ctx.enabled() && n >= kParallelCrwiMinCopies) {
    chunks = std::min({ctx.parallelism, std::size_t{32},
                       n / (kParallelCrwiMinCopies / 2)});
    chunks = std::max<std::size_t>(chunks, 1);
  }
  if (chunks_out != nullptr) *chunks_out = chunks;

  CrwiGraph g;
  g.offsets_.clear();
  g.offsets_.reserve(n + 1);
  g.offsets_.push_back(0);

  if (chunks <= 1) {
    std::vector<std::size_t> ends;
    ends.reserve(n);
    discover_edges(copies, index, 0, static_cast<std::uint32_t>(n),
                   g.targets_, ends);
    g.offsets_.insert(g.offsets_.end(), ends.begin(), ends.end());
  } else {
    // Each vertex range probes the immutable index into private
    // buffers; concatenating them in range order reproduces the serial
    // CSR arrays exactly.
    std::vector<std::vector<std::uint32_t>> targets(chunks);
    std::vector<std::vector<std::size_t>> ends(chunks);
    parallel_for(ctx, chunks, [&](std::size_t c) {
      const auto u0 = static_cast<std::uint32_t>(c * n / chunks);
      const auto u1 = static_cast<std::uint32_t>((c + 1) * n / chunks);
      obs::Span span(obs::Stage::kCrwiParallel, u1 - u0);
      ends[c].reserve(u1 - u0);
      discover_edges(copies, index, u0, u1, targets[c], ends[c]);
    });
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t base = g.targets_.size();
      g.targets_.insert(g.targets_.end(), targets[c].begin(),
                        targets[c].end());
      for (const std::size_t end : ends[c]) {
        g.offsets_.push_back(base + end);
      }
    }
  }

  // Lemma 1: a copy of length l conflicts with at most l writers, and the
  // read lengths sum to at most L_V, so |E| <= L_V.
  assert(g.targets_.size() <= version_length);
  (void)version_length;
  return g;
}

bool CrwiGraph::has_cycle() const {
  // Iterative three-colour DFS.
  enum : std::uint8_t { kWhite = 0, kGray = 1, kBlack = 2 };
  const std::size_t n = vertex_count();
  std::vector<std::uint8_t> color(n, kWhite);
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;

  for (std::uint32_t root = 0; root < n; ++root) {
    if (color[root] != kWhite) continue;
    stack.emplace_back(root, 0);
    color[root] = kGray;
    while (!stack.empty()) {
      auto& [v, edge] = stack.back();
      const auto succ = successors(v);
      if (edge < succ.size()) {
        const std::uint32_t w = succ[edge++];
        if (color[w] == kGray) return true;
        if (color[w] == kWhite) {
          color[w] = kGray;
          stack.emplace_back(w, 0);
        }
      } else {
        color[v] = kBlack;
        stack.pop_back();
      }
    }
  }
  return false;
}

}  // namespace ipd
