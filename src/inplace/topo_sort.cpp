#include "inplace/topo_sort.hpp"

namespace ipd {
namespace {

enum Color : std::uint8_t { kWhite = 0, kGray = 1, kBlack = 2 };

struct Frame {
  std::uint32_t vertex;
  std::size_t next_edge;
};

/// The single DFS over the surviving vertices: appends each finished
/// vertex to `postorder` and deletes cycle victims per policy.
class Dfs {
 public:
  Dfs(const CrwiGraph& g, BreakPolicy policy,
      std::span<const std::uint64_t> costs, std::vector<bool>& deleted,
      TopoSortResult& result)
      : g_(g),
        policy_(policy),
        costs_(costs),
        deleted_(deleted),
        result_(result),
        color_(g.vertex_count(), kWhite),
        stack_pos_(g.vertex_count(), 0) {}

  void run(std::vector<std::uint32_t>& postorder) {
    const std::size_t n = g_.vertex_count();
    postorder.reserve(n);
    for (std::uint32_t root = 0; root < n; ++root) {
      if (color_[root] == kWhite && !deleted_[root]) {
        dfs(root, postorder);
      }
    }
  }

 private:
  void push(std::uint32_t v) {
    color_[v] = kGray;
    stack_pos_[v] = stack_.size();
    stack_.push_back(Frame{v, 0});
  }

  void dfs(std::uint32_t root, std::vector<std::uint32_t>& postorder) {
    push(root);
    while (!stack_.empty()) {
      Frame& frame = stack_.back();
      const std::uint32_t u = frame.vertex;
      const auto succ = g_.successors(u);
      if (frame.next_edge >= succ.size()) {
        color_[u] = kBlack;
        postorder.push_back(u);
        stack_.pop_back();
        continue;
      }

      const std::uint32_t v = succ[frame.next_edge++];
      if (deleted_[v] || color_[v] == kBlack) {
        continue;
      }
      if (color_[v] == kWhite) {
        push(v);
        continue;
      }
      // Back edge u→v: the gray stack segment stack_[pos(v)..top] is a
      // directed cycle v → … → u → v.
      break_cycle(stack_pos_[v]);
    }
  }

  void break_cycle(std::size_t cycle_begin) {
    ++result_.cycles_found;
    // Constant time: the source of the back edge, the top of the stack,
    // without examining the cycle (O(1)).
    std::size_t victim = stack_.size() - 1;
    if (policy_ == BreakPolicy::kLocalMin) {
      // Locally minimum: the leftmost cheapest vertex of the cycle.
      result_.cycle_length_sum += stack_.size() - cycle_begin;
      victim = cycle_begin;
      for (std::size_t i = cycle_begin + 1; i < stack_.size(); ++i) {
        if (costs_[stack_[i].vertex] < costs_[stack_[victim].vertex]) {
          victim = i;
        }
      }
    }
    const std::uint32_t v = stack_[victim].vertex;
    deleted_[v] = true;
    result_.deleted.push_back(v);
    // Unwind to the victim (see header): the gray vertices above it turn
    // white and are rediscovered later.
    for (std::size_t i = victim; i < stack_.size(); ++i) {
      color_[stack_[i].vertex] = kWhite;
    }
    stack_.resize(victim);
  }

  const CrwiGraph& g_;
  BreakPolicy policy_;
  std::span<const std::uint64_t> costs_;
  std::vector<bool>& deleted_;
  TopoSortResult& result_;

  std::vector<std::uint8_t> color_;
  std::vector<std::size_t> stack_pos_;
  std::vector<Frame> stack_;
};

}  // namespace

TopoSortResult topo_sort_breaking_cycles(const CrwiGraph& g,
                                         BreakPolicy policy,
                                         std::span<const std::uint64_t> costs,
                                         const std::vector<bool>& pre_deleted) {
  const std::size_t n = g.vertex_count();
  if (policy != BreakPolicy::kConstantTime &&
      policy != BreakPolicy::kLocalMin) {
    throw ValidationError(
        "kExactOptimal/kSccGlobalMin are driven via a precomputed feedback "
        "set + pre_deleted; topo_sort_breaking_cycles accepts only the "
        "on-line policies");
  }
  if (costs.size() != n) {
    throw ValidationError("topo sort: costs size != vertex count");
  }
  if (!pre_deleted.empty() && pre_deleted.size() != n) {
    throw ValidationError("topo sort: pre_deleted size != vertex count");
  }

  TopoSortResult result;
  std::vector<bool> deleted(n, false);
  for (std::size_t i = 0; i < pre_deleted.size(); ++i) {
    deleted[i] = pre_deleted[i];
  }

  std::vector<std::uint32_t> postorder;
  Dfs(g, policy, costs, deleted, result).run(postorder);
  result.order.assign(postorder.rbegin(), postorder.rend());
  return result;
}

bool is_topological_order(const CrwiGraph& g,
                          std::span<const std::uint32_t> order,
                          std::span<const std::uint32_t> deleted) {
  const std::size_t n = g.vertex_count();
  constexpr std::size_t kUnset = static_cast<std::size_t>(-1);
  std::vector<std::size_t> position(n, kUnset);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] >= n || position[order[i]] != kUnset) {
      return false;  // out of range or duplicate
    }
    position[order[i]] = i;
  }
  std::vector<bool> is_deleted(n, false);
  for (const std::uint32_t v : deleted) {
    if (v >= n || position[v] != kUnset) {
      return false;  // deleted vertex must not appear in the order
    }
    is_deleted[v] = true;
  }
  // Every vertex is either ordered or deleted.
  for (std::uint32_t v = 0; v < n; ++v) {
    if (position[v] == kUnset && !is_deleted[v]) {
      return false;
    }
  }
  for (std::uint32_t u = 0; u < n; ++u) {
    if (is_deleted[u]) continue;
    for (const std::uint32_t v : g.successors(u)) {
      if (is_deleted[v]) continue;
      if (position[u] >= position[v]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace ipd
