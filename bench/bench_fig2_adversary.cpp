// E4 — Figure 2: the binary-tree CRWI adversary on which the locally-
// minimum policy is arbitrarily worse than the global optimum.
//
// The paper: local-min walks each cycle (root..leaf, length log|V|) and
// deletes the leaf at cost C, for all k leaves — total k*C — while
// deleting the root alone costs ~C. The gap k grows without bound. The
// cycle-walk column also verifies the O(|V| log |V|) work bound for
// local-min on this family.
//
// The run is also a gate on that shape: it exits 1 at any depth where a
// heuristic does not pay exactly leaves × 14 B, the optimum is not 22 B
// (the root alone), or local-min's cycle walk is not leaves × depth.
#include <cstdio>

#include "adversary/constructions.hpp"
#include "bench_util.hpp"
#include "inplace/converter.hpp"

namespace {

using namespace ipd;

// Conversion costs under kPaperExplicit of one leaf copy and of the root
// copy (the optimal deletion).
constexpr std::uint64_t kLeafCost = 14;
constexpr std::uint64_t kOptimalCost = 22;

}  // namespace

int main() {
  std::printf(
      "Figure 2 — binary-tree adversary: locally-minimum vs optimal\n");
  bench::rule('=');
  std::printf("%6s %8s %8s | %12s %12s %12s | %8s %10s\n", "depth", "nodes",
              "leaves", "local-min", "constant", "optimal", "gap", "cyclewalk");
  bench::rule();

  bool shape_holds = true;
  for (std::size_t depth = 2; depth <= 14; ++depth) {
    const Fig2Instance inst = make_fig2_tree(depth);
    const std::size_t nodes = (std::size_t{1} << depth) - 1;

    ConvertOptions local;
    local.policy = BreakPolicy::kLocalMin;
    const ConvertResult r_local =
        convert_to_inplace(inst.script, inst.reference, local);

    ConvertOptions constant;
    constant.policy = BreakPolicy::kConstantTime;
    const ConvertResult r_const =
        convert_to_inplace(inst.script, inst.reference, constant);

    // Exact search is exponential; cap it at small trees. The optimum is
    // known analytically (delete the root) for every size, so report the
    // root's conversion cost directly above the cap.
    std::uint64_t optimal_cost;
    if (nodes <= 63) {
      ConvertOptions exact;
      exact.policy = BreakPolicy::kExactOptimal;
      optimal_cost = convert_to_inplace(inst.script, inst.reference, exact)
                         .report.conversion_cost;
    } else {
      const CodewordCostModel model(kPaperExplicit, inst.version.size());
      optimal_cost = model.conversion_cost(
          CopyCommand{0, 0, inst.root_copy_length});
    }

    std::printf("%6zu %8zu %8zu | %10llu B %10llu B %10llu B | %7.1fx %10zu\n",
                depth, nodes, inst.leaf_count,
                static_cast<unsigned long long>(r_local.report.conversion_cost),
                static_cast<unsigned long long>(r_const.report.conversion_cost),
                static_cast<unsigned long long>(optimal_cost),
                static_cast<double>(r_local.report.conversion_cost) /
                    static_cast<double>(optimal_cost),
                r_local.report.cycle_length_sum);

    const std::uint64_t heuristic_cost = inst.leaf_count * kLeafCost;
    if (r_local.report.conversion_cost != heuristic_cost ||
        r_const.report.conversion_cost != heuristic_cost ||
        optimal_cost != kOptimalCost ||
        r_local.report.cycle_length_sum != inst.leaf_count * depth) {
      std::printf("FAIL depth %zu: want %llu B per heuristic, %llu B optimal, "
                  "cyclewalk %zu\n",
                  depth, static_cast<unsigned long long>(heuristic_cost),
                  static_cast<unsigned long long>(kOptimalCost),
                  inst.leaf_count * depth);
      shape_holds = false;
    }
  }

  bench::rule();
  std::printf(
      "expected shape: both heuristics pay ~leaves x leaf-cost; the gap\n"
      "to optimal grows linearly in the leaf count (unbounded, as the\n"
      "paper argues); cyclewalk ~ leaves x tree depth = O(|V| log |V|).\n");
  return shape_holds ? 0 : 1;
}
