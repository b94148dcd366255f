// The publisher-side build shared by the release_corpus and large_image
// workloads.
//
// The untraced run calls Pipeline::build_inplace, the production entry
// point. The traced run makes the same build out of the public calls it
// is composed of (diff_parallel -> convert_to_inplace ->
// serialize_inplace) with a span around each, so diff, conversion and
// encode time can be told apart; the caller checks that those bytes are
// identical to what build_inplace produced.
#pragma once

#include <memory>

#include "core/thread_pool.hpp"
#include "ipdelta.hpp"

namespace ipbench {

struct BuildOutput {
  ipd::Bytes delta;
  ipd::ConvertReport report;
  ipd::ScriptSummary script;  ///< of the in-place script
  std::size_t segments = 1;   ///< diff fan-out
  ipd::TimingBreakdown timing;  ///< build_inplace only
  double diff_cpu_s = 0;        ///< decomposed builds only
  double diff_wall_s = 0;       ///< decomposed builds only
};

class Builder {
 public:
  /// The paper's setup: one-pass differ, local-min cycle breaking,
  /// paper-byte codewords with explicit write offsets.
  explicit Builder(std::size_t parallelism);
  Builder(const Builder&) = delete;
  Builder& operator=(const Builder&) = delete;

  BuildOutput build(ipd::ByteView reference, ipd::ByteView version,
                    bool decompose) const;

  std::size_t parallelism() const noexcept { return pipeline_.parallelism(); }

 private:
  ipd::Pipeline pipeline_;
  std::unique_ptr<ipd::Differ> differ_;
  std::unique_ptr<ipd::ThreadPool> pool_;  // decomposed builds at p > 1
};

}  // namespace ipbench
