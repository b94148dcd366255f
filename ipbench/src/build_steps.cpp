#include "build_steps.hpp"

#include "common.hpp"
#include "trace.hpp"

namespace ipbench {

namespace {

ipd::PipelineOptions pipeline_options(std::size_t parallelism) {
  ipd::PipelineOptions options;
  options.differ = ipd::DifferKind::kOnePass;
  options.convert.policy = ipd::BreakPolicy::kLocalMin;
  options.format = ipd::kPaperSequential;  // in-place builds: kPaperExplicit
  options.parallelism = parallelism;
  return options;
}

}  // namespace

Builder::Builder(std::size_t parallelism)
    : pipeline_(pipeline_options(parallelism)),
      differ_(ipd::make_differ(pipeline_.options().differ,
                               pipeline_.options().differ_options)) {
  if (pipeline_.parallelism() > 1) {
    pool_ = std::make_unique<ipd::ThreadPool>(pipeline_.parallelism() - 1);
  }
}

BuildOutput Builder::build(ipd::ByteView reference, ipd::ByteView version,
                           bool decompose) const {
  BuildOutput out;
  const ipd::PipelineOptions& options = pipeline_.options();
  if (!decompose) {
    ipd::BuildResult r = pipeline_.build_inplace(reference, version);
    out.delta = std::move(r.delta);
    out.report = r.report;
    out.script = r.stats.script;
    out.segments = r.timing.diff_segments;
    out.timing = r.timing;
    return out;
  }

  // Mirrors Pipeline::build_inplace: the same segment plan, and the
  // same rule for when a build fans out.
  ipd::SegmentPlanOptions plan;
  plan.min_input = options.min_parallel_input;
  plan.segment_bytes = options.parallel_segment_bytes;
  ipd::ParallelContext ctx;
  if (pool_ != nullptr && version.size() >= options.min_parallel_input) {
    ctx = ipd::ParallelContext{pool_.get(), pipeline_.parallelism()};
  }

  const double cpu0 = process_cpu_s();
  const auto wall0 = Clock::now();
  ipd::ParallelDiffResult diffed = traced("delta.diff_parallel", [&] {
    return ipd::diff_parallel(*differ_, reference, version, plan, ctx);
  });
  out.diff_wall_s = seconds_between(wall0, Clock::now());
  out.diff_cpu_s = process_cpu_s() - cpu0;
  out.segments = diffed.segments;

  ipd::ConvertOptions convert = options.convert;
  convert.format = options.inplace_format();
  ipd::ConvertResult converted = traced("inplace.convert_to_inplace", [&] {
    return ipd::convert_to_inplace(diffed.script, reference, convert, ctx);
  });
  out.report = converted.report;
  out.script = converted.script.summary();

  out.delta = traced("delta.serialize_inplace", [&] {
    return ipd::serialize_inplace(std::move(converted.script), convert.format,
                                  reference, version,
                                  options.compress_payload);
  });
  return out;
}

}  // namespace ipbench
