#include "ipdelta.hpp"

#include <algorithm>

#include "core/checksum.hpp"
#include "obs/trace.hpp"

namespace ipd {

Pipeline::Pipeline(const PipelineOptions& options, ThreadPool* shared_pool)
    : options_(options),
      differ_(make_differ(options.differ, options.differ_options)),
      parallelism_(effective_parallelism(options.parallelism)),
      shared_pool_(shared_pool) {
  if (shared_pool_ != nullptr) {
    // The calling thread participates, so fan-out beyond the pool's
    // width + 1 could never run concurrently anyway.
    parallelism_ = std::min(parallelism_, shared_pool_->worker_count() + 1);
  }
}

SegmentPlanOptions Pipeline::segment_plan() const noexcept {
  SegmentPlanOptions plan;
  plan.min_input = options_.min_parallel_input;
  plan.segment_bytes = options_.parallel_segment_bytes;
  return plan;
}

ParallelContext Pipeline::context(std::size_t version_size) const {
  if (parallelism_ <= 1 || version_size < options_.min_parallel_input) {
    return {};
  }
  ThreadPool* pool = shared_pool_;
  if (pool == nullptr) {
    // Lazy: a pipeline that only ever sees small inputs spawns nothing.
    std::call_once(pool_once_, [this] {
      owned_pool_ = std::make_unique<ThreadPool>(parallelism_ - 1);
    });
    pool = owned_pool_.get();
  }
  return ParallelContext{pool, parallelism_};
}

BuildResult Pipeline::build_delta(ByteView reference, ByteView version) const {
  const std::uint64_t t0 = obs::now_ns();
  BuildResult result;

  const ParallelDiffResult diffed = [&] {
    obs::Span span(obs::Stage::kDiff, reference.size() + version.size());
    return diff_parallel(*differ_, reference, version, segment_plan(),
                         context(version.size()));
  }();
  result.timing.diff_ns = obs::now_ns() - t0;
  result.timing.diff_segments = diffed.segments;
  result.stats.script = diffed.script.summary();

  DeltaHeader header;
  header.format = options_.plain_format();
  // Some scripts are conflict-free as produced (e.g. all-add deltas, or
  // pure forward moves); mark them so devices can skip conversion.
  header.in_place = satisfies_equation2(diffed.script);
  header.compress_payload = options_.compress_payload;
  header.reference_length = reference.size();
  header.version_length = version.size();
  header.version_crc = crc32c(version);
  const std::uint64_t t1 = obs::now_ns();
  {
    obs::Span span(obs::Stage::kEncode);
    result.delta = serialize_delta(header, diffed.script.commands());
    span.add_bytes(result.delta.size());
  }
  result.timing.encode_ns = obs::now_ns() - t1;
  result.timing.total_ns = obs::now_ns() - t0;
  result.stats.compression = CompressionSample{
      reference.size(), version.size(), result.delta.size()};
  return result;
}

BuildResult Pipeline::build_inplace(ByteView reference,
                                    ByteView version) const {
  const std::uint64_t t0 = obs::now_ns();
  BuildResult result;
  const ParallelContext ctx = context(version.size());

  const ParallelDiffResult diffed = [&] {
    obs::Span span(obs::Stage::kDiff, reference.size() + version.size());
    return diff_parallel(*differ_, reference, version, segment_plan(), ctx);
  }();
  result.timing.diff_ns = obs::now_ns() - t0;
  result.timing.diff_segments = diffed.segments;

  ConvertOptions convert = options_.convert;
  convert.format = options_.inplace_format();
  const std::uint64_t t1 = obs::now_ns();
  ConvertResult converted =
      convert_to_inplace(diffed.script, reference, convert, ctx);
  result.timing.convert_ns = obs::now_ns() - t1;
  result.report = converted.report;
  result.timing.crwi_chunks = converted.report.crwi_parallel_chunks;
  result.stats.script = converted.script.summary();

  const std::uint64_t t2 = obs::now_ns();
  result.delta =
      serialize_inplace(std::move(converted.script), convert.format, reference,
                        version, options_.compress_payload);
  result.timing.encode_ns = obs::now_ns() - t2;
  result.timing.total_ns = obs::now_ns() - t0;
  result.stats.compression = CompressionSample{
      reference.size(), version.size(), result.delta.size()};
  return result;
}

Bytes Pipeline::apply(ByteView delta, ByteView reference) const {
  const auto parsed = try_parse_header(delta);
  if (!parsed) {
    throw FormatError("delta shorter than its header");
  }
  const DeltaHeader& header = parsed->first;
  if (header.in_place) {
    // The device-side contract: one buffer sized for whichever of the
    // two versions is larger, holding the reference on entry.
    Bytes buffer(reference.begin(), reference.end());
    buffer.resize(std::max<std::size_t>(header.reference_length,
                                        header.version_length));
    const length_t version_length = apply_delta_inplace(delta, buffer);
    buffer.resize(version_length);
    return buffer;
  }
  return apply_delta(delta, reference);
}

}  // namespace ipd
