// large_image: one 12 MiB binary firmware pair (2048 edits, length_scale
// 256, as in bench_runtime), built, verified, then applied in place; a
// scratch apply_delta of the same artifact is the reference point. Index
// build, the segmented scan, encode and apply bandwidth dominate;
// conversion is about 1% of the build. This is the workload that
// bypasses what release_corpus stresses.
//
// The timed builds run at parallelism 1: the input is above the 4 MiB
// cutoff, so the build is segmented all the same (the segments run
// inline), but its wall time does not depend on how many cores a shared
// host hands out. On a 4-vCPU host a build at parallelism 4 ran at 46 or
// 88 MB/s between runs of identical code. Each traced run adds one build
// at min(4, nproc) for the byte-identity check and delta.diff_cpu_wall.
#include <algorithm>
#include <cstdio>
#include <exception>

#include "build_steps.hpp"
#include "core/rng.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "verify/verifier.hpp"
#include "workloads.hpp"

namespace ipbench {

namespace {

constexpr ipd::length_t kImageBytes = 12 << 20;
constexpr std::size_t kEdits = 2048;
/// In-place applies per build: the apply is a small share of a pass, so
/// it is repeated to give its latency enough samples.
constexpr int kAppliesPerPass = 8;
/// The image is 48 pieces of 256 KiB (see large_image_inputs).
constexpr std::size_t kChunkBytes = 256 << 10;

}  // namespace

/// 48 binary pieces of 256 KiB, each generated and then edited from its
/// own seed derived from the run's, with the 2048 edits spread evenly
/// over the pieces; an edit stays inside its piece. One seeded 12 MiB
/// binary image differs in kind between seeds (see chunked_image), and
/// mutate() over the whole image copies all 12 MiB per edit: set-up took
/// 3.6 s, bound by memory bandwidth, and its median over a run's three
/// repetitions spread 20-31% between seeds on a shared host.
ipd::VersionPair large_image_inputs(std::uint64_t seed) {
  ipd::VersionPair pair;
  pair.name = "firmware-12MiB";
  pair.profile = ipd::FileProfile::kBinary;
  ipd::MutationModel model;
  model.length_scale = 256;
  constexpr std::size_t kPieces = kImageBytes / kChunkBytes;
  for (std::size_t k = 0; k < kPieces; ++k) {
    ipd::Rng rng(ipd::derive_seed(seed, k));
    const ipd::Bytes piece =
        ipd::generate_file(rng, kChunkBytes, pair.profile);
    const std::size_t edits = kEdits / kPieces + (k < kEdits % kPieces);
    const ipd::Bytes edited = ipd::mutate(piece, rng, edits, model);
    pair.reference.insert(pair.reference.end(), piece.begin(), piece.end());
    pair.version.insert(pair.version.end(), edited.begin(), edited.end());
  }
  return pair;
}

namespace {

struct PassTimes {
  double build_s = 0;
  std::vector<double> apply_s;
  double scratch_s = 0;
  BuildOutput built;
};

struct State {
  ipd::VersionPair pair;
  Builder builder{1};
  Builder wide{std::min<std::size_t>(4, host_threads())};
  ipd::Verifier verifier{ipd::VerifyOptions{.require_in_place = true}};
  ipd::Bytes artifact;  ///< first build; every later build must match
  ipd::Bytes buffer;
};

PassTimes run_pass(State& s, Results& results, bool decompose) {
  PassTimes t;
  const ipd::Bytes& ref = s.pair.reference;
  const ipd::Bytes& ver = s.pair.version;
  try {
    {
      const OpScope op("build");
      t.build_s =
          time_s([&] { t.built = s.builder.build(ref, ver, decompose); });
      if (s.artifact.empty()) {
        s.artifact = t.built.delta;
        results.check(t.built.report.edges <= ver.size(),
                      "large_image: CRWI edges exceed the version length");
      } else {
        results.check(same_bytes(t.built.delta, s.artifact),
                      decompose ? "large_image: decomposed build differs "
                                  "from Pipeline::build_inplace"
                                : "large_image: artifact differs between "
                                  "builds");
      }
      const ipd::Report report = traced(
          "verify.check", [&] { return s.verifier.check(t.built.delta); });
      results.check(report.ok() && report.in_place_safe,
                    "large_image: verifier rejected the artifact");
    }
    for (int k = 0; k < kAppliesPerPass; ++k) {
      s.buffer.assign(std::max(ref.size(), ver.size()), 0);
      std::copy(ref.begin(), ref.end(), s.buffer.begin());
      const OpScope op("apply");
      ipd::length_t length = 0;
      t.apply_s.push_back(time_s([&] {
        length = traced("apply.apply_delta_inplace", [&] {
          return ipd::apply_delta_inplace(t.built.delta, s.buffer);
        });
      }));
      results.check(length == ver.size() &&
                        same_bytes(ipd::ByteView(s.buffer).first(length), ver),
                    "large_image: in-place apply mismatch");
    }
    {
      const OpScope op("scratch");
      ipd::Bytes out;
      t.scratch_s = time_s([&] {
        out = traced("apply.apply_delta",
                     [&] { return ipd::apply_delta(t.built.delta, ref); });
      });
      results.check(same_bytes(out, ver), "large_image: scratch apply mismatch");
    }
  } catch (const std::exception& e) {
    results.check(false, std::string("large_image: ") + e.what());
  }
  return t;
}

}  // namespace

Results run_large_image(const RunOptions& options) {
  Results results;
  State s;
  const double setup_s =
      timed_setup([&] { s.pair = large_image_inputs(options.seed); });
  const double version_bytes = static_cast<double>(s.pair.version.size());
  (void)run_pass(s, results, false);  // warm-up: page cache, lazy pool

  BestOf build_best, apply_best, scratch_best;
  std::vector<double> apply_ms;
  std::size_t builds = 0;
  ipd::TimingBreakdown timing;
  double traced_builds = 0;
  BuildOutput last;
  const Measured measured = measure(options, [&](bool traced) {
    PassTimes t = run_pass(s, results, traced);
    if (!traced) {
      ++builds;
      build_best.add(0, version_bytes, t.build_s);
      for (const double a : t.apply_s) {
        apply_best.add(0, version_bytes, a);
        apply_ms.push_back(a * 1e3);
      }
      scratch_best.add(0, version_bytes, t.scratch_s);
      timing = t.built.timing;
      return;
    }
    traced_builds += 1;
    last = std::move(t.built);
  });
  print_host(measured);

  const Tail apply_tail = tail(apply_ms);
  results.e2e("setup_s", setup_s, "s");
  results.layer("build_mb_s", build_best.mb_per_s(), "MB/s");
  results.e2e("delta_ratio",
              static_cast<double>(s.artifact.size()) / version_bytes, "ratio");
  results.e2e("apply_mb_s", apply_best.mb_per_s(), "MB/s");
  results.e2e("update_ms_p50", median(apply_ms), "ms");
  results.e2e("update_ms_tail", apply_tail.value, "ms");
  std::printf("large_image: %.1f MiB version, %zu diff segments, %zu "
              "untraced builds; update_ms_tail is p%.1f of %zu in-place "
              "applies; scratch apply_delta reference %.1f MB/s "
              "(best-of-N)\n",
              version_bytes / (1 << 20), timing.diff_segments, builds,
              apply_tail.percentile, apply_tail.samples,
              scratch_best.mb_per_s());
  std::printf("BuildResult::timing of the last untraced build: diff %.1f ms, "
              "convert %.1f ms, encode %.1f ms, total %.1f ms\n",
              static_cast<double>(timing.diff_ns) / 1e6,
              static_cast<double>(timing.convert_ns) / 1e6,
              static_cast<double>(timing.encode_ns) / 1e6,
              static_cast<double>(timing.total_ns) / 1e6);
  if (!options.trace) return results;

  // One untraced build at min(4, nproc): the artifact must not depend on
  // the parallelism, and diff CPU / wall says how much of the fan-out the
  // host actually ran.
  BuildOutput wide;
  const double wide_s = time_s([&] {
    wide = s.wide.build(s.pair.reference, s.pair.version, true);
  });
  results.check(same_bytes(wide.delta, s.artifact),
                "large_image: artifact at parallelism " +
                    std::to_string(s.wide.parallelism()) +
                    " differs from parallelism 1");
  std::printf("parallelism %zu build: %.1f MB/s (diff %.1f ms, %.2f CPU "
              "s per wall s); parallelism 1: %.1f MB/s (best-of-N)\n",
              s.wide.parallelism(), mb_per_s(version_bytes, wide_s),
              wide.diff_wall_s * 1e3,
              wide.diff_wall_s > 0 ? wide.diff_cpu_s / wide.diff_wall_s : 0.0,
              build_best.mb_per_s());
  core_probe(results, {s.pair.reference, s.pair.version});
  SpanSummary summary = summarize(Tracer::instance().spans());
  double crc_rate = 0;
  for (const Metric& m : results.per_layer) {
    if (m.name == "core.crc32c_mb_s") crc_rate = m.value;
  }
  const double inplace_ms = summary.median_ms("apply.apply_delta_inplace");
  const double crc_ms = crc_rate > 0 ? version_bytes / crc_rate / 1e3 : 0.0;
  const double artifact_bytes = static_cast<double>(s.artifact.size());
  results.layer("delta.diff_ms", summary.median_ms("delta.diff_parallel"),
                "ms");
  results.layer("delta.diff_mb_s",
                mb_per_s(version_bytes * traced_builds,
                         static_cast<double>(
                             summary.total_ns["delta.diff_parallel"]) /
                             1e9),
                "MB/s");
  results.layer("delta.segments", static_cast<double>(wide.segments),
                "count");
  results.layer("delta.encode_ms",
                summary.median_ms("delta.serialize_inplace"), "ms");
  results.layer("delta.copy_cmds",
                static_cast<double>(last.script.copy_count), "count");
  results.layer("delta.add_cmds", static_cast<double>(last.script.add_count),
                "count");
  results.layer("delta.add_bytes",
                static_cast<double>(last.script.added_bytes), "B");
  results.layer("delta.diff_cpu_wall",
                wide.diff_wall_s > 0 ? wide.diff_cpu_s / wide.diff_wall_s
                                     : 0.0,
                "ratio");
  results.layer("inplace.convert_ms",
                summary.median_ms("inplace.convert_to_inplace"), "ms");
  results.layer("inplace.crwi_edges", static_cast<double>(last.report.edges),
                "count");
  results.layer("inplace.cycles_found",
                static_cast<double>(last.report.cycles_found), "count");
  results.layer("inplace.copies_converted",
                static_cast<double>(last.report.copies_converted), "count");
  results.layer("inplace.bytes_converted",
                static_cast<double>(last.report.bytes_converted), "B");
  results.layer("verify.ms", summary.median_ms("verify.check"), "ms");
  results.layer("verify.mb_s",
                mb_per_s(artifact_bytes * traced_builds,
                         static_cast<double>(summary.total_ns["verify.check"]) /
                             1e9),
                "MB/s");
  results.layer("apply.inplace_ms", inplace_ms, "ms");
  results.layer("apply.scratch_ms", summary.median_ms("apply.apply_delta"),
                "ms");
  results.layer("apply.inplace_noncrc_ms", inplace_ms - crc_ms, "ms");
  finish_traced_run(results, options, measured, summary);
  return results;
}

}  // namespace ipbench
