// E2 — the paper's §7 run-time comparison:
//
//   "Over all inputs, the in-place conversion algorithm completed in 56%
//    the amount of total time used by the delta compression algorithm.
//    The run-time of the in-place conversion algorithm only exceeded the
//    delta compression run-time on 0.1% of all inputs and never took more
//    than twice as much time."
//
// We time both phases per corpus pair, for both differencers and both
// cycle policies, and report the same three statistics.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "inplace/converter.hpp"
#include "ipdelta.hpp"

namespace {

using namespace ipd;

struct Stats {
  double compress_total = 0;
  double convert_total = 0;
  std::size_t pairs = 0;
  std::size_t convert_slower = 0;
  double worst_ratio = 0;
};

Stats run(const std::vector<VersionPair>& corpus, DifferKind differ,
          BreakPolicy policy) {
  Stats stats;
  for (const VersionPair& pair : corpus) {
    Script script;
    const double t_compress = bench::time_seconds([&] {
      script = diff_bytes(differ, pair.reference, pair.version);
    });
    ConvertOptions copts;
    copts.policy = policy;
    const double t_convert = bench::time_seconds([&] {
      const ConvertResult r = convert_to_inplace(script, pair.reference, copts);
      (void)r;
    });
    stats.compress_total += t_compress;
    stats.convert_total += t_convert;
    ++stats.pairs;
    if (t_convert > t_compress) ++stats.convert_slower;
    if (t_compress > 0) {
      stats.worst_ratio = std::max(stats.worst_ratio, t_convert / t_compress);
    }
  }
  return stats;
}

void report(const char* label, const Stats& s) {
  std::printf(
      "%-34s %8.3f s %8.3f s %7.1f%% %9.1f%% %8.2fx\n", label,
      s.compress_total, s.convert_total,
      100.0 * s.convert_total / s.compress_total,
      100.0 * static_cast<double>(s.convert_slower) /
          static_cast<double>(s.pairs),
      s.worst_ratio);
}

}  // namespace

int main() {
  const auto corpus = bench::evaluation_corpus();
  std::printf(
      "Runtime — in-place conversion vs delta compression (§7)\n"
      "corpus: %zu pairs; paper: conversion = 56%% of compression time,\n"
      "slower on 0.1%% of inputs, never more than 2x\n",
      corpus.size());
  bench::rule('=');
  std::printf("%-34s %10s %10s %8s %10s %9s\n", "configuration", "compress",
              "convert", "ratio", "conv>comp", "worst");
  bench::rule();

  report("one-pass + local-min (paper setup)",
         run(corpus, DifferKind::kOnePass, BreakPolicy::kLocalMin));
  report("one-pass + constant",
         run(corpus, DifferKind::kOnePass, BreakPolicy::kConstantTime));
  report("greedy   + local-min",
         run(corpus, DifferKind::kGreedy, BreakPolicy::kLocalMin));
  report("greedy   + constant",
         run(corpus, DifferKind::kGreedy, BreakPolicy::kConstantTime));

  bench::rule();
  // The other side of §2's trade: the exact (suffix-array) greedy pays
  // for its optimal encodings with construction time the linear
  // algorithms avoid. Sampled — that cost is the point.
  {
    double t_exact = 0, t_onepass = 0;
    std::size_t sampled = 0;
    for (std::size_t i = 0; i < corpus.size(); i += 13) {
      const VersionPair& pair = corpus[i];
      t_exact += bench::time_seconds([&] {
        (void)diff_bytes(DifferKind::kSuffixGreedy, pair.reference,
                         pair.version);
      });
      t_onepass += bench::time_seconds([&] {
        (void)diff_bytes(DifferKind::kOnePass, pair.reference, pair.version);
      });
      ++sampled;
    }
    std::printf(
        "differencer speed, %zu-pair sample (§2's time/compression trade):\n"
        "  suffix-greedy (exact)  %8.3f s\n"
        "  one-pass (linear)      %8.3f s   (%.1fx faster)\n",
        sampled, t_exact, t_onepass, t_exact / t_onepass);
  }

  bench::rule();
  // Parallel pipeline scaling: one large pair (big enough to clear the
  // default 4 MiB segmentation cutoff), built through ipd::Pipeline at
  // increasing parallelism. The contract under test is twofold: the
  // deltas are byte-identical at every width, and parallelism=4 beats
  // serial by >= 2x wall clock on this input class (ISSUE 5 acceptance).
  bool scaling_ok = true;
  {
    Rng rng(0x8A11E7);
    const std::size_t size = 12 << 20;
    const Bytes ref = generate_file(rng, size, FileProfile::kBinary);
    MutationModel model;
    model.length_scale = 256;
    const Bytes ver = mutate(ref, rng, 2048, model);

    std::printf("parallel pipeline scaling, %zu MiB binary pair:\n",
                size >> 20);
    std::printf("  %-12s %12s %10s %10s %10s %10s %10s\n", "parallelism",
                "build", "speedup", "segments", "diff", "convert", "encode");
    constexpr std::size_t kWidths[] = {1, 2, 4};
    constexpr int kRounds = 5;
    std::vector<std::unique_ptr<Pipeline>> pipelines;
    for (const std::size_t parallelism : kWidths) {
      PipelineOptions options;
      options.parallelism = parallelism;
      pipelines.push_back(std::make_unique<Pipeline>(options));
      // Warm once (page cache, lazy pool).
      (void)pipelines.back()->build_inplace(ref, ver);
    }
    // Rounds interleave the widths, so a phase of load from other
    // tenants falls on serial and parallel builds alike; each width
    // keeps its best of kRounds.
    std::vector<BuildResult> results(pipelines.size());
    std::vector<double> seconds(pipelines.size(), 1e30);
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t w = 0; w < pipelines.size(); ++w) {
        const double t = bench::time_seconds(
            [&] { results[w] = pipelines[w]->build_inplace(ref, ver); });
        seconds[w] = std::min(seconds[w], t);
      }
    }
    const double serial_seconds = seconds[0];
    const double p4_seconds = seconds[2];
    for (std::size_t w = 0; w < pipelines.size(); ++w) {
      if (results[w].delta != results[0].delta) {
        std::printf("  DETERMINISM VIOLATION at parallelism=%zu\n",
                    kWidths[w]);
        scaling_ok = false;
      }
      const TimingBreakdown& timing = results[w].timing;
      std::printf(
          "  %-12zu %10.3f s %9.2fx %10zu %8.0f ms %8.0f ms %8.0f ms\n",
          kWidths[w], seconds[w], serial_seconds / seconds[w],
          timing.diff_segments, static_cast<double>(timing.diff_ns) / 1e6,
          static_cast<double>(timing.convert_ns) / 1e6,
          static_cast<double>(timing.encode_ns) / 1e6);
    }
    const double speedup = serial_seconds / p4_seconds;
    const double probe = bench::thread_scaling(4);
    // The >= 2x gate only means something where 4 threads can actually
    // run: on hosts with fewer than 4 cores, or whose raw 4-thread probe
    // reads below 3x because other tenants hold the cores, the
    // byte-identity assertion above still holds (that is the contract),
    // but wall clock cannot.
    if (effective_parallelism(0) < 4 || probe < 3.0) {
      std::printf(
          "  parallelism=4 speedup %.2fx — gate skipped, host has %zu "
          "core(s); raw 4-thread probe %.2fx (gate needs 4 cores and "
          ">= 3.00x)\n",
          speedup, effective_parallelism(0), probe);
    } else if (speedup < 2.0) {
      std::printf(
          "  FAIL: parallelism=4 speedup %.2fx < 2x; raw 4-thread probe "
          "%.2fx\n",
          speedup, probe);
      scaling_ok = false;
    } else {
      std::printf(
          "  parallelism=4 speedup %.2fx (>= 2x required); raw 4-thread "
          "probe %.2fx\n",
          speedup, probe);
    }
  }

  bench::rule();
  std::printf(
      "expected shape: conversion takes a fraction of compression time\n"
      "(the ratio column), is almost never slower per input, and the two\n"
      "cycle policies are indistinguishable on run-time (§7).\n");
  return scaling_ok ? 0 : 1;
}
