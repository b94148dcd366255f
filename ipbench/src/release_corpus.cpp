// release_corpus: the paper's evaluation corpus, one pair at a time.
//
// 26 synthetic packages x 5 releases = 104 (reference, version) pairs of
// 24-192 KiB with heavy churn and frequent block moves (the parameters of
// bench::evaluation_corpus()). Each pair goes build_inplace -> Verifier
// (require_in_place) -> apply_delta_inplace -> apply_update_resumable on
// a journaled FlashDevice, serially. Many small inputs with many CRWI
// cycles: conversion, per-call overheads and the journaled device path
// dominate, and every input is below the 4 MiB segmentation cutoff, so
// the parallel paths are bypassed.
#include <algorithm>
#include <cstdio>
#include <exception>

#include "build_steps.hpp"
#include "core/rng.hpp"
#include "corpus/workload.hpp"
#include "device/channel.hpp"
#include "device/flash_device.hpp"
#include "device/resumable_updater.hpp"
#include "verify/verifier.hpp"
#include "workloads.hpp"

namespace ipbench {

namespace {

constexpr std::size_t kPackages = 26;
constexpr std::size_t kReleasesPerPackage = 5;
constexpr ipd::length_t kMinSize = 24 << 10;
constexpr ipd::length_t kMaxSize = 192 << 10;
constexpr std::size_t kEditsPer64k = 80;
constexpr std::size_t kPageBytes = 4096;
constexpr std::size_t kJournalBytes = 16 << 10;

}  // namespace

/// The evaluation corpus with its base sizes on a fixed ladder: each of
/// the 13 sizes evenly spaced over 24-192 KiB is one standard_corpus()
/// call of a text and a binary package of exactly that size, so every
/// seed has the same size mix (per-update latencies are then comparable
/// across seeds) while content and edits come from the seed.
std::vector<ipd::VersionPair> release_corpus_inputs(std::uint64_t seed) {
  constexpr std::size_t kRungs = kPackages / 2;
  ipd::CorpusOptions options;
  options.packages = 2;
  options.releases_per_package = kReleasesPerPackage;
  options.edits_per_64k = kEditsPer64k;
  options.mutation_model.move_weight = 1.2;
  options.mutation_model.duplicate_weight = 1.0;
  options.mutation_model.max_edit_fraction = 0.03;
  options.mutation_model.length_scale = 96;

  std::vector<ipd::VersionPair> pairs;
  for (std::size_t rung = 0; rung < kRungs; ++rung) {
    options.seed = ipd::derive_seed(seed, rung);
    options.min_file_size = options.max_file_size =
        kMinSize + (kMaxSize - kMinSize) * rung / (kRungs - 1);
    for (ipd::VersionPair& pair : ipd::standard_corpus(options)) {
      pair.name = "rung" + std::to_string(rung) + "/" + pair.name;
      pairs.push_back(std::move(pair));
    }
  }
  return pairs;
}

namespace {

/// Exact counts of one pass; identical on every pass of a seed.
struct Counts {
  double version_bytes = 0;
  double delta_bytes = 0;
  double segments = 0, copy_cmds = 0, add_cmds = 0, add_bytes = 0;
  double crwi_edges = 0, cycles_found = 0, copies_converted = 0,
         bytes_converted = 0;
  double flash_bytes = 0, flash_pages = 0, journal_records = 0;
  double ram_high_water = 0;
};

/// Per-pair seconds of one pass, indexed like the corpus.
struct PassTimes {
  double version_bytes = 0;
  std::vector<double> build_s, apply_s, update_s;
  double diff_cpu_s = 0;   ///< decomposed builds only
  double diff_wall_s = 0;  ///< decomposed builds only
};

struct BuildTimingSums {
  std::uint64_t diff_ns = 0, convert_ns = 0, encode_ns = 0, total_ns = 0;
};

struct State {
  std::vector<ipd::VersionPair> corpus;
  Builder builder{1};
  ipd::Verifier verifier{ipd::VerifyOptions{.require_in_place = true}};
  std::vector<ipd::Bytes> artifacts;  ///< first pass; later passes match
  Counts counts;
  BuildTimingSums timing;
};

void run_pair(State& s, Results& results, std::size_t i, bool decompose,
              PassTimes& times) {
  const ipd::VersionPair& pair = s.corpus[i];
  const bool first = s.artifacts.size() == i;
  const OpScope op("pair");

  BuildOutput built;
  times.build_s[i] = time_s([&] {
    built = s.builder.build(pair.reference, pair.version, decompose);
  });
  times.version_bytes += static_cast<double>(pair.version.size());
  times.diff_cpu_s += built.diff_cpu_s;
  times.diff_wall_s += built.diff_wall_s;
  s.timing.diff_ns += built.timing.diff_ns;
  s.timing.convert_ns += built.timing.convert_ns;
  s.timing.encode_ns += built.timing.encode_ns;
  s.timing.total_ns += built.timing.total_ns;
  if (first) {
    s.artifacts.push_back(built.delta);
    Counts& c = s.counts;
    c.version_bytes += static_cast<double>(pair.version.size());
    c.delta_bytes += static_cast<double>(built.delta.size());
    c.segments += static_cast<double>(built.segments);
    c.copy_cmds += static_cast<double>(built.script.copy_count);
    c.add_cmds += static_cast<double>(built.script.add_count);
    c.add_bytes += static_cast<double>(built.script.added_bytes);
    c.crwi_edges += static_cast<double>(built.report.edges);
    c.cycles_found += static_cast<double>(built.report.cycles_found);
    c.copies_converted += static_cast<double>(built.report.copies_converted);
    c.bytes_converted += static_cast<double>(built.report.bytes_converted);
    // Lemma 1: the CRWI digraph has at most L_V edges.
    results.check(built.report.edges <= pair.version.size(),
                  pair.name + ": CRWI edges exceed the version length");
  } else {
    results.check(same_bytes(built.delta, s.artifacts[i]),
                  pair.name + (decompose
                                   ? ": decomposed build differs from "
                                     "Pipeline::build_inplace"
                                   : ": artifact differs between passes"));
  }

  const ipd::Report report =
      traced("verify.check", [&] { return s.verifier.check(built.delta); });
  results.check(report.ok() && report.in_place_safe,
                pair.name + ": verifier rejected the artifact");

  ipd::Bytes buffer(std::max(pair.reference.size(), pair.version.size()));
  std::copy(pair.reference.begin(), pair.reference.end(), buffer.begin());
  ipd::length_t length = 0;
  times.apply_s[i] = time_s([&] {
    length = traced("apply.apply_delta_inplace", [&] {
      return ipd::apply_delta_inplace(built.delta, buffer);
    });
  });
  results.check(length == pair.version.size() &&
                    same_bytes(ipd::ByteView(buffer).first(length),
                               pair.version),
                pair.name + ": in-place apply mismatch");

  const std::size_t image_area =
      (std::max(pair.reference.size(), pair.version.size()) + kPageBytes - 1) /
      kPageBytes * kPageBytes;
  ipd::FlashDevice device(image_area + kJournalBytes, kPageBytes,
                          image_area + (64 << 10));
  device.load_image(pair.reference);
  const ipd::JournalRegion journal{image_area, kJournalBytes};
  ipd::clear_journal(device, journal);
  ipd::ResumableUpdateResult update;
  const double update_s = time_s([&] {
    update = traced("device.apply_update_resumable", [&] {
      return ipd::apply_update_resumable(device, built.delta,
                                         ipd::channel_28k(), journal);
    });
  });
  times.update_s[i] = update_s;
  results.check(update.update.crc_verified &&
                    same_bytes(device.inspect().first(pair.version.size()),
                               pair.version),
                pair.name + ": flash image mismatch after device update");
  if (first) {
    Counts& c = s.counts;
    c.flash_bytes += static_cast<double>(update.update.storage_bytes_written);
    c.flash_pages += static_cast<double>(update.update.storage_pages_written);
    c.journal_records += static_cast<double>(update.journal_records);
    c.ram_high_water = std::max(
        c.ram_high_water, static_cast<double>(update.update.ram_high_water));
  }
}

PassTimes run_pass(State& s, Results& results, bool decompose) {
  PassTimes times;
  times.build_s.assign(s.corpus.size(), 0.0);
  times.apply_s.assign(s.corpus.size(), 0.0);
  times.update_s.assign(s.corpus.size(), 0.0);
  for (std::size_t i = 0; i < s.corpus.size(); ++i) {
    try {
      run_pair(s, results, i, decompose, times);
    } catch (const std::exception& e) {
      results.check(false, s.corpus[i].name + ": " + e.what());
      if (s.artifacts.size() == i) s.artifacts.emplace_back();
    }
  }
  return times;
}

}  // namespace

Results run_release_corpus(const RunOptions& options) {
  Results results;
  State s;
  const double setup_s =
      timed_setup([&] { s.corpus = release_corpus_inputs(options.seed); });
  (void)run_pass(s, results, false);  // warm-up; fixes the artifacts
  s.timing = {};

  BestOf build_best, apply_best, update_best;
  std::size_t untraced_passes = 0;
  PassTimes traced_sum;
  std::size_t traced_passes = 0;
  const Measured measured = measure(options, [&](bool traced) {
    PassTimes t = run_pass(s, results, traced);
    if (!traced) {
      for (std::size_t i = 0; i < s.corpus.size(); ++i) {
        const auto bytes = static_cast<double>(s.corpus[i].version.size());
        build_best.add(i, bytes, t.build_s[i]);
        apply_best.add(i, bytes, t.apply_s[i]);
        update_best.add(i, bytes, t.update_s[i]);
      }
      ++untraced_passes;
      return;
    }
    ++traced_passes;
    traced_sum.version_bytes += t.version_bytes;
    traced_sum.diff_cpu_s += t.diff_cpu_s;
    traced_sum.diff_wall_s += t.diff_wall_s;
  });
  print_host(measured);

  // Latencies over each pair's fastest device update, as ota_fleet takes
  // each key's: the median over all samples and the per-pass tail spread
  // 11% and 24% between seeds while the host was loaded.
  std::vector<double> pair_ms;
  for (const double u : update_best.seconds()) pair_ms.push_back(u * 1e3);
  const Counts& c = s.counts;
  const Tail update_tail = tail(pair_ms);
  results.e2e("setup_s", setup_s, "s");
  results.layer("build_mb_s", build_best.mb_per_s(), "MB/s");
  results.e2e("delta_ratio", c.delta_bytes / c.version_bytes, "ratio");
  results.e2e("apply_mb_s", apply_best.mb_per_s(), "MB/s");
  results.e2e("update_ms_p50", median(pair_ms), "ms");
  results.e2e("update_ms_tail", update_tail.value, "ms");
  std::printf("release_corpus: %zu pairs, %.1f MiB of versions per pass, "
              "%zu untraced passes; update_ms_p50 and update_ms_tail "
              "(p%.1f) are over each pair's fastest device update; "
              "device_update_mb_s %.2f (best-of-N); flash_bytes_per_byte "
              "%.3f\n",
              s.corpus.size(), c.version_bytes / (1 << 20), untraced_passes,
              update_tail.percentile, update_best.mb_per_s(),
              c.flash_bytes / c.version_bytes);
  std::printf("BuildResult::timing summed over the untraced builds: diff "
              "%.1f ms, convert %.1f ms, encode %.1f ms, total %.1f ms\n",
              static_cast<double>(s.timing.diff_ns) / 1e6,
              static_cast<double>(s.timing.convert_ns) / 1e6,
              static_cast<double>(s.timing.encode_ns) / 1e6,
              static_cast<double>(s.timing.total_ns) / 1e6);
  if (!options.trace) return results;

  std::vector<ipd::ByteView> buffers;
  for (const ipd::VersionPair& p : s.corpus) buffers.push_back(p.version);
  core_probe(results, buffers);
  SpanSummary summary = summarize(Tracer::instance().spans());
  const double pairs = static_cast<double>(s.corpus.size());
  results.layer("delta.diff_ms", summary.median_ms("delta.diff_parallel"),
                "ms");
  results.layer(
      "delta.diff_mb_s",
      mb_per_s(traced_sum.version_bytes,
               static_cast<double>(summary.total_ns["delta.diff_parallel"]) /
                   1e9),
      "MB/s");
  results.layer("delta.segments", c.segments, "count");
  results.layer("delta.encode_ms",
                summary.median_ms("delta.serialize_inplace"), "ms");
  results.layer("delta.copy_cmds", c.copy_cmds, "count");
  results.layer("delta.add_cmds", c.add_cmds, "count");
  results.layer("delta.add_bytes", c.add_bytes, "B");
  results.layer("delta.diff_cpu_wall",
                traced_sum.diff_wall_s > 0
                    ? traced_sum.diff_cpu_s / traced_sum.diff_wall_s
                    : 0.0,
                "ratio");
  results.layer("inplace.convert_ms",
                summary.median_ms("inplace.convert_to_inplace"), "ms");
  results.layer("inplace.crwi_edges", c.crwi_edges, "count");
  results.layer("inplace.cycles_found", c.cycles_found, "count");
  results.layer("inplace.copies_converted", c.copies_converted, "count");
  results.layer("inplace.bytes_converted", c.bytes_converted, "B");
  results.layer("verify.ms", summary.median_ms("verify.check"), "ms");
  results.layer(
      "verify.mb_s",
      mb_per_s(c.delta_bytes * static_cast<double>(traced_passes),
               static_cast<double>(summary.total_ns["verify.check"]) / 1e9),
      "MB/s");
  results.layer("apply.inplace_ms",
                summary.median_ms("apply.apply_delta_inplace"), "ms");
  results.layer("device.update_ms",
                summary.median_ms("device.apply_update_resumable"), "ms");
  results.layer("device.flash_bytes_written", c.flash_bytes / pairs, "B");
  results.layer("device.flash_pages_written", c.flash_pages / pairs,
                "count");
  results.layer("device.ram_high_water", c.ram_high_water, "B");
  results.layer("device.journal_records", c.journal_records / pairs,
                "count");
  results.layer("device.flash_bytes_per_byte",
                c.flash_bytes / c.version_bytes, "ratio");
  finish_traced_run(results, options, measured, summary);
  return results;
}

}  // namespace ipbench
