// Ablations for the design choices DESIGN.md §6 calls out:
//   A. matching granularity — block-aligned baseline (§2's pre-history)
//      vs the byte-granularity differencers;
//   B. cycle-breaking policy — constant / local-min / SCC-global-min;
//   C. add coalescing in the converter — on vs off;
//   (D, the script optimizer, was removed with delta/optimize: it was
//   a no-op on every byte differencer; EXPERIMENTS.md keeps its result.)
//   E. streaming vs batch application — parser RAM vs whole-delta RAM;
//   F. journaled (crash-tolerant) updates — flash-write overhead.
#include <cstdio>

#include "apply/stream_applier.hpp"
#include "bench_util.hpp"
#include "delta/block_differ.hpp"
#include "delta/suffix_differ.hpp"
#include "delta/stats.hpp"
#include "device/resumable_updater.hpp"
#include "inplace/converter.hpp"
#include "ipdelta.hpp"

namespace {

using namespace ipd;
using bench::evaluation_corpus;
using bench::rule;

std::uint64_t encoded_size(const Script& script, length_t ref_len,
                           length_t ver_len, DeltaFormat format) {
  DeltaFile file;
  file.format = format;
  file.reference_length = ref_len;
  file.version_length = ver_len;
  file.script = script;
  return serialize_delta(file).size();
}

void ablation_granularity(const std::vector<VersionPair>& corpus) {
  std::printf("A. matching granularity (delta %% of version; lower wins)\n");
  struct Entry {
    const char* name;
    CompressionAggregate agg;
  };
  Entry entries[] = {{"block-aligned 4096", {}},
                     {"block-aligned 512", {}},
                     {"one-pass (byte)", {}},
                     {"greedy (byte)", {}}};
  for (const VersionPair& pair : corpus) {
    const Script scripts[] = {
        BlockDiffer(DifferOptions{.block_size = 4096})
            .diff(pair.reference, pair.version),
        BlockDiffer(DifferOptions{.block_size = 512})
            .diff(pair.reference, pair.version),
        diff_bytes(DifferKind::kOnePass, pair.reference, pair.version),
        diff_bytes(DifferKind::kGreedy, pair.reference, pair.version)};
    for (std::size_t i = 0; i < 4; ++i) {
      entries[i].agg.add(CompressionSample{
          pair.reference.size(), pair.version.size(),
          encoded_size(scripts[i], pair.reference.size(),
                       pair.version.size(), kPaperSequential)});
    }
  }
  for (const Entry& e : entries) {
    std::printf("  %-22s %8s\n", e.name,
                format_percent(e.agg.weighted_percent()).c_str());
  }

  // The suffix-array exact greedy ([11]/[9]-style, no hash shortcuts) is
  // the compression ceiling; sampled because its construction cost is
  // exactly the quadratic-era expense the linear-time algorithms avoid.
  {
    CompressionAggregate exact, onepass;
    for (std::size_t i = 0; i < corpus.size(); i += 9) {
      const VersionPair& pair = corpus[i];
      const Script s_exact =
          SuffixDiffer(DifferOptions{}).diff(pair.reference, pair.version);
      const Script s_onepass =
          diff_bytes(DifferKind::kOnePass, pair.reference, pair.version);
      exact.add(CompressionSample{
          pair.reference.size(), pair.version.size(),
          encoded_size(s_exact, pair.reference.size(), pair.version.size(),
                       kPaperSequential)});
      onepass.add(CompressionSample{
          pair.reference.size(), pair.version.size(),
          encoded_size(s_onepass, pair.reference.size(),
                       pair.version.size(), kPaperSequential)});
    }
    std::printf("  -- exact-greedy ceiling (12-pair sample):\n");
    std::printf("  %-22s %8s\n", "suffix-greedy (exact)",
                format_percent(exact.weighted_percent()).c_str());
    std::printf("  %-22s %8s\n", "one-pass (same sample)",
                format_percent(onepass.weighted_percent()).c_str());
  }

  // Record-aligned data ([13]-style databases) is the one workload where
  // alignment is harmless — length-preserving record updates keep every
  // untouched block in place.
  std::printf("  -- record-aligned corpus (alignment-friendly):\n");
  Entry rec_entries[] = {{"block-aligned 128", {}}, {"one-pass (byte)", {}}};
  Rng rng(0x2EC);
  for (int i = 0; i < 8; ++i) {
    const Bytes ref =
        generate_file(rng, 512 * kRecordSize, FileProfile::kRecords);
    const Bytes ver = mutate(ref, rng, 40, record_aligned_model());
    const Script scripts[] = {
        BlockDiffer(DifferOptions{.block_size = kRecordSize}).diff(ref, ver),
        diff_bytes(DifferKind::kOnePass, ref, ver)};
    for (std::size_t s = 0; s < 2; ++s) {
      rec_entries[s].agg.add(CompressionSample{
          ref.size(), ver.size(),
          encoded_size(scripts[s], ref.size(), ver.size(),
                       kPaperSequential)});
    }
  }
  for (const Entry& e : rec_entries) {
    std::printf("  %-22s %8s\n", e.name,
                format_percent(e.agg.weighted_percent()).c_str());
  }
  rule();
}

void ablation_policies(const std::vector<VersionPair>& corpus) {
  std::printf(
      "B. cycle-breaking policy (conversion cost over the corpus)\n");
  std::printf("  %-18s %12s %10s %12s\n", "policy", "cost (B)", "copies",
              "time");
  for (const BreakPolicy policy :
       {BreakPolicy::kConstantTime, BreakPolicy::kLocalMin,
        BreakPolicy::kSccGlobalMin}) {
    std::uint64_t cost = 0;
    std::size_t converted = 0;
    double seconds = 0;
    for (const VersionPair& pair : corpus) {
      const Script script =
          diff_bytes(DifferKind::kOnePass, pair.reference, pair.version);
      ConvertOptions copts;
      copts.policy = policy;
      ConvertResult r;
      seconds += bench::time_seconds(
          [&] { r = convert_to_inplace(script, pair.reference, copts); });
      cost += r.report.conversion_cost;
      converted += r.report.copies_converted;
    }
    std::printf("  %-18s %12llu %10zu %9.3f s\n", policy_name(policy),
                static_cast<unsigned long long>(cost), converted, seconds);
  }
  rule();
}

void ablation_coalescing(const std::vector<VersionPair>& corpus) {
  std::printf("C. converter add coalescing (total in-place delta bytes)\n");
  for (const bool coalesce : {true, false}) {
    std::uint64_t total = 0;
    for (const VersionPair& pair : corpus) {
      PipelineOptions options;
      options.convert.coalesce_adds = coalesce;
      total += Pipeline(options).build_inplace(pair.reference, pair.version).delta
                   .size();
    }
    std::printf("  coalesce_adds=%-5s %12llu B\n", coalesce ? "on" : "off",
                static_cast<unsigned long long>(total));
  }
  rule();
}

void ablation_streaming(const std::vector<VersionPair>& corpus) {
  std::printf(
      "E. streaming vs batch application (device RAM for the delta)\n");
  std::uint64_t delta_total = 0, peak_total = 0;
  std::size_t pairs = 0;
  for (const VersionPair& pair : corpus) {
    if (++pairs > 16) break;  // a sample is enough
    const Bytes delta = Pipeline().build_inplace(pair.reference, pair.version).delta;
    Bytes buffer = pair.reference;
    buffer.resize(std::max(pair.reference.size(), pair.version.size()));
    StreamingInplaceApplier applier(buffer);
    for (std::size_t pos = 0; pos < delta.size(); pos += 1024) {
      applier.feed(ByteView(delta).subspan(
          pos, std::min<std::size_t>(1024, delta.size() - pos)));
    }
    delta_total += delta.size();
    peak_total += applier.peak_buffered();
  }
  std::printf(
      "  batch RAM (whole delta)   %10llu B\n"
      "  streaming RAM (parser)    %10llu B  (%.1fx less)\n",
      static_cast<unsigned long long>(delta_total),
      static_cast<unsigned long long>(peak_total),
      static_cast<double>(delta_total) / static_cast<double>(peak_total));
  rule();
}

void ablation_compression(const std::vector<VersionPair>& corpus) {
  std::printf(
      "G. secondary (LZSS) payload compression (total in-place delta "
      "bytes)\n");
  std::uint64_t plain = 0, compressed = 0;
  double encode_seconds = 0;
  for (const VersionPair& pair : corpus) {
    PipelineOptions options;
    plain += Pipeline(options).build_inplace(pair.reference, pair.version).delta
                 .size();
    options.compress_payload = true;
    encode_seconds += bench::time_seconds([&] {
      compressed +=
          Pipeline(options).build_inplace(pair.reference, pair.version).delta.size();
    });
  }
  std::printf(
      "  uncompressed  %12llu B\n  lzss          %12llu B  (%.1f%% of "
      "plain; %0.2f s incl. diff+convert)\n",
      static_cast<unsigned long long>(plain),
      static_cast<unsigned long long>(compressed),
      100.0 * static_cast<double>(compressed) / static_cast<double>(plain),
      encode_seconds);
  rule();
}

void ablation_journal() {
  std::printf("F. crash-tolerant (journaled) update overhead\n");
  Rng rng(0xAB1A);
  const Bytes v1 = generate_file(rng, 96 << 10, FileProfile::kBinary);
  Bytes shifted = v1;
  std::copy(shifted.begin() + 2000, shifted.begin() + 60000,
            shifted.begin() + 2500);
  const Bytes v2 = mutate(shifted, rng, 20);
  const Bytes delta = Pipeline().build_inplace(v1, v2).delta;

  const std::size_t image_area = 128 << 10;
  const JournalRegion journal{image_area, 16 << 10};

  FlashDevice plain_dev(image_area + journal.size, 512, 1 << 20);
  plain_dev.load_image(v1);
  const UpdateResult plain = apply_update(plain_dev, delta, channel_28k());

  FlashDevice jdev(image_area + journal.size, 512, 1 << 20);
  jdev.load_image(v1);
  clear_journal(jdev, journal);
  jdev.reset_stats();
  const ResumableUpdateResult journaled =
      apply_update_resumable(jdev, delta, channel_28k(), journal);

  std::printf(
      "  plain updater:     %10llu B written, %6llu page touches\n"
      "  journaled updater: %10llu B written, %6llu page touches "
      "(%zu records)\n"
      "  write overhead: %.2fx\n",
      static_cast<unsigned long long>(plain.storage_bytes_written),
      static_cast<unsigned long long>(plain.storage_pages_written),
      static_cast<unsigned long long>(journaled.update.storage_bytes_written),
      static_cast<unsigned long long>(journaled.update.storage_pages_written),
      journaled.journal_records,
      static_cast<double>(journaled.update.storage_bytes_written) /
          static_cast<double>(plain.storage_bytes_written));
  rule();
}

}  // namespace

int main() {
  std::printf("Ablations for DESIGN.md §6 design choices\n");
  rule('=');
  const auto corpus = evaluation_corpus();
  ablation_granularity(corpus);
  ablation_policies(corpus);
  ablation_coalescing(corpus);
  ablation_streaming(corpus);
  ablation_compression(corpus);
  ablation_journal();
  std::printf(
      "expected shape: byte granularity beats block alignment decisively\n"
      "(§2); local-min & scc-global-min beat constant on cost at similar\n"
      "time; coalescing shrinks deltas; streaming\n"
      "cuts delta-staging RAM by orders of magnitude; journaling costs a\n"
      "modest write overhead.\n");
  return 0;
}
