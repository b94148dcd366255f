// E1 — reproduces Table 1 of the paper: compression of the delta
// algorithm without and with write offsets, and of the two in-place
// conversion policies, with lost compression split into encoding loss and
// cycle loss.
//
// Paper values (per the §7 prose): 15.3% / 17.2% / 21.2% (constant) /
// 17.7% (local-min); encoding loss 1.9%; cycle loss 4.0% (constant) vs
// 0.5% (local-min).
//
// We measure the same four columns over the synthetic corpus, for both
// differencing algorithms and (as the ablation the paper suggests in §7)
// for the redesigned varint codewords.
#include <cstdio>

#include "bench_util.hpp"
#include "delta/stats.hpp"
#include "inplace/converter.hpp"
#include "ipdelta.hpp"

namespace {

using namespace ipd;
using bench::evaluation_corpus;
using bench::rule;

struct Row {
  CompressionAggregate no_offsets;
  CompressionAggregate offsets;
  CompressionAggregate inplace_constant;
  CompressionAggregate inplace_localmin;
};

Row measure(const std::vector<VersionPair>& corpus, DifferKind differ,
            Codeword codeword) {
  Row row;
  const DeltaFormat sequential{codeword, WriteOffsets::kImplicit};
  const DeltaFormat explicit_fmt{codeword, WriteOffsets::kExplicit};

  for (const VersionPair& pair : corpus) {
    const Script script = diff_bytes(differ, pair.reference, pair.version);
    const auto sample = [&](std::uint64_t delta_size) {
      return CompressionSample{pair.reference.size(), pair.version.size(),
                               delta_size};
    };

    DeltaHeader header;
    header.reference_length = pair.reference.size();
    header.version_length = pair.version.size();
    const std::span<const CommandRef> table = script.commands();

    header.format = sequential;
    row.no_offsets.add(sample(serialize_delta(header, table).size()));
    header.format = explicit_fmt;
    row.offsets.add(sample(serialize_delta(header, table).size()));

    for (const BreakPolicy policy :
         {BreakPolicy::kConstantTime, BreakPolicy::kLocalMin}) {
      ConvertOptions copts;
      copts.policy = policy;
      copts.format = explicit_fmt;
      const ConvertResult converted =
          convert_to_inplace(script, pair.reference, copts);
      DeltaHeader out = header;
      out.in_place = true;
      const std::uint64_t size =
          serialize_delta(out, converted.script.commands()).size();
      (policy == BreakPolicy::kConstantTime ? row.inplace_constant
                                            : row.inplace_localmin)
          .add(sample(size));
    }
  }
  return row;
}

void print_row(const char* label, const Row& row) {
  const double base = row.no_offsets.weighted_percent();
  const double off = row.offsets.weighted_percent();
  const double cons = row.inplace_constant.weighted_percent();
  const double local = row.inplace_localmin.weighted_percent();

  std::printf("%s\n", label);
  std::printf("  %-18s %12s %12s %12s %12s\n", "", "no-offsets", "offsets",
              "inpl-const", "inpl-locmin");
  std::printf("  %-18s %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n", "Compression",
              base, off, cons, local);
  std::printf("  %-18s %12s %11.1f%% %11.1f%% %11.1f%%\n", "Encoding Loss",
              "", off - base, off - base, off - base);
  std::printf("  %-18s %12s %12s %11.1f%% %11.1f%%\n", "Loss from Cycles",
              "", "", cons - off, local - off);
  std::printf("  %-18s %12s %11.1f%% %11.1f%% %11.1f%%\n", "Total Loss", "",
              off - base, cons - base, local - base);
}

}  // namespace

int main() {
  const auto corpus = evaluation_corpus();
  std::uint64_t total = 0;
  for (const auto& p : corpus) total += p.version.size();
  std::printf(
      "Table 1 — compression of delta and in-place conversion algorithms\n"
      "corpus: %zu version pairs, %.1f MiB of new versions "
      "(synthetic software releases; see DESIGN.md §5)\n",
      corpus.size(), static_cast<double>(total) / (1 << 20));
  rule('=');

  std::printf(
      "paper reports (GNU/BSD corpus): no-offsets 15.3%%, offsets 17.2%%,\n"
      "  in-place constant 21.2%% (cycle loss 4.0%%), in-place local-min\n"
      "  17.7%% (cycle loss 0.5%%); encoding loss 1.9%% in both\n"
      "  (per the §7 prose; the typeset table swaps the two in-place\n"
      "  columns — see EXPERIMENTS.md)\n");
  rule();

  print_row("one-pass differencer, paper byte codewords (paper setup):",
            measure(corpus, DifferKind::kOnePass, Codeword::kPaperByte));
  rule();
  print_row("greedy differencer, paper byte codewords:",
            measure(corpus, DifferKind::kGreedy, Codeword::kPaperByte));
  rule();
  print_row(
      "one-pass differencer, varint codewords (the paper's suggested "
      "codeword redesign):",
      measure(corpus, DifferKind::kOnePass, Codeword::kVarint));
  rule();
  std::printf(
      "expected shape: offsets > no-offsets by a small encoding loss;\n"
      "local-min recovers most of the cycle loss relative to constant;\n"
      "varint codewords shrink the encoding loss, as §7 predicts.\n");
  return 0;
}
