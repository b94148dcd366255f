// Cross-module integration: every invariant of DESIGN.md §7 exercised over
// the synthetic corpus and the adversarial constructions, under every
// differ × policy × format combination.
#include <gtest/gtest.h>

#include "adversary/constructions.hpp"
#include "apply/apply.hpp"
#include "apply/inplace_apply.hpp"
#include "apply/oracle.hpp"
#include "corpus/workload.hpp"
#include "inplace/converter.hpp"
#include "ipdelta.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

struct EndToEndCase {
  DifferKind differ;
  BreakPolicy policy;
  DeltaFormat format;
};

std::string case_name(const ::testing::TestParamInfo<EndToEndCase>& info) {
  std::string n = std::string(differ_name(info.param.differ)) + "_" +
                  policy_name(info.param.policy) + "_" +
                  (info.param.format.codeword == Codeword::kPaperByte
                       ? "paper"
                       : "varint");
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

class EndToEnd : public ::testing::TestWithParam<EndToEndCase> {};

std::vector<EndToEndCase> make_cases() {
  std::vector<EndToEndCase> cases;
  for (const DifferKind differ :
       {DifferKind::kGreedy, DifferKind::kOnePass}) {
    for (const BreakPolicy policy :
         {BreakPolicy::kConstantTime, BreakPolicy::kLocalMin}) {
      for (const DeltaFormat format : {kPaperExplicit, kVarintExplicit}) {
        cases.push_back({differ, policy, format});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, EndToEnd, ::testing::ValuesIn(make_cases()),
                         case_name);

TEST_P(EndToEnd, CorpusSweepAllInvariants) {
  const EndToEndCase& param = GetParam();
  for (const VersionPair& pair : small_corpus()) {
    // Invariant 1: diff roundtrip.
    const Script script =
        diff_bytes(param.differ, pair.reference, pair.version);
    ASSERT_NO_THROW(script.validate(pair.reference.size(),
                                    pair.version.size()))
        << pair.name;
    ASSERT_TRUE(
        test::bytes_equal(pair.version, apply_script(script, pair.reference)))
        << pair.name;

    // Invariants 2-4: conversion yields a conflict-free topological order
    // that reconstructs in place.
    ConvertOptions copts;
    copts.policy = param.policy;
    copts.format = param.format;
    const ConvertResult converted =
        convert_to_inplace(script, pair.reference, copts);
    ASSERT_TRUE(satisfies_equation2(converted.script)) << pair.name;
    ASSERT_TRUE(analyze_conflicts(converted.script).in_place_safe())
        << pair.name;

    Bytes buffer = pair.reference;
    buffer.resize(std::max(pair.reference.size(), pair.version.size()));
    apply_inplace(converted.script, buffer, pair.reference.size(),
                  pair.version.size());
    ASSERT_TRUE(test::bytes_equal(
        pair.version, ByteView(buffer).first(pair.version.size())))
        << pair.name;

    // Invariant 6: size accounting. Serialized converted delta equals the
    // unconverted explicit-format delta plus the reported conversion cost
    // and minus coalescing savings; check the coalescing-off variant
    // exactly.
    ConvertOptions nocoalesce = copts;
    nocoalesce.coalesce_adds = false;
    const ConvertResult raw =
        convert_to_inplace(script, pair.reference, nocoalesce);

    DeltaHeader header;
    header.format = param.format;
    header.reference_length = pair.reference.size();
    header.version_length = pair.version.size();
    const std::size_t before_size = test::encode(header, script).size();
    const std::size_t after_size = test::encode(header, raw.script).size();
    // Exact payload accounting; the container header's payload-length
    // varint may grow by a byte when the payload crosses a 7-bit boundary.
    ASSERT_GE(after_size, before_size + raw.report.conversion_cost)
        << pair.name;
    ASSERT_LE(after_size, before_size + raw.report.conversion_cost + 1)
        << pair.name;
  }
}

TEST_P(EndToEnd, WireFormatRoundTripOverCorpus) {
  const EndToEndCase& param = GetParam();
  PipelineOptions options;
  options.differ = param.differ;
  options.convert.policy = param.policy;
  options.format = param.format;

  for (const VersionPair& pair : small_corpus(3)) {
    const Bytes delta = Pipeline(options).build_inplace(pair.reference, pair.version).delta;
    Bytes buffer = pair.reference;
    buffer.resize(std::max(pair.reference.size(), pair.version.size()));
    const length_t n = apply_delta_inplace(delta, buffer);
    ASSERT_EQ(n, pair.version.size());
    ASSERT_TRUE(
        test::bytes_equal(pair.version, ByteView(buffer).first(n)))
        << pair.name;
  }
}

TEST(Integration, Lemma1HoldsAcrossCorpusAndAdversaries) {
  for (const VersionPair& pair : small_corpus(9)) {
    const Script script =
        diff_bytes(DifferKind::kOnePass, pair.reference, pair.version);
    const auto copies = sorted_copies(script.commands());
    const CrwiGraph g = CrwiGraph::build(copies, pair.version.size());
    EXPECT_LE(g.edge_count(), pair.version.size()) << pair.name;
  }
  for (const length_t block : {4ull, 16ull, 64ull}) {
    const Fig3Instance inst = make_fig3_quadratic(block);
    const auto copies = sorted_copies(inst.script.commands());
    const CrwiGraph g = CrwiGraph::build(copies, block * block);
    EXPECT_LE(g.edge_count(), block * block);
  }
}

TEST(Integration, ConversionGrowthIsBoundedByReportedCost) {
  // Conversion can only grow a delta, and by no more than the reported
  // cycle-breaking cost (coalescing may claw some back; the container's
  // payload-length varint may add a byte).
  for (const VersionPair& pair : small_corpus(5)) {
    const Bytes plain = Pipeline({.format = kPaperExplicit})
                            .build_delta(pair.reference, pair.version)
                            .delta;
    const BuildResult built =
        Pipeline().build_inplace(pair.reference, pair.version);
    const Bytes& inplace = built.delta;
    EXPECT_GE(inplace.size() + 2, plain.size()) << pair.name;
    EXPECT_LE(inplace.size(),
              plain.size() + built.report.conversion_cost + 1)
        << pair.name;
  }
}

TEST(Integration, VersionChainSurvivesRepeatedInplaceUpdates) {
  // Apply a whole release chain to one buffer, as a device would over its
  // lifetime: v0 -> v1 -> v2 -> v3.
  CorpusOptions options;
  options.packages = 1;
  options.releases_per_package = 5;
  options.min_file_size = 8 << 10;
  options.max_file_size = 16 << 10;
  const auto pairs = standard_corpus(options);
  ASSERT_EQ(pairs.size(), 4u);

  std::size_t max_size = pairs[0].reference.size();
  for (const VersionPair& p : pairs) {
    max_size = std::max(max_size, p.version.size());
  }
  Bytes buffer = pairs[0].reference;
  buffer.resize(max_size);

  for (const VersionPair& p : pairs) {
    const Bytes delta = Pipeline().build_inplace(p.reference, p.version).delta;
    const length_t n = apply_delta_inplace(delta, buffer);
    ASSERT_EQ(n, p.version.size());
    ASSERT_TRUE(test::bytes_equal(p.version, ByteView(buffer).first(n)))
        << p.name;
  }
}

TEST(Integration, AdversariesEndToEndThroughWireFormat) {
  std::vector<AdversaryInstance> instances;
  instances.push_back(make_rotation(3000, 1000));
  Rng rng(2);
  instances.push_back(make_block_permutation(64, random_permutation(rng, 30)));
  const Fig2Instance fig2 = make_fig2_tree(5);
  instances.push_back({fig2.script, fig2.reference, fig2.version});
  const Fig3Instance fig3 = make_fig3_quadratic(32);
  instances.push_back({fig3.script, fig3.reference, fig3.version});

  for (const AdversaryInstance& inst : instances) {
    const Bytes delta =
        make_inplace_delta(inst.script, inst.reference, inst.version, {});
    Bytes buffer = inst.reference;
    buffer.resize(std::max(inst.reference.size(), inst.version.size()));
    const length_t n = apply_delta_inplace(delta, buffer);
    ASSERT_EQ(n, inst.version.size());
    ASSERT_TRUE(test::bytes_equal(inst.version, ByteView(buffer).first(n)));
  }
}

TEST(Integration, RandomizedStress) {
  // 30 random (reference, version) pairs with aggressive edits, each run
  // through the full pipeline with randomized knobs.
  Rng rng(0xABCDEF);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t size = rng.range(0, 20000);
    const Bytes ref = test::random_bytes(trial * 2 + 1, size);
    Bytes ver = mutate(ref, rng, rng.below(40));

    PipelineOptions options;
    options.differ =
        rng.chance(0.5) ? DifferKind::kGreedy : DifferKind::kOnePass;
    options.convert.policy = rng.chance(0.5) ? BreakPolicy::kConstantTime
                                             : BreakPolicy::kLocalMin;
    options.format = rng.chance(0.5) ? kPaperExplicit : kVarintExplicit;
    options.convert.coalesce_adds = rng.chance(0.5);

    const Bytes delta = Pipeline(options).build_inplace(ref, ver).delta;
    Bytes buffer = ref;
    buffer.resize(std::max(ref.size(), ver.size()));
    const length_t n = apply_delta_inplace(delta, buffer);
    ASSERT_EQ(n, ver.size()) << "trial " << trial;
    ASSERT_TRUE(test::bytes_equal(ver, ByteView(buffer).first(n)))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace ipd
