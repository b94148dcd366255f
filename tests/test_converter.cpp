#include "inplace/converter.hpp"

#include <gtest/gtest.h>

#include "adversary/constructions.hpp"
#include "apply/apply.hpp"
#include "apply/inplace_apply.hpp"
#include "apply/oracle.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "delta/differ.hpp"
#include "ipdelta.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

using test::A;
using test::C;
using test::script_of;

// Full-fidelity check: the converted script must satisfy Equation 2, pass
// the oracle, and materialise the identical version when applied in the
// reference's own buffer.
void expect_inplace_equivalent(const Script& original,
                               const Script& converted, ByteView reference) {
  const Bytes expected = apply_script(original, reference);
  ASSERT_NO_THROW(converted.validate(reference.size(), expected.size()));
  EXPECT_TRUE(satisfies_equation2(converted));
  EXPECT_TRUE(analyze_conflicts(converted).in_place_safe());

  Bytes buffer(reference.begin(), reference.end());
  buffer.resize(std::max(reference.size(), expected.size()));
  apply_inplace(converted, buffer, reference.size(), expected.size());
  buffer.resize(expected.size());
  EXPECT_TRUE(test::bytes_equal(expected, buffer));
}

class ConverterPolicyTest : public ::testing::TestWithParam<BreakPolicy> {};
INSTANTIATE_TEST_SUITE_P(Policies, ConverterPolicyTest,
                         ::testing::Values(BreakPolicy::kConstantTime,
                                           BreakPolicy::kLocalMin,
                                           BreakPolicy::kExactOptimal,
                                           BreakPolicy::kSccGlobalMin),
                         [](const auto& info) {
                           std::string n = policy_name(info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST_P(ConverterPolicyTest, ConflictFreeScriptPassesThroughUnconverted) {
  const Bytes ref = test::ramp_bytes(100);
  // Pure left-shift copies: reads always ahead of writes.
  const Script script = script_of({C(50, 0, 25), C(80, 25, 20), A(45, "xyz")});
  const ConvertResult r =
      convert_to_inplace(script, ref, {.policy = GetParam()});
  EXPECT_EQ(r.report.copies_converted, 0u);
  EXPECT_EQ(r.report.cycles_found, 0u);
  EXPECT_EQ(r.script.summary().copy_count, 2u);
  expect_inplace_equivalent(script, r.script, ref);
}

TEST_P(ConverterPolicyTest, ReorderingAloneResolvesChains) {
  const Bytes ref = test::ramp_bytes(40);
  // In given order, command 0 writes [0,9] which command 1 then reads —
  // but applying 1 before 0 is conflict-free. No conversion needed.
  const Script script = script_of({C(20, 0, 10), C(0, 10, 10), C(20, 20, 20)});
  const ConvertResult r =
      convert_to_inplace(script, ref, {.policy = GetParam()});
  EXPECT_EQ(r.report.copies_converted, 0u);
  EXPECT_EQ(r.script.summary().copy_count, 3u);
  expect_inplace_equivalent(script, r.script, ref);
  // The emitted copy order must place the [0,*]-reading command first.
  ASSERT_FALSE(r.script.commands()[0].is_add());
  EXPECT_EQ(r.script.commands()[0].from, 0u);
}

TEST_P(ConverterPolicyTest, RotationRequiresExactlyOneConversion) {
  const AdversaryInstance inst = make_rotation(1000, 400);
  const ConvertResult r =
      convert_to_inplace(inst.script, inst.reference, {.policy = GetParam()});
  EXPECT_EQ(r.report.copies_converted, 1u);
  expect_inplace_equivalent(inst.script, r.script, inst.reference);
  // The converted add carries real reference bytes.
  EXPECT_EQ(r.script.summary().added_bytes, r.report.bytes_converted);
}

TEST_P(ConverterPolicyTest, PermutationAdversaries) {
  Rng rng(99);
  for (int trial = 0; trial < 5; ++trial) {
    const auto perm = random_permutation(rng, 40);
    const AdversaryInstance inst = make_block_permutation(16, perm);
    const ConvertResult r = convert_to_inplace(inst.script, inst.reference,
                                               {.policy = GetParam()});
    expect_inplace_equivalent(inst.script, r.script, inst.reference);
  }
}

TEST_P(ConverterPolicyTest, RealDiffOutputsConvertCleanly) {
  Rng rng(7);
  const Bytes ref = test::random_bytes(1, 40000);
  Bytes ver = ref;
  // Shuffle some blocks around to force conflicts and cycles.
  for (int i = 0; i < 6; ++i) {
    const std::size_t a = rng.below(ver.size() - 2000);
    const std::size_t b = rng.below(ver.size() - 2000);
    for (std::size_t k = 0; k < 1500; ++k) std::swap(ver[a + k], ver[b + k]);
  }
  for (const DifferKind differ :
       {DifferKind::kGreedy, DifferKind::kOnePass}) {
    const Script script = diff_bytes(differ, ref, ver);
    const ConvertResult r =
        convert_to_inplace(script, ref, {.policy = GetParam()});
    expect_inplace_equivalent(script, r.script, ref);
  }
}

TEST(Converter, LocalMinNeverCostsMoreThanConstantOnPermutations) {
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    const auto perm = random_permutation(rng, 60);
    const AdversaryInstance inst = make_block_permutation(32, perm);
    const ConvertResult constant = convert_to_inplace(
        inst.script, inst.reference, {.policy = BreakPolicy::kConstantTime});
    const ConvertResult local = convert_to_inplace(
        inst.script, inst.reference, {.policy = BreakPolicy::kLocalMin});
    // Uniform costs here, so both should convert the same number; the
    // point is the report accounting stays consistent.
    EXPECT_EQ(local.report.copies_converted,
              constant.report.copies_converted);
  }
}

TEST(Converter, ExactBeatsLocalMinOnFig2) {
  const Fig2Instance inst = make_fig2_tree(5);
  const ConvertResult local = convert_to_inplace(
      inst.script, inst.reference, {.policy = BreakPolicy::kLocalMin});
  const ConvertResult exact = convert_to_inplace(
      inst.script, inst.reference, {.policy = BreakPolicy::kExactOptimal});
  EXPECT_EQ(local.report.copies_converted, inst.leaf_count);
  EXPECT_EQ(exact.report.copies_converted, 1u);
  EXPECT_LT(exact.report.conversion_cost, local.report.conversion_cost);
  EXPECT_TRUE(exact.report.exact_was_optimal);
  expect_inplace_equivalent(inst.script, exact.script, inst.reference);
  expect_inplace_equivalent(inst.script, local.script, inst.reference);
}

TEST(Converter, AddsAreEmittedAfterAllCopies) {
  const AdversaryInstance inst = make_rotation(500, 100);
  // A rotation variant with an add in front, to prove it moves to the back.
  Script input;
  input.push_add(0, ByteView(inst.version).first(7));
  input.push(CopyCommand{107, 7, 393});
  input.push(CopyCommand{0, 400, 100});
  const Bytes expected = apply_script(input, inst.reference);

  const ConvertResult r = convert_to_inplace(input, inst.reference, {});
  bool seen_add = false;
  for (const CommandRef& c : r.script.commands()) {
    if (c.is_add()) {
      seen_add = true;
    } else {
      EXPECT_FALSE(seen_add) << "copy after an add";
    }
  }
  expect_inplace_equivalent(input, r.script, inst.reference);
}

TEST(Converter, CoalescingMergesAdjacentAdds) {
  const Bytes ref = test::ramp_bytes(64);
  // Three adjacent adds plus a copy that must convert (self-swap cycle).
  const Script script = script_of({
      C(32, 0, 16),
      C(0, 32, 16),  // 2-cycle with the first copy
      A(16, "aaaaaaaa"),
      A(24, "bbbbbbbb"),
      C(48, 48, 16),
  });
  ConvertOptions merged_opts;
  merged_opts.coalesce_adds = true;
  ConvertOptions split_opts;
  split_opts.coalesce_adds = false;
  const ConvertResult merged = convert_to_inplace(script, ref, merged_opts);
  const ConvertResult split = convert_to_inplace(script, ref, split_opts);
  expect_inplace_equivalent(script, merged.script, ref);
  expect_inplace_equivalent(script, split.script, ref);
  EXPECT_LT(merged.script.summary().add_count,
            split.script.summary().add_count);
}

TEST(Converter, ReportAccountingIsExact) {
  const AdversaryInstance inst =
      make_block_permutation(64, single_cycle_permutation(8));
  const ConvertResult r = convert_to_inplace(inst.script, inst.reference, {});
  EXPECT_EQ(r.report.copies_in, 8u);
  EXPECT_EQ(r.report.adds_in, 0u);
  EXPECT_EQ(r.report.edges, 8u);
  EXPECT_EQ(r.report.cycles_found, 1u);
  EXPECT_EQ(r.report.copies_converted, 1u);
  EXPECT_EQ(r.report.bytes_converted, 64u);
  const CodewordCostModel model(kPaperExplicit, inst.version.size());
  EXPECT_EQ(r.report.conversion_cost,
            model.conversion_cost(CopyCommand{0, 0, 64}));
}

TEST(Converter, SccPolicyReportsRoundsAndMatchesExactOnSingleCycles) {
  const AdversaryInstance inst =
      make_block_permutation(64, single_cycle_permutation(12));
  ConvertOptions scc_opts;
  scc_opts.policy = BreakPolicy::kSccGlobalMin;
  const ConvertResult scc = convert_to_inplace(inst.script, inst.reference,
                                               scc_opts);
  ConvertOptions exact_opts;
  exact_opts.policy = BreakPolicy::kExactOptimal;
  const ConvertResult exact = convert_to_inplace(inst.script, inst.reference,
                                                 exact_opts);
  // One cycle, uniform costs: both delete exactly one copy.
  EXPECT_EQ(scc.report.copies_converted, 1u);
  EXPECT_EQ(scc.report.conversion_cost, exact.report.conversion_cost);
  EXPECT_GE(scc.report.scc_rounds, 2u);
  expect_inplace_equivalent(inst.script, scc.script, inst.reference);
}

TEST(Converter, InvalidInputRejected) {
  const Bytes ref = test::ramp_bytes(10);
  // Read past the reference.
  EXPECT_THROW(convert_to_inplace(script_of({C(5, 0, 10)}), ref, {}),
               ValidationError);
  // Overlapping writes.
  EXPECT_THROW(
      convert_to_inplace(script_of({C(0, 0, 5), C(0, 3, 5)}), ref, {}),
      ValidationError);
}

TEST(Converter, ConversionIsIdempotent) {
  // Running the converter on an already-converted script must find no
  // cycles and convert nothing further (the output order satisfies
  // Equation 2, so every conflict edge is already respected).
  Rng rng(44);
  for (int trial = 0; trial < 5; ++trial) {
    const auto perm = random_permutation(rng, 40);
    const AdversaryInstance inst = make_block_permutation(16, perm);
    const ConvertResult first =
        convert_to_inplace(inst.script, inst.reference, {});
    const ConvertResult second =
        convert_to_inplace(first.script, inst.reference, {});
    EXPECT_EQ(second.report.copies_converted, 0u) << "trial " << trial;
    EXPECT_EQ(second.report.cycles_found, 0u);
    expect_inplace_equivalent(inst.script, second.script, inst.reference);
  }
}

TEST(Converter, AllAddScriptPassesThrough) {
  const Script s = script_of({A(0, "abc"), A(3, "def")});
  const ConvertResult r = convert_to_inplace(s, {}, {});
  EXPECT_EQ(r.report.copies_in, 0u);
  EXPECT_EQ(r.report.edges, 0u);
  EXPECT_TRUE(satisfies_equation2(r.script));
  EXPECT_EQ(apply_script(r.script, {}), to_bytes("abcdef"));
}

TEST(Converter, SingleSelfOverlappingCopyNeedsNoConversion) {
  // Self-overlap is handled by copy direction, not conversion (§4.1).
  const Bytes ref = test::ramp_bytes(100);
  const Script s = script_of({C(10, 0, 50), C(5, 50, 50)});
  const ConvertResult r = convert_to_inplace(s, ref, {});
  EXPECT_EQ(r.report.copies_converted, 1u);  // the 2nd copy reads [5,54]
  // ... but a purely self-overlapping single copy converts nothing:
  const Script solo = script_of({C(10, 0, 60)});
  const ConvertResult r2 = convert_to_inplace(solo, ref, {});
  EXPECT_EQ(r2.report.copies_converted, 0u);
  expect_inplace_equivalent(solo, r2.script, ref);
}

TEST(Converter, EmptyScript) {
  const ConvertResult r = convert_to_inplace(Script{}, {}, {});
  EXPECT_TRUE(r.script.empty());
  EXPECT_EQ(r.report.copies_in, 0u);
}

TEST(Converter, Equation2CheckerCatchesViolations) {
  // Write [0,9] then read it: violation.
  EXPECT_FALSE(satisfies_equation2(script_of({C(20, 0, 10), C(5, 10, 10)})));
  // Read then write the same region: fine.
  EXPECT_TRUE(satisfies_equation2(script_of({C(5, 10, 10), C(20, 0, 10)})));
  // Adds never read.
  EXPECT_TRUE(satisfies_equation2(script_of({A(0, "abc"), A(3, "def")})));
  // A copy reading an interval written by an earlier add is a violation.
  EXPECT_FALSE(satisfies_equation2(script_of({A(0, "abc"), C(1, 10, 2)})));
  EXPECT_TRUE(satisfies_equation2(Script{}));
}

TEST(Converter, MakeInplaceDeltaEndToEnd) {
  const AdversaryInstance inst = make_rotation(2000, 500);
  ConvertReport report;
  const Bytes delta = make_inplace_delta(inst.script, inst.reference,
                                         inst.version, {}, &report);
  EXPECT_EQ(report.copies_converted, 1u);

  Bytes buffer = inst.reference;
  const length_t new_len = apply_delta_inplace(delta, buffer);
  EXPECT_EQ(new_len, inst.version.size());
  EXPECT_TRUE(test::bytes_equal(inst.version,
                                ByteView(buffer).first(new_len)));
}

TEST(Converter, ResultOutlivesAHandBuiltInput) {
  const Bytes ref = test::ramp_bytes(64);
  ConvertResult r;
  Bytes expected;
  {
    // One of the adds merges with the converted copy; the other stays
    // on its own, borrowed from the input's arena, which must outlive
    // the input.
    const Script input = script_of({
        C(32, 0, 16),
        C(0, 32, 16),  // 2-cycle with the first copy
        A(16, "aaaaaaaa"),
        C(24, 24, 8),
        A(48, "bbbbbbbbbbbbbbbb"),
    });
    expected = apply_script(input, ref);
    r = convert_to_inplace(input, ref, {});
    ASSERT_EQ(r.report.copies_converted, 1u);
  }
  EXPECT_TRUE(test::bytes_equal(expected, apply_script(r.script, ref)));
}

TEST(Converter, ApplyInplaceRefusesAddsOverItsOwnReference) {
  const AdversaryInstance inst = make_rotation(2000, 500);
  ASSERT_EQ(inst.reference.size(), inst.version.size());
  Bytes buffer = inst.reference;
  const ConvertResult r = convert_to_inplace(inst.script, buffer, {});
  ASSERT_EQ(r.report.copies_converted, 1u);
  // The converted copy's add borrows `buffer`, which the copies rewrite
  // before any add runs.
  EXPECT_THROW(apply_inplace(r.script, buffer, buffer.size(),
                             inst.version.size()),
               ValidationError);
  EXPECT_TRUE(test::bytes_equal(inst.reference, buffer));
  // Serialized, the delta carries those bytes: safe over the same buffer.
  const Bytes delta = serialize_inplace(r.script, kPaperExplicit, buffer,
                                        inst.version, false);
  const length_t n = apply_delta_inplace(delta, buffer);
  EXPECT_TRUE(test::bytes_equal(inst.version, ByteView(buffer).first(n)));
}

TEST(Converter, MakeInplaceDeltaRejectsImplicitFormat) {
  const AdversaryInstance inst = make_rotation(100, 30);
  ConvertOptions options;
  options.format = kPaperSequential;
  EXPECT_THROW(make_inplace_delta(inst.script, inst.reference, inst.version,
                                  options),
               ValidationError);
}


// ---- ConvertPin: make_inplace_delta's artifact bytes, pinned ----------
//
// FNV-1a over the artifact for every cycle policy, with add coalescing
// and payload compression on and off, on four seeded pairs small enough
// for the exact policy (at most 64 copies). "permuted" is a block
// permutation, so its CRWI digraph is cycle-rich; "permuted_inserts"
// puts literal runs between permuted blocks, so converted copies abut
// original adds and coalescing merges the two kinds. "text" ends in a
// text literal that the payload compression shrinks.

struct PinPair {
  Bytes ref;
  Bytes ver;
};

/// `ref` cut into `block`-byte pieces, shuffled, with `insert` random
/// bytes after every `every`-th piece (none when `every` is 0).
Bytes shuffled_blocks(ByteView ref, std::size_t block, std::uint64_t seed,
                      std::size_t every, std::size_t insert) {
  Rng rng(seed);
  std::vector<std::size_t> order(ref.size() / block);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  Bytes out;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const ByteView piece = ref.subspan(order[i] * block, block);
    out.insert(out.end(), piece.begin(), piece.end());
    if (every != 0 && i % every == every - 1) {
      const Bytes lit = test::random_bytes(seed + i, insert);
      out.insert(out.end(), lit.begin(), lit.end());
    }
  }
  return out;
}

PinPair pin_pair(const std::string& name) {
  PinPair p;
  if (name == "permuted") {
    p.ref = test::random_bytes(0x61, 24 << 10);
    p.ver = shuffled_blocks(p.ref, 512, 0x62, 0, 0);
  } else if (name == "permuted_inserts") {
    p.ref = test::random_bytes(0x63, 7680);
    p.ver = shuffled_blocks(p.ref, 320, 0x64, 4, 24);
  } else if (name == "text") {
    Rng rng(0x65);
    p.ref = generate_file(rng, 24 << 10, FileProfile::kText);
    p.ver = shuffled_blocks(p.ref, 640, 0x66, 0, 0);
    const Bytes tail = generate_file(rng, 6 << 10, FileProfile::kText);
    p.ver.insert(p.ver.end(), tail.begin(), tail.end());
  } else if (name == "moves") {
    Rng rng(0x67);
    MutationModel model;
    model.move_weight = 6;
    model.delete_weight = 4;
    model.length_scale = 64;
    p.ref = generate_file(rng, 32 << 10, FileProfile::kBinary);
    p.ver = mutate(p.ref, rng, 12, model);
  }
  return p;
}

struct ConvertPin {
  const char* pair;
  BreakPolicy policy;
  bool coalesce;
  bool compress;
  std::uint64_t artifact;
};

constexpr ConvertPin kConvertPins[] = {
    {"permuted", BreakPolicy::kConstantTime, true, false, 0x530c531bb4ad9c99ull},
    {"permuted", BreakPolicy::kConstantTime, true, true, 0x530c531bb4ad9c99ull},
    {"permuted", BreakPolicy::kConstantTime, false, false, 0xb33654332f84f65cull},
    {"permuted", BreakPolicy::kConstantTime, false, true, 0xb33654332f84f65cull},
    {"permuted", BreakPolicy::kLocalMin, true, false, 0x4667f293e8fbe59aull},
    {"permuted", BreakPolicy::kLocalMin, true, true, 0x4667f293e8fbe59aull},
    {"permuted", BreakPolicy::kLocalMin, false, false, 0xd9a705e9760e811ull},
    {"permuted", BreakPolicy::kLocalMin, false, true, 0xd9a705e9760e811ull},
    {"permuted", BreakPolicy::kExactOptimal, true, false, 0x7bb72257d738daf7ull},
    {"permuted", BreakPolicy::kExactOptimal, true, true, 0x7bb72257d738daf7ull},
    {"permuted", BreakPolicy::kExactOptimal, false, false, 0x6c0c484e482a18b9ull},
    {"permuted", BreakPolicy::kExactOptimal, false, true, 0x6c0c484e482a18b9ull},
    {"permuted", BreakPolicy::kSccGlobalMin, true, false, 0x530c531bb4ad9c99ull},
    {"permuted", BreakPolicy::kSccGlobalMin, true, true, 0x530c531bb4ad9c99ull},
    {"permuted", BreakPolicy::kSccGlobalMin, false, false, 0x620a1093bc2c647full},
    {"permuted", BreakPolicy::kSccGlobalMin, false, true, 0x620a1093bc2c647full},
    {"permuted_inserts", BreakPolicy::kConstantTime, true, false, 0x284a2852c239b34aull},
    {"permuted_inserts", BreakPolicy::kConstantTime, true, true, 0x284a2852c239b34aull},
    {"permuted_inserts", BreakPolicy::kConstantTime, false, false, 0xaed6dab462b2b932ull},
    {"permuted_inserts", BreakPolicy::kConstantTime, false, true, 0xaed6dab462b2b932ull},
    {"permuted_inserts", BreakPolicy::kLocalMin, true, false, 0x917d12ec7b3b7243ull},
    {"permuted_inserts", BreakPolicy::kLocalMin, true, true, 0x917d12ec7b3b7243ull},
    {"permuted_inserts", BreakPolicy::kLocalMin, false, false, 0x4c2a0a545a93d2a0ull},
    {"permuted_inserts", BreakPolicy::kLocalMin, false, true, 0x4c2a0a545a93d2a0ull},
    {"permuted_inserts", BreakPolicy::kExactOptimal, true, false, 0x1dabdea884ea06dcull},
    {"permuted_inserts", BreakPolicy::kExactOptimal, true, true, 0x1dabdea884ea06dcull},
    {"permuted_inserts", BreakPolicy::kExactOptimal, false, false, 0xfe84d03f7832e2faull},
    {"permuted_inserts", BreakPolicy::kExactOptimal, false, true, 0xfe84d03f7832e2faull},
    {"permuted_inserts", BreakPolicy::kSccGlobalMin, true, false, 0x42f1c116f3ca7d0dull},
    {"permuted_inserts", BreakPolicy::kSccGlobalMin, true, true, 0x42f1c116f3ca7d0dull},
    {"permuted_inserts", BreakPolicy::kSccGlobalMin, false, false, 0xc2d7f40163127f5aull},
    {"permuted_inserts", BreakPolicy::kSccGlobalMin, false, true, 0xc2d7f40163127f5aull},
    {"text", BreakPolicy::kConstantTime, true, false, 0x725bf0753bd8aed2ull},
    {"text", BreakPolicy::kConstantTime, true, true, 0xf7aecab7189e8bf1ull},
    {"text", BreakPolicy::kConstantTime, false, false, 0xa61b9bc57447e1f4ull},
    {"text", BreakPolicy::kConstantTime, false, true, 0x1e0b2bbbf72a0b3eull},
    {"text", BreakPolicy::kLocalMin, true, false, 0xbca72da76cbc78f6ull},
    {"text", BreakPolicy::kLocalMin, true, true, 0xc0c855ea7ef6507aull},
    {"text", BreakPolicy::kLocalMin, false, false, 0x4f28cbb189e17be9ull},
    {"text", BreakPolicy::kLocalMin, false, true, 0x70c80a98a6c6a9e9ull},
    {"text", BreakPolicy::kExactOptimal, true, false, 0x6075d85b2ba1434eull},
    {"text", BreakPolicy::kExactOptimal, true, true, 0x38b37db39aa156ceull},
    {"text", BreakPolicy::kExactOptimal, false, false, 0xee145249e4d8dfb4ull},
    {"text", BreakPolicy::kExactOptimal, false, true, 0x3f9df1aadbcb792bull},
    {"text", BreakPolicy::kSccGlobalMin, true, false, 0xe47b8f5c519d2e5dull},
    {"text", BreakPolicy::kSccGlobalMin, true, true, 0x2ff087fb7a1308a2ull},
    {"text", BreakPolicy::kSccGlobalMin, false, false, 0x51f8eb793c4751e0ull},
    {"text", BreakPolicy::kSccGlobalMin, false, true, 0xb45401f9fab320deull},
    {"moves", BreakPolicy::kConstantTime, true, false, 0xa03ea033683c8f33ull},
    {"moves", BreakPolicy::kConstantTime, true, true, 0xd1d808766421d694ull},
    {"moves", BreakPolicy::kConstantTime, false, false, 0xda3ec5324d2616bfull},
    {"moves", BreakPolicy::kConstantTime, false, true, 0xc581442fe3db482cull},
    {"moves", BreakPolicy::kLocalMin, true, false, 0xeb4ec67f9ab9e331ull},
    {"moves", BreakPolicy::kLocalMin, true, true, 0xa73ab82100a43882ull},
    {"moves", BreakPolicy::kLocalMin, false, false, 0x1eb96709542825c7ull},
    {"moves", BreakPolicy::kLocalMin, false, true, 0xf4fe78de4da90daeull},
    {"moves", BreakPolicy::kExactOptimal, true, false, 0xeb4ec67f9ab9e331ull},
    {"moves", BreakPolicy::kExactOptimal, true, true, 0xa73ab82100a43882ull},
    {"moves", BreakPolicy::kExactOptimal, false, false, 0x1eb96709542825c7ull},
    {"moves", BreakPolicy::kExactOptimal, false, true, 0xf4fe78de4da90daeull},
    {"moves", BreakPolicy::kSccGlobalMin, true, false, 0xeb4ec67f9ab9e331ull},
    {"moves", BreakPolicy::kSccGlobalMin, true, true, 0xa73ab82100a43882ull},
    {"moves", BreakPolicy::kSccGlobalMin, false, false, 0x1eb96709542825c7ull},
    {"moves", BreakPolicy::kSccGlobalMin, false, true, 0xf4fe78de4da90daeull},
};

TEST(ConvertPin, InplaceArtifactBytesArePinned) {
  for (const ConvertPin& pin : kConvertPins) {
    SCOPED_TRACE(std::string(pin.pair) + " " + policy_name(pin.policy) +
                 " coalesce=" + std::to_string(pin.coalesce) +
                 " compress=" + std::to_string(pin.compress));
    const PinPair p = pin_pair(pin.pair);
    const Script script = diff_bytes(DifferKind::kOnePass, p.ref, p.ver);
    ConvertReport report;
    const Bytes artifact = make_inplace_delta(
        script, p.ref, p.ver,
        {.policy = pin.policy, .coalesce_adds = pin.coalesce}, &report,
        pin.compress);
    const std::uint64_t got = test::fnv1a(artifact);
    EXPECT_EQ(got, pin.artifact) << std::hex << "0x" << got << "ull";
    EXPECT_TRUE(test::bytes_equal(p.ver, Pipeline().apply(artifact, p.ref)));
  }
}

TEST(ConvertPin, PairsExerciseCyclesAndMixedAddRuns) {
  for (const char* name : {"permuted", "permuted_inserts"}) {
    SCOPED_TRACE(name);
    const PinPair p = pin_pair(name);
    const ConvertResult r = convert_to_inplace(
        diff_bytes(DifferKind::kOnePass, p.ref, p.ver), p.ref);
    EXPECT_GT(r.report.cycles_found, 0u);
    EXPECT_GT(r.report.copies_converted, 0u);
  }
  // Converted copies land next to the inserted literals: coalescing
  // merges runs that mix the two.
  const PinPair p = pin_pair("permuted_inserts");
  const Script script = diff_bytes(DifferKind::kOnePass, p.ref, p.ver);
  EXPECT_GT(script.summary().add_count, 0u);
  const ConvertResult merged = convert_to_inplace(script, p.ref);
  const ConvertResult loose =
      convert_to_inplace(script, p.ref, {.coalesce_adds = false});
  EXPECT_LT(merged.script.summary().add_count,
            loose.script.summary().add_count);
}

}  // namespace
}  // namespace ipd
