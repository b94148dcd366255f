#include "delta/compose.hpp"

#include <gtest/gtest.h>

#include "apply/apply.hpp"
#include "apply/inplace_apply.hpp"
#include "core/checksum.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "inplace/converter.hpp"
#include "ipdelta.hpp"
#include "server/delta_service.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

using test::A;
using test::C;
using test::script_of;

Script compose(const Script& first, const Script& second,
               ComposeReport* report = nullptr) {
  return compose_scripts(first.commands(), second.commands(), report);
}

/// folded = folded ∘ next. The fold may borrow bytes `folded` gathered
/// in its arena, so it shares that arena.
void fold_into(Script& folded, const Script& next) {
  Script composed = compose(folded, next);
  composed.share_arena(folded);
  folded = std::move(composed);
}

void expect_composes(const Bytes& a, const Bytes& b, const Bytes& c,
                     const Script& d1, const Script& d2) {
  const Script composed = compose(d1, d2);
  ASSERT_NO_THROW(composed.validate(a.size(), c.size()));
  EXPECT_TRUE(test::bytes_equal(c, apply_script(composed, a)));
  (void)b;
}

TEST(Compose, HandBuiltChain) {
  const Bytes a = to_bytes("AAAABBBBCCCC");
  // B = "CCCCxxAAAA": copy A[8..12) to 0, add "xx", copy A[0..4) to 6.
  const Script d1 = script_of({C(8, 0, 4), A(4, "xx"), C(0, 6, 4)});
  const Bytes b = apply_script(d1, a);
  ASSERT_EQ(to_string(b), "CCCCxxAAAA");
  // C = "xAAAACC": copy B[5..10) to 0, copy B[0..2) to 5.
  const Script d2 = script_of({C(5, 0, 5), C(0, 5, 2)});
  const Bytes c = apply_script(d2, b);
  ASSERT_EQ(to_string(c), "xAAAACC");

  ComposeReport report;
  const Script composed = compose(d1, d2, &report);
  EXPECT_TRUE(test::bytes_equal(c, apply_script(composed, a)));
  // B[5] is δ₁-add data; B[6..10) is a δ₁ copy; B[0..2) is a δ₁ copy:
  // 3 pieces, 1 literal byte.
  EXPECT_EQ(report.pieces, 3u);
  EXPECT_EQ(report.literal_bytes, 1u);
}

TEST(Compose, RealDiffChain) {
  Rng rng(1);
  const Bytes a = generate_file(rng, 30000, FileProfile::kText);
  const Bytes b = mutate(a, rng, 15);
  const Bytes c = mutate(b, rng, 15);
  for (const DifferKind differ :
       {DifferKind::kGreedy, DifferKind::kOnePass}) {
    const Script d1 = diff_bytes(differ, a, b);
    const Script d2 = diff_bytes(differ, b, c);
    expect_composes(a, b, c, d1, d2);
  }
}

TEST(Compose, ComposedIsNoLargerThanChainLiterals) {
  // Composition never invents literal data: its adds come from δ₂'s adds
  // plus slices of δ₁'s adds.
  Rng rng(2);
  const Bytes a = generate_file(rng, 20000, FileProfile::kBinary);
  const Bytes b = mutate(a, rng, 10);
  const Bytes c = mutate(b, rng, 10);
  const Script d1 = diff_bytes(DifferKind::kOnePass, a, b);
  const Script d2 = diff_bytes(DifferKind::kOnePass, b, c);
  const Script composed = compose(d1, d2);
  EXPECT_LE(composed.summary().added_bytes,
            d1.summary().added_bytes + d2.summary().added_bytes);
}

TEST(Compose, AssociativeInEffect) {
  Rng rng(3);
  const Bytes v0 = generate_file(rng, 10000, FileProfile::kText);
  const Bytes v1 = mutate(v0, rng, 8);
  const Bytes v2 = mutate(v1, rng, 8);
  const Bytes v3 = mutate(v2, rng, 8);
  const Script d01 = diff_bytes(DifferKind::kOnePass, v0, v1);
  const Script d12 = diff_bytes(DifferKind::kOnePass, v1, v2);
  const Script d23 = diff_bytes(DifferKind::kOnePass, v2, v3);

  const Script d02 = compose(d01, d12);
  const Script d13 = compose(d12, d23);
  const Script left = compose(d02, d23);
  const Script right = compose(d01, d13);
  EXPECT_TRUE(test::bytes_equal(apply_script(left, v0),
                                apply_script(right, v0)));
  EXPECT_TRUE(test::bytes_equal(v3, apply_script(left, v0)));
}

TEST(Compose, LongChainFold) {
  // Fold a 6-release chain into one delta and verify against the direct
  // reconstruction.
  Rng rng(4);
  std::vector<Bytes> history{generate_file(rng, 15000, FileProfile::kBinary)};
  for (int i = 0; i < 5; ++i) {
    history.push_back(mutate(history.back(), rng, 10));
  }
  Script folded =
      diff_bytes(DifferKind::kOnePass, history[0], history[1]);
  for (std::size_t i = 1; i + 1 < history.size(); ++i) {
    fold_into(folded,
              diff_bytes(DifferKind::kOnePass, history[i], history[i + 1]));
  }
  EXPECT_TRUE(
      test::bytes_equal(history.back(), apply_script(folded, history[0])));
}

TEST(Compose, FoldChainMatchesStepwiseCompose) {
  // fold_chain over parsed artifacts composes left to right, exactly as
  // composing the hops' scripts one by one does.
  Rng rng(7);
  std::vector<Bytes> history{generate_file(rng, 12000, FileProfile::kText)};
  for (int i = 0; i < 3; ++i) {
    history.push_back(mutate(history.back(), rng, 8));
  }
  const Pipeline pipeline({.format = kVarintExplicit});
  std::vector<Bytes> artifacts;
  std::vector<ParsedDelta> hops;
  artifacts.reserve(history.size() - 1);
  for (std::size_t i = 0; i + 1 < history.size(); ++i) {
    artifacts.push_back(
        pipeline.build_delta(history[i], history[i + 1]).delta);
    hops.push_back(parse_delta(artifacts.back()));
  }
  Script stepwise(hops[0].commands);
  for (std::size_t i = 1; i < hops.size(); ++i) {
    fold_into(stepwise, Script(hops[i].commands));
  }
  const Script folded = fold_chain(hops);
  EXPECT_EQ(folded, stepwise);
  EXPECT_TRUE(
      test::bytes_equal(history.back(), apply_script(folded, history[0])));
  EXPECT_THROW(fold_chain(std::span(hops).first(1)), ValidationError);
}

TEST(Compose, FoldsServedHopsIntoOneDirectDelta) {
  // The per-release hops a DeltaService serves fold into one in-place
  // delta straight from v0 to v5, with no differencing over the ends.
  Rng rng(10);
  VersionStore store;
  std::vector<Bytes> history{
      generate_file(rng, 40 << 10, FileProfile::kBinary)};
  MutationModel model;
  model.length_scale = 48;
  for (int i = 0; i < 5; ++i) {
    history.push_back(mutate(history.back(), rng, 25, model));
  }
  for (const Bytes& body : history) store.publish(body);
  DeltaService service(store);

  std::vector<std::shared_ptr<const Bytes>> artifacts;
  std::vector<ParsedDelta> hops;
  for (ReleaseId k = 0; k + 1 < history.size(); ++k) {
    const ServeResult hop = service.serve(k, k + 1);
    ASSERT_EQ(hop.steps.size(), 1u);
    ASSERT_FALSE(hop.steps[0].full_image);
    artifacts.push_back(hop.steps[0].bytes);
    hops.push_back(parse_delta(*artifacts.back()));
  }
  const Bytes folded = make_inplace_delta(fold_chain(hops), history[0],
                                          history[5]);

  const DeltaHeader header = parse_delta(folded).header;
  EXPECT_TRUE(header.in_place);
  EXPECT_EQ(header.reference_length, history[0].size());
  EXPECT_EQ(header.version_length, history[5].size());
  Bytes image = history[0];
  image.resize(std::max(history[0].size(), history[5].size()));
  const length_t n = apply_delta_inplace(folded, image);
  EXPECT_TRUE(test::bytes_equal(history[5], ByteView(image).first(n)));
}

TEST(Compose, SecondMayBeInplaceConverted) {
  // δ₂ in topological (non-write) order still composes; the result is a
  // plain delta that must be re-converted for in-place use.
  Rng rng(5);
  const Bytes a = test::random_bytes(6, 8000);
  Bytes b = a;
  for (int i = 0; i < 1000; ++i) std::swap(b[i], b[i + 4000]);
  Bytes c = b;
  for (int i = 2000; i < 3000; ++i) c[i] ^= 0x5A;

  const Script d1 = diff_bytes(DifferKind::kOnePass, a, b);
  const Script d2_inplace =
      convert_to_inplace(diff_bytes(DifferKind::kOnePass, b, c), b, {})
          .script;
  const Script composed = compose(d1, d2_inplace);
  EXPECT_TRUE(test::bytes_equal(c, apply_script(composed, a)));

  // And the composed result itself converts for in-place application.
  const ConvertResult converted = convert_to_inplace(composed, a, {});
  Bytes buffer = a;
  buffer.resize(std::max(a.size(), c.size()));
  apply_inplace(converted.script, buffer, a.size(), c.size());
  EXPECT_TRUE(test::bytes_equal(c, ByteView(buffer).first(c.size())));
}

TEST(Compose, AllAddSecondPassesThrough) {
  const Script d1 = script_of({C(0, 0, 4)});
  const Script d2 = script_of({A(0, "xyz")});
  const Script composed = compose(d1, d2);
  EXPECT_EQ(composed.summary().copy_count, 0u);
  EXPECT_EQ(apply_script(composed, to_bytes("abcd")), to_bytes("xyz"));
}

TEST(Compose, EmptyScripts) {
  EXPECT_TRUE(compose(Script{}, Script{}).empty());
  // Empty second: C is empty regardless of B.
  const Script d1 = script_of({C(0, 0, 4)});
  EXPECT_TRUE(compose(d1, Script{}).empty());
}

TEST(Compose, RejectsNonTilingFirst) {
  // δ₁ with a gap cannot answer "what wrote B[4]?".
  const Script gappy = script_of({C(0, 0, 4), C(0, 6, 2)});
  const Script d2 = script_of({C(0, 0, 2)});
  EXPECT_THROW(compose(gappy, d2), ValidationError);
}

TEST(Compose, RejectsSecondReadingPastB) {
  const Script d1 = script_of({C(0, 0, 4)});  // B is 4 bytes
  const Script d2 = script_of({C(2, 0, 4)});  // reads B[2..6)
  EXPECT_THROW(compose(d1, d2), ValidationError);
}

TEST(Compose, AddsBorrowTheInputsLiterals) {
  // B = "wxyz" + A[0, 4); C = B[1, 3) + B[4, 6) + "!" + B[2, 4).
  const Script d1 = script_of({A(0, "wxyz"), C(0, 4, 4)});
  const Script d2 =
      script_of({C(1, 0, 2), C(4, 2, 2), A(4, "!"), C(2, 5, 2)});
  const Script composed = compose(d1, d2);
  const Bytes a = to_bytes("abcd");
  EXPECT_EQ(apply_script(composed, a), to_bytes("xyab!yz"));
  ASSERT_EQ(composed.size(), 3u);
  // "xy" is a slice of δ₁'s add, borrowed as it is.
  ASSERT_TRUE(composed.commands()[0].is_add());
  EXPECT_EQ(composed.commands()[0].literal, d1.commands()[0].literal + 1);
  EXPECT_EQ(composed.commands()[0].length, 2u);
  EXPECT_FALSE(composed.commands()[1].is_add());
  // "!" and "yz" abut in C but not in memory: one add, gathered.
  EXPECT_EQ(test::bytes_of(composed.commands()[2]), to_bytes("!yz"));
  EXPECT_EQ(composed.arena_bytes(), 3u);
}

TEST(Compose, FragmentsMergeBackTogether) {
  // δ₁ splits A into two abutting copies; a δ₂ copy spanning both must
  // come out as ONE copy, not two.
  const Script d1 = script_of({C(0, 0, 4), C(4, 4, 4)});
  const Script d2 = script_of({C(0, 0, 8)});
  const Script composed = compose(d1, d2);
  ASSERT_EQ(composed.size(), 1u);
  EXPECT_FALSE(composed.commands()[0].is_add());
  EXPECT_EQ(composed.commands()[0].length, 8u);
}

TEST(ComposePin, FoldedChainBytesArePinned) {
  // serialize_delta of fold_chain over four hops of mixed formats: plain
  // varint, in-place converted and compressed, implicit-offset paper,
  // compressed varint. FNV-1a of the fold's encoding, pinned.
  Rng rng(0x71);
  std::vector<Bytes> history{generate_file(rng, 20000, FileProfile::kText)};
  for (int i = 0; i < 4; ++i) {
    history.push_back(mutate(history.back(), rng, 12));
  }
  const PipelineOptions hop_options[] = {
      {.format = kVarintExplicit},
      {.compress_payload = true, .format = kVarintExplicit},
      {.format = kPaperSequential},
      {.compress_payload = true, .format = kVarintExplicit},
  };
  std::vector<Bytes> artifacts;
  std::vector<ParsedDelta> hops;
  artifacts.reserve(4);
  for (std::size_t i = 0; i < 4; ++i) {
    const Pipeline pipeline(hop_options[i]);
    artifacts.push_back(
        i == 1 ? pipeline.build_inplace(history[i], history[i + 1]).delta
               : pipeline.build_delta(history[i], history[i + 1]).delta);
    hops.push_back(parse_delta(artifacts.back()));
  }
  const Script folded = fold_chain(hops);
  DeltaHeader header;
  header.format = kVarintExplicit;
  header.reference_length = history.front().size();
  header.version_length = history.back().size();
  header.version_crc = crc32c(history.back());
  const Bytes encoded = test::encode(header, folded);
  const std::uint64_t got = test::fnv1a(encoded);
  EXPECT_EQ(got, 0x7b5e0da395f0f352ull) << std::hex << "0x" << got << "ull";
  EXPECT_TRUE(test::bytes_equal(history.back(),
                                apply_delta(encoded, history.front())));
}

}  // namespace
}  // namespace ipd
