// In-place differencing end to end (§4): Pipeline::build_inplace goes
// from (reference, version) straight to an artifact whose script applies
// in the reference's own buffer, byte-identical to diffing and then
// calling make_inplace_delta by hand.
#include <gtest/gtest.h>

#include <algorithm>

#include "adversary/constructions.hpp"
#include "corpus/workload.hpp"
#include "ipdelta.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

/// build_inplace's artifact, and the Script it decodes to (which
/// borrows the artifact).
struct Built {
  Bytes delta;
  Script script;
};

Built build(const Pipeline& pipeline, ByteView ref, ByteView ver) {
  Built built{pipeline.build_inplace(ref, ver).delta};
  built.script = Script(parse_delta(built.delta));
  return built;
}

TEST(InplaceDiffer, OutputIsDirectlyInplaceSafe) {
  const Pipeline pipeline({.differ = DifferKind::kOnePass});
  for (const VersionPair& pair : small_corpus(51)) {
    const Built built = build(pipeline, pair.reference, pair.version);
    const Script& script = built.script;
    ASSERT_TRUE(satisfies_equation2(script)) << pair.name;
    ASSERT_TRUE(analyze_conflicts(script).in_place_safe()) << pair.name;

    Bytes buffer = pair.reference;
    buffer.resize(std::max(pair.reference.size(), pair.version.size()));
    apply_inplace(script, buffer, pair.reference.size(),
                  pair.version.size());
    EXPECT_TRUE(test::bytes_equal(
        pair.version, ByteView(buffer).first(pair.version.size())))
        << pair.name;
  }
}

TEST(InplaceDiffer, MatchesTwoStepPipeline) {
  const Bytes ref = test::random_bytes(1, 30000);
  Bytes ver = ref;
  for (int i = 0; i < 1500; ++i) std::swap(ver[i], ver[i + 15000]);

  const Pipeline pipeline({.differ = DifferKind::kGreedy, .parallelism = 1});
  const Bytes one_step = pipeline.build_inplace(ref, ver).delta;

  ConvertOptions convert;
  convert.format = pipeline.options().inplace_format();
  const Bytes two_step = make_inplace_delta(
      diff_bytes(DifferKind::kGreedy, ref, ver), ref, ver, convert);
  EXPECT_TRUE(test::bytes_equal(one_step, two_step));
}

TEST(InplaceDiffer, ReportIsObservable) {
  // A rotation's diff copies across the buffer, so conversion has work.
  const AdversaryInstance inst = make_rotation(2000, 700);
  const Pipeline pipeline({.differ = DifferKind::kOnePass});
  const BuildResult r = pipeline.build_inplace(inst.reference, inst.version);
  EXPECT_GT(r.report.copies_in, 0u);
  const Script script = Script(parse_delta(r.delta));
  EXPECT_TRUE(satisfies_equation2(script));
  EXPECT_TRUE(test::bytes_equal(inst.version,
                                apply_script(script, inst.reference)));
}

TEST(InplaceDiffer, EmptyInputs) {
  const Pipeline pipeline({.differ = DifferKind::kOnePass});
  EXPECT_TRUE(build(pipeline, {}, {}).script.empty());
  const Bytes ver = test::random_bytes(11, 100);
  const Built built = build(pipeline, {}, ver);
  EXPECT_TRUE(test::bytes_equal(ver, apply_script(built.script, {})));
}

}  // namespace
}  // namespace ipd
