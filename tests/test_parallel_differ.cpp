// Segmented parallel differencing (delta/parallel_differ.hpp): the plan
// is a pure function of content, the stitcher repairs every junction
// shape without changing a byte, and diff_parallel is byte-identical at
// every parallelism — THE determinism contract of DESIGN.md §pipeline.
#include <gtest/gtest.h>

#include <memory>

#include "apply/apply.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "core/thread_pool.hpp"
#include "delta/greedy_differ.hpp"
#include "delta/onepass_differ.hpp"
#include "delta/parallel_differ.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

// Small enough that tests segment 100-200 KiB inputs many ways.
SegmentPlanOptions small_plan() {
  SegmentPlanOptions plan;
  plan.min_input = 32 << 10;
  plan.segment_bytes = 16 << 10;
  plan.align_window = 2 << 10;
  return plan;
}

Bytes versioned_pair(std::uint64_t seed, std::size_t size, Bytes* ref_out) {
  Rng rng(seed);
  *ref_out = generate_file(rng, size, FileProfile::kBinary);
  return mutate(*ref_out, rng, size / 1024 + 8);
}

// ---- plan_segments ---------------------------------------------------

TEST(PlanSegments, SmallInputIsSingleSegment) {
  const Bytes version = test::random_bytes(1, 16 << 10);
  const std::vector<std::size_t> bounds = plan_segments(version, small_plan());
  ASSERT_EQ(bounds.size(), 2u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), version.size());
}

TEST(PlanSegments, CoversInputMonotonically) {
  const Bytes version = test::random_bytes(2, 160 << 10);
  const std::vector<std::size_t> bounds = plan_segments(version, small_plan());
  ASSERT_GE(bounds.size(), 3u) << "a 160 KiB input must segment";
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), version.size());
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(PlanSegments, PureFunctionOfContent) {
  const Bytes version = test::random_bytes(3, 200 << 10);
  EXPECT_EQ(plan_segments(version, small_plan()),
            plan_segments(version, small_plan()));
  // Appending content must not disturb cuts chosen far from the end is
  // NOT guaranteed (count changes) — but identical content always is.
  Bytes copy = version;
  EXPECT_EQ(plan_segments(version, small_plan()),
            plan_segments(copy, small_plan()));
}

TEST(PlanSegments, ZeroSegmentBytesDisablesSegmentation) {
  SegmentPlanOptions plan = small_plan();
  plan.segment_bytes = 0;
  const Bytes version = test::random_bytes(4, 160 << 10);
  EXPECT_EQ(plan_segments(version, plan).size(), 2u);
}

// ---- stitch_segments junction repair ---------------------------------

Script one_command(const test::Fixture& c) { return test::script_of({c}); }

TEST(StitchSegments, MergesAbuttingCopies) {
  const Bytes ref = test::ramp_bytes(8);
  std::vector<Script> parts;
  parts.push_back(one_command(test::C(0, 0, 4)));
  parts.push_back(one_command(test::C(4, 0, 4)));  // segment-relative to
  const Script out = stitch_segments(std::move(parts), {0, 4, 8}, ref);
  ASSERT_EQ(out.commands().size(), 1u);
  const CommandRef& copy = out.commands()[0];
  ASSERT_FALSE(copy.is_add());
  EXPECT_EQ(copy.from, 0u);
  EXPECT_EQ(copy.to, 0u);
  EXPECT_EQ(copy.length, 8u);
}

TEST(StitchSegments, ConcatenatesAbuttingAdds) {
  const Bytes ref;
  std::vector<Script> parts;
  parts.push_back(one_command(test::A(0, "abcd")));
  parts.push_back(one_command(test::A(0, "efgh")));
  const Script out = stitch_segments(std::move(parts), {0, 4, 8}, ref);
  ASSERT_EQ(out.commands().size(), 1u);
  const CommandRef& add = out.commands()[0];
  ASSERT_TRUE(add.is_add());
  EXPECT_EQ(add.to, 0u);
  EXPECT_TRUE(test::bytes_equal(to_bytes("abcdefgh"), add.bytes()));
}

TEST(StitchSegments, JoinsAddsOfOneVersionWithoutCopying) {
  // Segments scanned from one version borrow it, so the adds meeting at
  // a cut join into one run of it by a length sum.
  const Bytes version = to_bytes("abcdefgh");
  const ByteView v = version;
  std::vector<Script> parts(2);
  parts[0].push_add(0, v.first(4));
  parts[1].push_add(0, v.subspan(4));
  const Script out = stitch_segments(std::move(parts), {0, 4, 8}, Bytes{});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.commands()[0].literal, version.data());
  EXPECT_EQ(out.commands()[0].length, 8u);
  EXPECT_EQ(out.arena_bytes(), 0u);
}

TEST(StitchSegments, CopyAbsorbsMatchingLiteralPrefix) {
  // Segment 1 emitted a literal whose bytes continue the reference run
  // segment 0's copy ended on: the copy extends forward over them.
  const Bytes ref = to_bytes("abcdefgh");
  std::vector<Script> parts;
  parts.push_back(one_command(test::C(0, 0, 4)));
  parts.push_back(one_command(test::A(0, "efgh")));
  const Script out = stitch_segments(std::move(parts), {0, 4, 8}, ref);
  ASSERT_EQ(out.commands().size(), 1u);
  const CommandRef& copy = out.commands()[0];
  ASSERT_FALSE(copy.is_add());
  EXPECT_EQ(copy.length, 8u);
  EXPECT_TRUE(test::bytes_equal(ref, apply_script(out, ref)));
}

TEST(StitchSegments, CopyAbsorbsMatchingLiteralTail) {
  // Mirror image: segment 0 ended on a literal whose tail precedes the
  // reference run segment 1's copy starts on; the copy extends backward
  // and the emptied add is dropped.
  const Bytes ref = to_bytes("abcdefgh");
  std::vector<Script> parts;
  parts.push_back(one_command(test::A(0, "abcd")));
  parts.push_back(one_command(test::C(4, 0, 4)));
  const Script out = stitch_segments(std::move(parts), {0, 4, 8}, ref);
  ASSERT_EQ(out.commands().size(), 1u);
  const CommandRef& copy = out.commands()[0];
  ASSERT_FALSE(copy.is_add());
  EXPECT_EQ(copy.from, 0u);
  EXPECT_EQ(copy.to, 0u);
  EXPECT_EQ(copy.length, 8u);
  EXPECT_TRUE(test::bytes_equal(ref, apply_script(out, ref)));
}

TEST(StitchSegments, RepairNeverChangesBytes) {
  // Property form: stitching real per-segment scripts reconstructs the
  // version exactly and stays a valid write-order script.
  Bytes ref;
  const Bytes ver = versioned_pair(5, 96 << 10, &ref);
  const OnePassDiffer differ;
  const auto index = differ.build_index(ref);
  const std::vector<std::size_t> bounds = plan_segments(ver, small_plan());
  ASSERT_GE(bounds.size(), 3u);
  std::vector<Script> parts;
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    parts.push_back(differ.scan(
        *index, ref,
        ByteView(ver).subspan(bounds[i], bounds[i + 1] - bounds[i])));
  }
  const Script out = stitch_segments(std::move(parts), bounds, ref);
  ASSERT_NO_THROW(out.validate(ref.size(), ver.size()));
  EXPECT_TRUE(out.in_write_order());
  EXPECT_TRUE(test::bytes_equal(ver, apply_script(out, ref)));
}

// ---- diff_parallel determinism ---------------------------------------

class DiffParallelDeterminism : public ::testing::TestWithParam<DifferKind> {};

INSTANTIATE_TEST_SUITE_P(
    AllDiffers, DiffParallelDeterminism,
    ::testing::Values(DifferKind::kGreedy, DifferKind::kOnePass,
                      DifferKind::kSuffixGreedy, DifferKind::kBlockAligned),
    [](const auto& info) {
      std::string name = differ_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST_P(DiffParallelDeterminism, ByteIdenticalAcrossParallelism) {
  // The quadratic-era exact differ gets a smaller input so the sweep
  // stays fast; everything else diffs ~160 KiB across ~10 segments.
  const std::size_t size =
      GetParam() == DifferKind::kSuffixGreedy ? (48 << 10) : (160 << 10);
  Bytes ref;
  const Bytes ver = versioned_pair(7, size, &ref);
  const std::unique_ptr<Differ> differ = make_differ(GetParam());

  const ParallelDiffResult serial =
      diff_parallel(*differ, ref, ver, small_plan());
  ASSERT_GT(serial.segments, 1u);
  ASSERT_NO_THROW(serial.script.validate(ref.size(), ver.size()));
  EXPECT_TRUE(test::bytes_equal(ver, apply_script(serial.script, ref)));

  ThreadPool pool(8);
  for (const std::size_t parallelism : {std::size_t{2}, std::size_t{8}}) {
    const ParallelDiffResult parallel = diff_parallel(
        *differ, ref, ver, small_plan(), ParallelContext{&pool, parallelism});
    EXPECT_EQ(parallel.segments, serial.segments);
    EXPECT_EQ(parallel.script, serial.script)
        << "parallelism=" << parallelism << " diverged from serial";
  }
}

// A Differ that is not a SegmentedDiffer: diff_parallel must run it
// whole.
class WholeDiffer final : public Differ {
 public:
  Script diff(ByteView reference, ByteView version) const override {
    return inner_.diff(reference, version);
  }
  const char* name() const noexcept override { return "whole"; }

 private:
  OnePassDiffer inner_;
};

TEST(DiffParallel, NonSegmentedDifferFallsBackToSerial) {
  Bytes ref;
  const Bytes ver = versioned_pair(9, 96 << 10, &ref);
  const WholeDiffer differ;
  ThreadPool pool(4);
  const ParallelDiffResult result = diff_parallel(
      differ, ref, ver, small_plan(), ParallelContext{&pool, 4});
  EXPECT_EQ(result.segments, 1u);
  EXPECT_EQ(result.script, differ.diff(ref, ver));
}

TEST(DiffParallel, ForeignIndexIsRejected) {
  const Bytes ref = test::random_bytes(11, 4 << 10);
  const GreedyDiffer greedy;
  const OnePassDiffer onepass;
  const auto foreign = greedy.build_index(ref);
  EXPECT_THROW(onepass.scan(*foreign, ref, ref), ValidationError);
}

// ---- one-pass parallel index build -----------------------------------

TEST(OnePassIndex, ParallelTableBuildMatchesSerial) {
  // Above kParallelIndexMinPositions the table is built from per-chunk
  // locals merged lowest-position-first — provably the serial
  // first-occurrence table. Check the bits, not just the proof.
  const Bytes ref = test::random_bytes(13, (1 << 20) + (64 << 10));
  const OnePassDiffer differ;
  const auto serial = differ.build_index(ref);
  ThreadPool pool(4);
  const auto parallel =
      differ.build_index(ref, ParallelContext{&pool, 4});
  const auto& st = dynamic_cast<const OnePassIndex&>(*serial);
  const auto& pt = dynamic_cast<const OnePassIndex&>(*parallel);
  EXPECT_EQ(st.seed, pt.seed);
  EXPECT_EQ(st.table, pt.table);
}

}  // namespace
}  // namespace ipd
