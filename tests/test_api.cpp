// Facade-level tests: the README's advertised three-line flow must work.
#include "ipdelta.hpp"

#include <gtest/gtest.h>

#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

class ApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    ref_ = generate_file(rng, 30000, FileProfile::kText);
    ver_ = mutate(ref_, rng, 15);
  }
  Bytes ref_;
  Bytes ver_;
};

TEST_F(ApiTest, BuildAndApplyPlainDelta) {
  const Bytes delta = Pipeline().build_delta(ref_, ver_).delta;
  EXPECT_LT(delta.size(), ver_.size());
  EXPECT_TRUE(test::bytes_equal(ver_, apply_delta(delta, ref_)));
}

TEST_F(ApiTest, BuildAndApplyInplaceDelta) {
  const BuildResult built = Pipeline().build_inplace(ref_, ver_);
  EXPECT_LT(built.delta.size(), ver_.size());

  Bytes buffer = ref_;
  buffer.resize(std::max(ref_.size(), ver_.size()));
  const length_t n = apply_delta_inplace(built.delta, buffer);
  EXPECT_EQ(n, ver_.size());
  EXPECT_TRUE(test::bytes_equal(ver_, ByteView(buffer).first(n)));
}

TEST_F(ApiTest, InplaceDeltaIsFlagged) {
  const Bytes delta = Pipeline().build_inplace(ref_, ver_).delta;
  EXPECT_TRUE(parse_delta(delta).header.in_place);
}

TEST_F(ApiTest, AllDifferAndPolicyCombinations) {
  for (const DifferKind differ :
       {DifferKind::kGreedy, DifferKind::kOnePass}) {
    for (const BreakPolicy policy :
         {BreakPolicy::kConstantTime, BreakPolicy::kLocalMin}) {
      PipelineOptions options;
      options.differ = differ;
      options.convert.policy = policy;
      const Bytes delta = Pipeline(options).build_inplace(ref_, ver_).delta;
      Bytes buffer = ref_;
      buffer.resize(std::max(ref_.size(), ver_.size()));
      const length_t n = apply_delta_inplace(delta, buffer);
      EXPECT_TRUE(test::bytes_equal(ver_, ByteView(buffer).first(n)))
          << differ_name(differ) << "/" << policy_name(policy);
    }
  }
}

TEST_F(ApiTest, VarintFormatWorksEndToEnd) {
  PipelineOptions options;
  options.format = kVarintExplicit;
  const Bytes delta = Pipeline(options).build_inplace(ref_, ver_).delta;
  Bytes buffer = ref_;
  buffer.resize(std::max(ref_.size(), ver_.size()));
  const length_t n = apply_delta_inplace(delta, buffer);
  EXPECT_TRUE(test::bytes_equal(ver_, ByteView(buffer).first(n)));
}

TEST_F(ApiTest, SequentialFormatIsSmallest) {
  // Table 1 ordering: no-write-offsets <= write-offsets <= in-place.
  const std::size_t no_offsets =
      Pipeline({.format = kPaperSequential}).build_delta(ref_, ver_)
          .delta.size();
  const std::size_t offsets =
      Pipeline({.format = kPaperExplicit}).build_delta(ref_, ver_)
          .delta.size();
  const std::size_t inplace =
      Pipeline().build_inplace(ref_, ver_).delta.size();
  EXPECT_LE(no_offsets, offsets);
  EXPECT_LE(offsets, inplace + 8);  // conversion may add nothing (no cycles)
}

TEST(Api, EmptyToEmpty) {
  const Bytes delta = Pipeline().build_inplace({}, {}).delta;
  Bytes buffer;
  EXPECT_EQ(apply_delta_inplace(delta, buffer), 0u);
}

TEST(Api, EmptyReferenceToContent) {
  const Bytes ver = test::random_bytes(5, 5000);
  const Bytes delta = Pipeline().build_inplace({}, ver).delta;
  Bytes buffer(ver.size());
  const length_t n = apply_delta_inplace(delta, buffer);
  EXPECT_TRUE(test::bytes_equal(ver, ByteView(buffer).first(n)));
}

TEST(Api, ContentToEmpty) {
  const Bytes ref = test::random_bytes(6, 5000);
  const Bytes delta = Pipeline().build_inplace(ref, {}).delta;
  Bytes buffer = ref;
  EXPECT_EQ(apply_delta_inplace(delta, buffer), 0u);
}

TEST(Api, ReportSurfacesConversionStats) {
  // Force cycles with a block-swapped version.
  const Bytes ref = test::random_bytes(7, 20000);
  Bytes ver(ref.begin() + 10000, ref.end());
  ver.insert(ver.end(), ref.begin(), ref.begin() + 10000);

  const BuildResult built = Pipeline().build_inplace(ref, ver);
  EXPECT_GT(built.report.copies_in, 0u);
  Bytes buffer = ref;
  const length_t n = apply_delta_inplace(built.delta, buffer);
  EXPECT_TRUE(test::bytes_equal(ver, ByteView(buffer).first(n)));
}

}  // namespace
}  // namespace ipd
