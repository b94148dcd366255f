#include <gtest/gtest.h>

#include "core/varint.hpp"
#include "delta/codec.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

// The cost model must agree byte-for-byte with the encoder: encoding a
// single command and measuring the payload is the ground truth. The
// payload length is parsed out of the container header so header varint
// width changes cannot skew the measurement.
std::size_t measured_payload(const CommandRef& cmd, DeltaFormat fmt,
                             length_t ref_len, length_t ver_len) {
  DeltaHeader header;
  header.format = fmt;
  header.reference_length = ref_len;
  header.version_length = ver_len;
  const Bytes wire = serialize_delta(header, std::span(&cmd, 1));
  // Header: magic(4) format(1) flags(1) ref(varint) ver(varint) crc(4)
  // payload_len(varint) adler(4) payload.
  ByteView rest = ByteView(wire).subspan(6);
  rest = rest.subspan(decode_varint(rest).consumed);  // ref_len
  rest = rest.subspan(decode_varint(rest).consumed);  // ver_len
  rest = rest.subspan(4);                             // crc
  return static_cast<std::size_t>(decode_varint(rest).value);
}

class CostModelTest : public ::testing::TestWithParam<DeltaFormat> {};

INSTANTIATE_TEST_SUITE_P(ExplicitFormats, CostModelTest,
                         ::testing::Values(kPaperExplicit, kVarintExplicit,
                                           kPaperSequential,
                                           kVarintSequential));

TEST_P(CostModelTest, CopySizeMatchesEncoder) {
  const length_t ver_len = 1 << 20;
  const CodewordCostModel model(GetParam(), ver_len);
  const CopyCommand cases[] = {
      {0, 0, 1},           {100, 0, 255},       {0xFFFF, 0, 256},
      {0x10000, 0, 0xFFFF}, {0xFFFFFFFFull, 0, 0x10000},
      {0x1'0000'0000ull, 0, 12345},
  };
  for (const CopyCommand& c : cases) {
    EXPECT_EQ(model.copy_size(c),
              measured_payload({c.to, c.length, c.from}, GetParam(),
                               0x2'0000'0000ull, ver_len))
        << c;
  }
}

TEST_P(CostModelTest, AddSizeMatchesEncoder) {
  const length_t ver_len = 1 << 20;
  const CodewordCostModel model(GetParam(), ver_len);
  for (const length_t len : {1ull, 100ull, 255ull, 256ull, 1000ull, 70000ull}) {
    const Bytes data = test::random_bytes(len, len);
    EXPECT_EQ(model.add_size(0, len),
              measured_payload({0, len, 0, data.data()}, GetParam(), 0,
                               ver_len))
        << "len " << len;
  }
}

TEST(CostModel, WideOffsetWidthForHugeVersions) {
  EXPECT_EQ(CodewordCostModel(kPaperExplicit, 1 << 20).offset_width(), 4u);
  EXPECT_EQ(
      CodewordCostModel(kPaperExplicit, 0x1'0000'0001ull).offset_width(), 8u);
}

TEST(CostModel, ConversionCostApproximatesPaperFormula) {
  // The paper: replacing a copy with an add grows the delta by l - |f|.
  const CodewordCostModel model(kPaperExplicit, 1 << 20);
  const CopyCommand c{1000, 2000, 500};
  // add: 2 chunks -> 2*(1+4+1) + 500; copy: 1+4+2+2 = 9.
  EXPECT_EQ(model.conversion_cost(c), model.add_size(c.to, c.length) -
                                          model.copy_size(c));
  EXPECT_GT(model.conversion_cost(c), 480u);
  EXPECT_LT(model.conversion_cost(c), 520u);
}

TEST(CostModel, ConversionCostClampedToPositive) {
  // A 1-byte copy with a huge `from` can encode larger than its add; the
  // policy cost must still be >= 1.
  const CodewordCostModel model(kVarintExplicit, 100);
  const CopyCommand tiny{0xFFFFFFFFFFFFull, 5, 1};
  EXPECT_GE(model.conversion_cost(tiny), 1u);
}

TEST(CostModel, LongerCopiesCostMoreToConvert) {
  const CodewordCostModel model(kPaperExplicit, 1 << 20);
  std::uint64_t prev = 0;
  for (const length_t len : {16ull, 64ull, 256ull, 1024ull, 4096ull}) {
    const std::uint64_t cost = model.conversion_cost(CopyCommand{0, 0, len});
    EXPECT_GT(cost, prev);
    prev = cost;
  }
}

}  // namespace
}  // namespace ipd
