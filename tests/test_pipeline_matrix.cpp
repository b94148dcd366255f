// Exhaustive configuration-matrix sweep: every combination of differ,
// cycle policy, codeword family, payload compression, add coalescing,
// and application path (batch / streaming / device updater / journaled
// updater) must reconstruct the version byte-for-byte on a fixed set of
// workloads. This is the widest net in the suite — any interaction bug
// between two knobs surfaces here.
#include <gtest/gtest.h>

#include "apply/stream_applier.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "device/resumable_updater.hpp"
#include "ipdelta.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

struct MatrixCase {
  DifferKind differ;
  BreakPolicy policy;
  Codeword codeword;
  bool compress;
  bool coalesce;
};

std::string case_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  const MatrixCase& c = info.param;
  std::string name = std::string(differ_name(c.differ)) + "_" +
                     policy_name(c.policy) + "_" +
                     (c.codeword == Codeword::kPaperByte ? "paper" : "varint") +
                     (c.compress ? "_lzss" : "") +
                     (c.coalesce ? "_coal" : "_nocoal");
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

std::vector<MatrixCase> make_cases() {
  std::vector<MatrixCase> cases;
  for (const DifferKind differ :
       {DifferKind::kGreedy, DifferKind::kOnePass}) {
    for (const BreakPolicy policy :
         {BreakPolicy::kConstantTime, BreakPolicy::kLocalMin,
          BreakPolicy::kSccGlobalMin}) {
      for (const Codeword codeword :
           {Codeword::kPaperByte, Codeword::kVarint}) {
        for (const bool compress : {false, true}) {
          // Coalescing varies only on one policy to bound the product.
          cases.push_back({differ, policy, codeword, compress, true});
          if (policy == BreakPolicy::kLocalMin && !compress) {
            cases.push_back({differ, policy, codeword, compress, false});
          }
        }
      }
    }
  }
  return cases;
}

class PipelineMatrix : public ::testing::TestWithParam<MatrixCase> {
 protected:
  PipelineOptions options() const {
    const MatrixCase& c = GetParam();
    PipelineOptions o;
    o.differ = c.differ;
    o.convert.policy = c.policy;
    o.format = DeltaFormat{c.codeword, WriteOffsets::kExplicit};
    o.convert.coalesce_adds = c.coalesce;
    o.compress_payload = c.compress;
    return o;
  }

  struct Workload {
    const char* name;
    Bytes ref;
    Bytes ver;
  };

  static std::vector<Workload> workloads() {
    std::vector<Workload> w;
    Rng rng(0x3A3);
    // Moved-block text file (cycles likely).
    {
      Bytes ref = generate_file(rng, 24000, FileProfile::kText);
      Bytes ver = ref;
      for (int i = 0; i < 4000; ++i) std::swap(ver[i], ver[i + 12000]);
      w.push_back({"text-swap", std::move(ref), std::move(ver)});
    }
    // Binary with mixed edits, growing.
    {
      Bytes ref = generate_file(rng, 30000, FileProfile::kBinary);
      Bytes ver = mutate(ref, rng, 20);
      w.push_back({"binary-mutate", std::move(ref), std::move(ver)});
    }
    // Shrinking version.
    {
      Bytes ref = generate_file(rng, 20000, FileProfile::kBinary);
      Bytes ver(ref.begin() + 3000, ref.begin() + 15000);
      w.push_back({"shrink", std::move(ref), std::move(ver)});
    }
    return w;
  }
};

INSTANTIATE_TEST_SUITE_P(Matrix, PipelineMatrix,
                         ::testing::ValuesIn(make_cases()), case_name);

TEST_P(PipelineMatrix, BatchApply) {
  for (const auto& load : workloads()) {
    const Bytes delta = Pipeline(options()).build_inplace(load.ref, load.ver).delta;
    Bytes buffer = load.ref;
    buffer.resize(std::max(load.ref.size(), load.ver.size()));
    const length_t n = apply_delta_inplace(delta, buffer);
    ASSERT_EQ(n, load.ver.size()) << load.name;
    ASSERT_TRUE(test::bytes_equal(load.ver, ByteView(buffer).first(n)))
        << load.name;
  }
}

TEST_P(PipelineMatrix, StreamingApplyWhenUncompressed) {
  if (GetParam().compress) {
    GTEST_SKIP() << "streaming rejects compressed payloads by design";
  }
  for (const auto& load : workloads()) {
    const Bytes delta = Pipeline(options()).build_inplace(load.ref, load.ver).delta;
    Bytes buffer = load.ref;
    buffer.resize(std::max(load.ref.size(), load.ver.size()));
    const length_t n = apply_delta_inplace_streaming(delta, buffer, 333);
    ASSERT_TRUE(test::bytes_equal(load.ver, ByteView(buffer).first(n)))
        << load.name;
  }
}

TEST_P(PipelineMatrix, DeviceUpdater) {
  const auto loads = workloads();
  const auto& load = loads[1];  // binary-mutate fits the device nicely
  const Bytes delta = Pipeline(options()).build_inplace(load.ref, load.ver).delta;
  // The image area, then the journal; RAM covers the staged delta, its
  // table, the window, one journal slot and the conflict set.
  const JournalRegion journal{64 << 10, 12 << 10};
  FlashDevice dev(journal.offset + journal.size, 1024,
                  delta.size() + (32 << 10));
  dev.load_image(load.ref);
  clear_journal(dev, journal);
  const ResumableUpdateResult r =
      apply_update_resumable(dev, delta, channel_56k(), journal);
  ASSERT_TRUE(r.update.crc_verified);
  ASSERT_TRUE(test::bytes_equal(
      load.ver, ByteView(dev.inspect()).first(load.ver.size())));
}

TEST_P(PipelineMatrix, JournaledUpdaterWithMidwayCrash) {
  const auto loads = workloads();
  const auto& load = loads[0];  // text-swap: conversion-heavy
  const Bytes delta = Pipeline(options()).build_inplace(load.ref, load.ver).delta;

  const std::size_t image_area = 48 << 10;
  const JournalRegion journal{image_area, 16 << 10};
  FlashDevice dev(image_area + journal.size, 512,
                  delta.size() + (32 << 10));
  dev.load_image(load.ref);
  clear_journal(dev, journal);

  dev.inject_power_failure_after(10 << 10);
  try {
    apply_update_resumable(dev, delta, channel_56k(), journal);
  } catch (const FlashDevice::PowerFailure&) {
    dev.clear_power_failure();
    const ResumableUpdateResult r =
        apply_update_resumable(dev, delta, channel_56k(), journal);
    ASSERT_TRUE(r.resumed);
  }
  dev.clear_power_failure();
  ASSERT_TRUE(test::bytes_equal(
      load.ver, ByteView(dev.inspect()).first(load.ver.size())));
}

}  // namespace
}  // namespace ipd
