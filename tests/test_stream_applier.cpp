#include "apply/stream_applier.hpp"

#include <gtest/gtest.h>

#include "adversary/constructions.hpp"
#include "core/checksum.hpp"
#include "corpus/workload.hpp"
#include "ipdelta.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

struct Fixture {
  Bytes ref;
  Bytes ver;
  Bytes delta;
};

Fixture make_fixture(std::uint64_t seed = 11) {
  Fixture f;
  f.ref = test::random_bytes(seed, 20000);
  f.ver = f.ref;
  // Swap two blocks to force conflicts/cycles, then tweak.
  for (int i = 0; i < 3000; ++i) std::swap(f.ver[i], f.ver[i + 10000]);
  f.ver[5000] ^= 0xFF;
  f.delta = Pipeline().build_inplace(f.ref, f.ver).delta;
  return f;
}

class ChunkSizes : public ::testing::TestWithParam<std::size_t> {};
INSTANTIATE_TEST_SUITE_P(Sweep, ChunkSizes,
                         ::testing::Values(1, 7, 64, 1024, 1 << 20));

TEST_P(ChunkSizes, ReconstructsForEveryChunking) {
  const Fixture f = make_fixture();
  Bytes buffer = f.ref;
  buffer.resize(std::max(f.ref.size(), f.ver.size()));
  const length_t n =
      apply_delta_inplace_streaming(f.delta, buffer, GetParam());
  EXPECT_EQ(n, f.ver.size());
  EXPECT_TRUE(test::bytes_equal(f.ver, ByteView(buffer).first(n)));
}

TEST(StreamApplier, AppliesCommandsAsTheyArrive) {
  const Fixture f = make_fixture();
  Bytes buffer = f.ref;
  StreamingInplaceApplier applier(buffer);

  // Feed half the delta: some commands must already be applied, but the
  // applier must not claim completion.
  applier.feed(ByteView(f.delta).first(f.delta.size() / 2));
  EXPECT_TRUE(applier.header().has_value());
  EXPECT_FALSE(applier.finished());
  const std::size_t mid = applier.commands_applied();
  EXPECT_GT(mid, 0u);

  applier.feed(ByteView(f.delta).subspan(f.delta.size() / 2));
  EXPECT_TRUE(applier.finished());
  EXPECT_GT(applier.commands_applied(), mid);
  EXPECT_TRUE(test::bytes_equal(
      f.ver, ByteView(buffer).first(f.ver.size())));
}

TEST(StreamApplier, PeakBufferIsBoundedByLargestCommand) {
  const Fixture f = make_fixture();
  Bytes buffer = f.ref;
  StreamingInplaceApplier applier(buffer);
  for (std::size_t pos = 0; pos < f.delta.size(); pos += 64) {
    applier.feed(
        ByteView(f.delta).subspan(pos, std::min<std::size_t>(64, f.delta.size() - pos)));
  }
  ASSERT_TRUE(applier.finished());
  // Parser backlog never holds the whole delta.
  EXPECT_LT(applier.peak_buffered(), f.delta.size() / 2);
}

TEST(StreamApplier, HeaderAvailableBeforePayload) {
  const Fixture f = make_fixture();
  Bytes buffer = f.ref;
  StreamingInplaceApplier applier(buffer);
  std::size_t fed = 0;
  while (!applier.header() && fed < f.delta.size()) {
    applier.feed(ByteView(f.delta).subspan(fed, 1));
    ++fed;
  }
  ASSERT_TRUE(applier.header().has_value());
  EXPECT_LT(fed, 64u);  // header is a few dozen bytes at most
  EXPECT_EQ(applier.header()->reference_length, f.ref.size());
  EXPECT_EQ(applier.header()->version_length, f.ver.size());
  EXPECT_TRUE(applier.header()->in_place);
}

TEST(StreamApplier, RejectsNonInplaceDelta) {
  const Fixture f = make_fixture();
  const Bytes plain = Pipeline({.format = kPaperExplicit}).build_delta(f.ref, f.ver).delta;
  const DeltaFile parsed = deserialize_delta(plain);
  if (parsed.in_place) {
    GTEST_SKIP() << "delta happened to be conflict-free";
  }
  Bytes buffer = f.ref;
  StreamingInplaceApplier applier(buffer);
  EXPECT_THROW(applier.feed(plain), ValidationError);
}

TEST(StreamApplier, ConflictCheckingCatchesUnsafeOrder) {
  const AdversaryInstance inst = make_rotation(500, 100);
  DeltaFile file;
  file.format = kVarintExplicit;
  file.in_place = true;  // lie: the script has a WR conflict
  file.reference_length = 500;
  file.version_length = 500;
  file.version_crc = crc32c(inst.version);
  file.script = inst.script;
  const Bytes wire = serialize_delta(file);

  Bytes buffer = inst.reference;
  StreamingInplaceApplier applier(buffer);
  EXPECT_THROW(applier.feed(wire), ConflictError);
}

TEST(StreamApplier, ConflictCheckingSeesShadowedAndNestedWrites) {
  // A later, shorter write starting at (or nested inside) an earlier one
  // must not hide the earlier one's bytes from the oracle.
  for (const offset_t second : {offset_t{0}, offset_t{50}}) {
    DeltaFile file;
    file.format = kVarintExplicit;
    file.in_place = true;  // lie: the copy reads what the first add wrote
    file.reference_length = 120;
    file.version_length = 120;
    file.script = test::script_of({test::A(0, test::random_bytes(1, 100)),
                                   test::A(second, test::random_bytes(2, 10)),
                                   test::C(70, 100, 10)});
    Bytes buffer = test::random_bytes(3, 120);
    StreamingInplaceApplier applier(buffer);
    EXPECT_THROW(applier.feed(serialize_delta(file)), ConflictError)
        << "second add at " << second;
  }
}

TEST(StreamApplier, BufferTooSmallRejectedAtHeader) {
  const Fixture f = make_fixture();
  Bytes buffer(100);  // far too small
  StreamingInplaceApplier applier(buffer);
  EXPECT_THROW(applier.feed(f.delta), ValidationError);
}

TEST(StreamApplier, CorruptPayloadFailsAdlerAtEnd) {
  // An all-add delta whose middle byte sits inside add data: the flipped
  // byte parses fine and applies, and the payload adler catches it at
  // completion.
  const Bytes ver = test::random_bytes(9, 4000);
  Bytes delta = Pipeline().build_inplace({}, ver).delta;
  delta[delta.size() / 2] ^= 0x01;
  Bytes buffer(ver.size());
  StreamingInplaceApplier applier(buffer);
  EXPECT_THROW(applier.feed(delta), FormatError);
}

TEST(StreamApplier, CorruptCommandFieldRejectedEagerly) {
  // Corruption landing in a command field is caught by per-command
  // validation before the stream even ends.
  Fixture f = make_fixture();
  f.delta[f.delta.size() - 3] ^= 0x01;
  Bytes buffer = f.ref;
  StreamingInplaceApplier applier(buffer);
  EXPECT_THROW(applier.feed(f.delta), Error);
  EXPECT_FALSE(applier.finished());
}

TEST(StreamApplier, TrailingGarbageRejected) {
  const Fixture f = make_fixture();
  Bytes with_garbage = f.delta;
  with_garbage.push_back(0xAB);
  Bytes buffer = f.ref;
  StreamingInplaceApplier applier(buffer);
  EXPECT_THROW(applier.feed(with_garbage), FormatError);
}

TEST(StreamApplier, TruncatedStreamNeverFinishes) {
  const Fixture f = make_fixture();
  Bytes buffer = f.ref;
  EXPECT_THROW(apply_delta_inplace_streaming(
                   ByteView(f.delta).first(f.delta.size() - 5), buffer, 64),
               FormatError);
}

TEST(StreamApplier, PoisonedAfterError) {
  const Fixture f = make_fixture();
  Bytes small(10);
  StreamingInplaceApplier applier(small);
  EXPECT_THROW(applier.feed(f.delta), ValidationError);
  EXPECT_THROW(applier.feed(ByteView{}), ValidationError);
}

TEST(StreamApplier, ZeroChunkSizeRejected) {
  Bytes buffer(1);
  EXPECT_THROW(apply_delta_inplace_streaming(buffer, buffer, 0),
               ValidationError);
}

TEST(StreamApplier, EmptyDeltaForEmptyFiles) {
  const Bytes delta = Pipeline().build_inplace({}, {}).delta;
  Bytes buffer;
  EXPECT_EQ(apply_delta_inplace_streaming(delta, buffer, 3), 0u);
}

TEST(StreamApplier, MatchesBatchApplierAcrossCorpus) {
  for (const VersionPair& pair : small_corpus(21)) {
    const Bytes delta = Pipeline().build_inplace(pair.reference, pair.version).delta;
    Bytes batch = pair.reference;
    batch.resize(std::max(pair.reference.size(), pair.version.size()));
    apply_delta_inplace(delta, batch);

    Bytes streamed = pair.reference;
    streamed.resize(batch.size());
    apply_delta_inplace_streaming(delta, streamed, 113);
    EXPECT_TRUE(test::bytes_equal(batch, streamed)) << pair.name;
  }
}

}  // namespace
}  // namespace ipd
