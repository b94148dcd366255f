// Robustness fuzzing (deterministic): the decoders and appliers must
// never crash, hang, or read out of bounds on hostile input — every
// malformed stream is rejected with an ipd::Error, and a stream that
// *decodes* must still reconstruct only through bounds-checked paths.
#include <gtest/gtest.h>

#include "apply/apply.hpp"
#include "apply/stream_applier.hpp"
#include "core/rng.hpp"
#include "corpus/generator.hpp"
#include "corpus_gen.hpp"
#include "delta/codec.hpp"
#include "ipdelta.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

// The fuzz corpus and these deterministic loops grow from the same
// generator (fuzz/corpus_gen.cpp), so a container-format change shifts
// every consumer at once. The reference file is regenerated here the
// same way the generator built it.
Bytes valid_delta(std::uint64_t seed) {
  return fuzzcorpus::valid_delta(seed, 5000);
}

Bytes reference_for(std::uint64_t seed) {
  Rng rng(seed);
  return generate_file(rng, 5000, FileProfile::kBinary);
}

TEST(FuzzCodec, RandomBytesNeverCrashDeserializer) {
  Rng rng(0xF002);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes junk(rng.below(200));
    rng.fill(junk);
    try {
      deserialize_delta(junk);
    } catch (const Error&) {
      // rejected: fine
    }
  }
}

TEST(FuzzCodec, RandomBytesWithValidMagicNeverCrash) {
  Rng rng(0xF003);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes junk(4 + rng.below(200));
    rng.fill(junk);
    junk[0] = 'I'; junk[1] = 'P'; junk[2] = 'D'; junk[3] = '1';
    try {
      deserialize_delta(junk);
    } catch (const Error&) {
    }
  }
}

TEST(FuzzCodec, SingleByteCorruptionsAlwaysRejectedOrEquivalent) {
  const Bytes delta = valid_delta(1);
  const Bytes ref = reference_for(1);
  const Bytes expected = [&] {
    Bytes buffer = ref;
    apply_delta_inplace(delta, buffer);
    return buffer;
  }();

  Rng rng(0xF004);
  for (int trial = 0; trial < 400; ++trial) {
    Bytes mutated = delta;
    mutated[rng.below(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
    Bytes buffer = ref;
    try {
      apply_delta_inplace(mutated, buffer);
      // Survived every checksum: the flip must have been semantically
      // neutral (e.g. flag byte it didn't change) — the result must
      // still be the true version.
      EXPECT_TRUE(test::bytes_equal(expected, buffer)) << "trial " << trial;
    } catch (const Error&) {
      // rejected: fine (buffer may be garbage only for streaming paths;
      // the batch applier validates before touching it)
    }
  }
}

TEST(FuzzCodec, TruncationsAlwaysRejected) {
  const Bytes delta = valid_delta(2);
  const Bytes ref = reference_for(2);
  Rng rng(0xF005);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t keep = rng.below(delta.size());
    Bytes buffer = ref;
    EXPECT_THROW(apply_delta_inplace(ByteView(delta).first(keep), buffer),
                 Error)
        << "kept " << keep;
  }
}

TEST(FuzzCodec, StreamingApplierSurvivesCorruptionUnderAnyChunking) {
  const Bytes delta = valid_delta(3);
  const Bytes ref = reference_for(3);
  Rng rng(0xF006);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = delta;
    // 1-3 corruptions.
    const int flips = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < flips; ++i) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.below(255));
    }
    Bytes buffer = ref;
    buffer.resize(std::max<std::size_t>(buffer.size(), 5000));
    const std::size_t chunk = 1 + rng.below(300);
    try {
      apply_delta_inplace_streaming(mutated, buffer, chunk);
    } catch (const Error&) {
    }
  }
}

TEST(FuzzCodec, HeaderParserNeverOverreads) {
  // try_parse_header over every prefix of a valid delta: must return
  // nullopt or a header, never throw for pure truncation.
  const Bytes delta = valid_delta(4);
  bool parsed_once = false;
  for (std::size_t keep = 0; keep <= std::min<std::size_t>(delta.size(), 64);
       ++keep) {
    const auto r = try_parse_header(ByteView(delta).first(keep));
    if (r) {
      parsed_once = true;
      EXPECT_LE(r->second, keep);
    }
  }
  EXPECT_TRUE(parsed_once);
}

TEST(FuzzCodec, StreamingDecoderChunkInvariance) {
  // The command sequence must be identical regardless of chunk sizes.
  const Bytes delta = valid_delta(5);
  const DeltaFile file = deserialize_delta(delta);

  // Re-extract the payload.
  const auto header = try_parse_header(delta);
  ASSERT_TRUE(header.has_value());
  const ByteView payload = ByteView(delta).subspan(
      header->second, static_cast<std::size_t>(header->first.payload_length));

  Rng rng(0xF007);
  for (int trial = 0; trial < 20; ++trial) {
    StreamingCommandDecoder decoder(file.format, file.version_length);
    std::vector<Command> commands;
    std::size_t pos = 0;
    while (pos < payload.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.below(97), payload.size() - pos);
      decoder.feed(payload.subspan(pos, n));
      pos += n;
      while (const auto cmd = decoder.next_ref()) {
        commands.push_back(cmd->to_command());
      }
    }
    EXPECT_EQ(commands, file.script.commands()) << "trial " << trial;
    EXPECT_EQ(decoder.consumed(), payload.size());
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

}  // namespace
}  // namespace ipd
