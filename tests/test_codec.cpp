#include "delta/codec.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "apply/apply.hpp"
#include "apply_paths.hpp"
#include "core/buffer.hpp"
#include "core/checksum.hpp"
#include "core/io.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "ipdelta.hpp"
#include "test_util.hpp"
#include "verify/verifier.hpp"

namespace ipd {
namespace {

using test::A;
using test::C;
using test::script_of;

DeltaFile make_file(Script script, length_t ref_len, DeltaFormat format) {
  DeltaFile f;
  f.format = format;
  f.reference_length = ref_len;
  f.version_length = script.version_length();
  f.version_crc = 0;  // not checked by the codec itself
  f.script = std::move(script);
  return f;
}

class CodecFormatTest : public ::testing::TestWithParam<DeltaFormat> {};

INSTANTIATE_TEST_SUITE_P(AllFormats, CodecFormatTest,
                         ::testing::Values(kPaperSequential, kPaperExplicit,
                                           kVarintSequential, kVarintExplicit),
                         [](const auto& info) {
                           std::string n = format_name(info.param);
                           for (char& c : n) {
                             if (c == '/' || c == '-') c = '_';
                           }
                           return n;
                         });

TEST_P(CodecFormatTest, RoundTripWriteOrderScript) {
  const Script script =
      script_of({C(5, 0, 10), A(10, "hello"), C(0, 15, 5), A(20, "!")});
  const DeltaFile file = make_file(script, 100, GetParam());
  const Bytes wire = serialize_delta(file);
  const DeltaFile back = deserialize_delta(wire);

  EXPECT_EQ(back.format, GetParam());
  EXPECT_EQ(back.reference_length, 100u);
  EXPECT_EQ(back.version_length, 21u);
  EXPECT_EQ(back.script, script);
}

TEST_P(CodecFormatTest, RoundTripEmptyScript) {
  const DeltaFile file = make_file(Script{}, 0, GetParam());
  const DeltaFile back = deserialize_delta(serialize_delta(file));
  EXPECT_TRUE(back.script.empty());
  EXPECT_EQ(back.version_length, 0u);
}

TEST_P(CodecFormatTest, RoundTripLargeOffsets) {
  // Offsets above 2^16 and 2^32 hit the wider PaperByte field classes.
  Script script;
  script.push(CopyCommand{0x1FFFF, 0, 100});
  script.push(AddCommand{100, test::random_bytes(1, 40)});
  script.push(CopyCommand{0x1'0000'0001ull, 140, 60});
  const DeltaFile file = make_file(script, 0x2'0000'0000ull, GetParam());
  const DeltaFile back = deserialize_delta(serialize_delta(file));
  EXPECT_EQ(back.script, script);
}

TEST_P(CodecFormatTest, InPlaceFlagSurvives) {
  DeltaFile file = make_file(script_of({A(0, "ab")}), 0, GetParam());
  file.in_place = true;
  EXPECT_TRUE(deserialize_delta(serialize_delta(file)).in_place);
  file.in_place = false;
  EXPECT_FALSE(deserialize_delta(serialize_delta(file)).in_place);
}

TEST(Codec, ImplicitFormatRejectsPermutedScript) {
  // Copies out of write order — fine with explicit offsets, impossible
  // without them (the paper's core encoding observation).
  const Script permuted = script_of({C(0, 5, 5), C(5, 0, 5)});
  EXPECT_NO_THROW(
      serialize_delta(make_file(permuted, 10, kPaperExplicit)));
  EXPECT_THROW(serialize_delta(make_file(permuted, 10, kPaperSequential)),
               ValidationError);
  EXPECT_THROW(serialize_delta(make_file(permuted, 10, kVarintSequential)),
               ValidationError);
}

TEST(Codec, PaperByteSplitsLongAdds) {
  // 1000-byte add exceeds the single-byte length field; the decoder sees
  // ceil(1000/255) = 4 adds with identical total effect.
  const Bytes payload = test::random_bytes(2, 1000);
  const Script script = script_of({A(0, payload)});
  const DeltaFile back = deserialize_delta(
      serialize_delta(make_file(script, 0, kPaperExplicit)));
  EXPECT_EQ(back.script.summary().add_count, 4u);
  EXPECT_EQ(back.script.summary().added_bytes, 1000u);
  EXPECT_TRUE(test::bytes_equal(payload, apply_script(back.script, {})));
}

TEST(Codec, VarintKeepsLongAddsWhole) {
  const Script script = script_of({A(0, test::random_bytes(3, 1000))});
  const DeltaFile back = deserialize_delta(
      serialize_delta(make_file(script, 0, kVarintExplicit)));
  EXPECT_EQ(back.script.summary().add_count, 1u);
}

TEST(Codec, VarintIsSmallerThanPaperByteOnShortAdds) {
  // The paper attributes its encoding loss to the byte codewords; the
  // varint redesign should beat them on add-heavy scripts.
  Script script;
  offset_t to = 0;
  for (int i = 0; i < 100; ++i) {
    script.push(AddCommand{to, test::random_bytes(i, 10)});
    to += 10;
  }
  const std::size_t paper =
      serialize_delta(make_file(script, 0, kPaperExplicit)).size();
  const std::size_t varint =
      serialize_delta(make_file(script, 0, kVarintExplicit)).size();
  EXPECT_LT(varint, paper);
}

TEST(Codec, ExplicitOffsetsCostMoreThanImplicit) {
  // Table 1's "encoding loss": same script, same codewords, the only
  // difference is carrying write offsets.
  Script script;
  offset_t to = 0;
  for (int i = 0; i < 50; ++i) {
    script.push(CopyCommand{static_cast<offset_t>(i * 100), to, 30});
    to += 30;
    script.push(AddCommand{to, test::random_bytes(i, 5)});
    to += 5;
  }
  const std::size_t implicit =
      serialize_delta(make_file(script, 10000, kPaperSequential)).size();
  const std::size_t explicit_size =
      serialize_delta(make_file(script, 10000, kPaperExplicit)).size();
  EXPECT_LT(implicit, explicit_size);
}

TEST(Codec, RejectsBadMagic) {
  Bytes wire = serialize_delta(make_file(script_of({A(0, "x")}), 0,
                                         kPaperExplicit));
  wire[0] = 'X';
  EXPECT_THROW(deserialize_delta(wire), FormatError);
}

TEST(Codec, RejectsUnknownFormatByte) {
  Bytes wire = serialize_delta(make_file(script_of({A(0, "x")}), 0,
                                         kPaperExplicit));
  wire[4] = 0xFF;
  EXPECT_THROW(deserialize_delta(wire), FormatError);
}

TEST(Codec, RejectsUnknownFlags) {
  Bytes wire = serialize_delta(make_file(script_of({A(0, "x")}), 0,
                                         kPaperExplicit));
  wire[5] = 0x80;
  EXPECT_THROW(deserialize_delta(wire), FormatError);
}

TEST(Codec, RejectsCorruptPayload) {
  Bytes wire = serialize_delta(make_file(script_of({A(0, "hello")}), 0,
                                         kPaperExplicit));
  wire.back() ^= 0x01;  // flip a payload byte -> adler mismatch
  EXPECT_THROW(deserialize_delta(wire), FormatError);
}

TEST(Codec, RejectsTruncation) {
  const Bytes wire = serialize_delta(make_file(script_of({A(0, "hello")}), 0,
                                               kPaperExplicit));
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    EXPECT_THROW(deserialize_delta(ByteView(wire).first(keep)), FormatError)
        << "kept " << keep << " of " << wire.size();
  }
}

TEST(Codec, RejectsTrailingGarbage) {
  Bytes wire = serialize_delta(make_file(script_of({A(0, "x")}), 0,
                                         kPaperExplicit));
  wire.push_back(0);
  EXPECT_THROW(deserialize_delta(wire), FormatError);
}

TEST(Codec, RejectsScriptViolations) {
  // Payload decodes but the script reads past the declared reference.
  const Script script = script_of({C(80, 0, 20)});
  const Bytes wire =
      serialize_delta(make_file(script, /*ref_len=*/100, kPaperExplicit));
  // Same commands, smaller declared reference.
  DeltaFile f = make_file(script, /*ref_len=*/50, kPaperExplicit);
  EXPECT_THROW(deserialize_delta(serialize_delta(f)), ValidationError);
  EXPECT_NO_THROW(deserialize_delta(wire));
}

TEST_P(CodecFormatTest, CompressedPayloadRoundTrips) {
  // Compressible script: repetitive add data plus a run of copies.
  Script script;
  offset_t to = 0;
  for (int i = 0; i < 20; ++i) {
    script.push(CopyCommand{static_cast<offset_t>(i * 64), to, 32});
    to += 32;
    script.push(AddCommand{to, Bytes(100, static_cast<std::uint8_t>(i))});
    to += 100;
  }
  DeltaFile file = make_file(script, 4096, GetParam());
  file.compress_payload = true;
  const Bytes compressed_wire = serialize_delta(file);
  file.compress_payload = false;
  const Bytes plain_wire = serialize_delta(file);

  EXPECT_LT(compressed_wire.size(), plain_wire.size());
  const DeltaFile back = deserialize_delta(compressed_wire);
  EXPECT_TRUE(back.compress_payload);
  EXPECT_EQ(back.script, script);
}

TEST_P(CodecFormatTest, CompressedEmptyScript) {
  DeltaFile file = make_file(Script{}, 0, GetParam());
  file.compress_payload = true;
  const DeltaFile back = deserialize_delta(serialize_delta(file));
  EXPECT_TRUE(back.script.empty());
}

TEST(Codec, CompressionAutoFallbackNeverGrowsFile) {
  // Incompressible payload: requesting compression must not add a byte.
  Script script;
  script.push(AddCommand{0, test::random_bytes(77, 3000)});
  DeltaFile file = make_file(script, 0, kVarintExplicit);
  const std::size_t plain_size = serialize_delta(file).size();
  file.compress_payload = true;
  const Bytes wire = serialize_delta(file);
  EXPECT_EQ(wire.size(), plain_size);
  const DeltaFile back = deserialize_delta(wire);
  EXPECT_FALSE(back.compress_payload);  // fallback reflected on the wire
  EXPECT_EQ(back.script, script);
}

TEST(Codec, CompressedCorruptionRejected) {
  Script script;
  script.push(AddCommand{0, Bytes(1000, 7)});
  DeltaFile file = make_file(script, 0, kVarintExplicit);
  file.compress_payload = true;
  Bytes wire = serialize_delta(file);
  for (const std::size_t at : {5ul, wire.size() / 2, wire.size() - 1}) {
    Bytes bad = wire;
    bad[at] ^= 0x08;
    EXPECT_THROW(deserialize_delta(bad), Error) << "at " << at;
  }
}

TEST(Codec, HeaderReportsCompressedAndUncompressedSizes) {
  Script script;
  script.push(AddCommand{0, Bytes(5000, 9)});
  DeltaFile file = make_file(script, 0, kVarintExplicit);
  file.compress_payload = true;
  const Bytes wire = serialize_delta(file);
  const auto header = try_parse_header(wire);
  ASSERT_TRUE(header.has_value());
  EXPECT_TRUE(header->first.compress_payload);
  EXPECT_LT(header->first.payload_length, header->first.payload_uncompressed);
  // Uncompressed size equals the plain payload's length.
  file.compress_payload = false;
  const auto plain_header = try_parse_header(serialize_delta(file));
  ASSERT_TRUE(plain_header.has_value());
  EXPECT_EQ(header->first.payload_uncompressed,
            plain_header->first.payload_length);
}

// ---- parse_delta: the borrowed command table --------------------------

TEST_P(CodecFormatTest, ParseDeltaBorrowsTheSameCommands) {
  const Bytes ref = test::random_bytes(3, 2000);
  const Script script = script_of(
      {C(5, 0, 10), A(10, Bytes(600, 0x7E)), C(0, 610, 5), A(615, "!")});
  for (const bool compress : {false, true}) {
    DeltaFile f = make_file(script, ref.size(), GetParam());
    f.compress_payload = compress;
    const Bytes wire = serialize_delta(f);
    const DeltaFile owned = deserialize_delta(wire);
    ParsedDelta parsed = parse_delta(wire);
    // Moving the table keeps the decompressed stream its adds point into.
    const ParsedDelta moved = std::move(parsed);
    EXPECT_EQ(moved.header.compress_payload, owned.compress_payload);
    std::vector<Command> rebuilt;
    for (const CommandRef& c : moved.commands) {
      rebuilt.push_back(c.to_command());
      if (c.is_add() && !moved.header.compress_payload) {
        // Uncompressed adds point into the artifact itself.
        EXPECT_GE(c.literal, wire.data());
        EXPECT_LE(c.literal + c.length, wire.data() + wire.size());
      }
    }
    EXPECT_EQ(rebuilt, owned.script.commands()) << "compress=" << compress;
  }
}

// Accept or reject alike, with the same exception type, and produce the
// same bytes: scratch always, and in place when the delta says it can.
void expect_paths_agree(ByteView delta, ByteView reference,
                        const std::string& what) {
  using namespace fuzzcorpus;
  EXPECT_EQ(borrowed_scratch(delta, reference),
            owning_scratch(delta, reference))
      << what;
  const auto header = try_parse_header(delta);
  if (!header || header->first.version_length > (1u << 22)) return;
  Bytes buffer(reference.begin(), reference.end());
  buffer.resize(std::max<std::size_t>(
      buffer.size(), static_cast<std::size_t>(header->first.version_length)));
  EXPECT_EQ(borrowed_inplace(delta, buffer), owning_inplace(delta, buffer))
      << what;
}

TEST(ParseDelta, PipelineMatrixAgreesWithDeserialize) {
  Rng rng(0xD1FF);
  const Bytes ref = generate_file(rng, 12000, FileProfile::kBinary);
  const Bytes ver = mutate(ref, rng, 24);
  for (const DifferKind differ :
       {DifferKind::kGreedy, DifferKind::kOnePass, DifferKind::kSuffixGreedy,
        DifferKind::kBlockAligned}) {
    for (const DeltaFormat format : {kPaperSequential, kPaperExplicit,
                                     kVarintSequential, kVarintExplicit}) {
      for (const bool compress : {false, true}) {
        PipelineOptions options;
        options.differ = differ;
        options.format = format;
        options.compress_payload = compress;
        const Pipeline pipeline(options);
        const std::string what = std::string(differ_name(differ)) + " " +
                                 format_name(format) +
                                 (compress ? " lzss" : "");
        for (const bool in_place : {false, true}) {
          const Bytes delta = in_place ? pipeline.build_inplace(ref, ver).delta
                                       : pipeline.build_delta(ref, ver).delta;
          EXPECT_EQ(fuzzcorpus::borrowed_scratch(delta, ref).bytes, ver)
              << what;
          expect_paths_agree(delta, ref, what);
          // A wrong reference fails the version CRC on both paths, after
          // the same bytes were written.
          Bytes wrong = ref;
          wrong[wrong.size() / 2] ^= 0x55;
          expect_paths_agree(delta, wrong, what + " wrong reference");
          // Truncated and corrupted containers are rejected alike.
          expect_paths_agree(ByteView(delta).first(delta.size() - 1), ref,
                             what + " truncated");
          Bytes flipped = delta;
          flipped[flipped.size() - 3] ^= 0x20;
          expect_paths_agree(flipped, ref, what + " flipped");
        }
      }
    }
  }
}

TEST(ParseDelta, FuzzCorpusAgreesWithDeserialize) {
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(IPD_FUZZ_CODEC_CORPUS)) {
    const Bytes delta = read_file(entry.path());
    // Any reference of the declared length: both paths must still agree
    // byte for byte, CRC verdict included.
    length_t ref_len = 0;
    try {
      if (const auto header = try_parse_header(delta)) {
        ref_len = header->first.reference_length;
      }
    } catch (const FormatError&) {
    }
    const Bytes ref =
        test::random_bytes(7, static_cast<std::size_t>(
                                  std::min<length_t>(ref_len, 1u << 20)));
    expect_paths_agree(delta, ref, entry.path().filename().string());
    ++files;
  }
  EXPECT_GE(files, 10u);
}

TEST(ParseDelta, RejectsLikeDeserialize) {
  // Range violations are ValidationErrors on both paths; bad containers
  // FormatErrors.
  const Bytes ref = test::random_bytes(5, 100);
  const auto wire_of = [](const Script& script, length_t ref_len,
                          length_t ver_len) {
    DeltaFile f = make_file(script, ref_len, kPaperExplicit);
    f.version_length = ver_len;
    return serialize_delta(f);
  };
  EXPECT_THROW(parse_delta(wire_of(script_of({C(80, 0, 30)}), 100, 30)),
               ValidationError);  // reads past the reference
  EXPECT_THROW(parse_delta(wire_of(script_of({A(0, "abc")}), 100, 2)),
               ValidationError);  // writes past the version
  EXPECT_THROW(
      parse_delta(wire_of(script_of({A(0, "ab"), A(1, "cd")}), 100, 3)),
      ValidationError);  // overlap
  EXPECT_THROW(parse_delta(wire_of(script_of({A(2, "ab")}), 100, 4)),
               ValidationError);  // gap at the start
  EXPECT_THROW(parse_delta(Bytes{'I', 'P', 'D', '1'}), FormatError);
  const Bytes good = wire_of(script_of({C(0, 0, 50)}), 100, 50);
  EXPECT_NO_THROW(parse_delta(good));
  expect_paths_agree(good, ref, "good");
}

TEST(Codec, AddLengthNearTwoToThe64IsTruncatedNotWrapped) {
  // Varint add, explicit offset 0, length 2^64-1, then two payload bytes:
  // the reader must not wrap `position + length` and accept it.
  const Bytes stream = {0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                        0xFF, 0xFF, 0xFF, 0x01, 'a',  'b'};
  ByteWriter w;  // a correct container around the stream
  w.write_string("IPD1");
  w.write_u8(0x11);  // varint codewords, explicit write offsets
  w.write_u8(0);     // flags: not in place, not compressed
  w.write_varint(1000);  // reference length
  w.write_varint(1000);  // version length
  w.write_u32le(0);      // version CRC
  w.write_varint(stream.size());
  w.write_u32le(adler32(stream));
  w.write_bytes(stream);
  const Bytes delta = w.take();

  const Report report = Verifier().check(delta);
  EXPECT_FALSE(report.well_formed);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].check, Check::kCodeword);
  EXPECT_NE(report.findings[0].message.find(
                "add payload shorter than declared"),
            std::string::npos)
      << report.findings[0].message;
  EXPECT_THROW(parse_delta(delta), FormatError);
}

TEST(Codec, FormatNames) {
  EXPECT_STREQ(format_name(kPaperSequential), "paper/no-write-offsets");
  EXPECT_STREQ(format_name(kPaperExplicit), "paper/write-offsets");
  EXPECT_STREQ(format_name(kVarintSequential), "varint/no-write-offsets");
  EXPECT_STREQ(format_name(kVarintExplicit), "varint/write-offsets");
}

}  // namespace
}  // namespace ipd
