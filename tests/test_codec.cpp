#include "delta/codec.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "apply/apply.hpp"
#include "apply_paths.hpp"
#include "core/buffer.hpp"
#include "core/checksum.hpp"
#include "core/io.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "ipdelta.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"
#include "verify/verifier.hpp"

namespace ipd {
namespace {

using test::A;
using test::C;
using test::Fixture;
using test::script_of;

DeltaHeader make_header(const Script& script, length_t ref_len,
                        DeltaFormat format) {
  DeltaHeader h;
  h.format = format;
  h.reference_length = ref_len;
  h.version_length = script.version_length();
  h.version_crc = 0;  // not checked by the codec itself
  return h;
}

Bytes encode(const Script& script, length_t ref_len, DeltaFormat format) {
  return test::encode(make_header(script, ref_len, format), script);
}

/// A parsed delta with its commands as a Script, and the wire its adds
/// borrow.
struct Decoded {
  Bytes wire;
  DeltaHeader header;
  Script script;
};

Decoded decode(Bytes wire) {
  Decoded out{std::move(wire)};
  ParsedDelta parsed = parse_delta(out.wire);
  out.header = parsed.header;
  out.script = Script(std::move(parsed));
  return out;
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
  const Decoded back = decode(encode(script, 100, GetParam()));

  EXPECT_EQ(back.header.format, GetParam());
  EXPECT_EQ(back.header.reference_length, 100u);
  EXPECT_EQ(back.header.version_length, 21u);
  EXPECT_EQ(back.script, script);
}

TEST_P(CodecFormatTest, RoundTripEmptyScript) {
  const Decoded back = decode(encode(Script{}, 0, GetParam()));
  EXPECT_TRUE(back.script.empty());
  EXPECT_EQ(back.header.version_length, 0u);
}

TEST_P(CodecFormatTest, RoundTripLargeOffsets) {
  // Offsets above 2^16 and 2^32 hit the wider PaperByte field classes.
  Script script;
  script.push(CopyCommand{0x1FFFF, 0, 100});
  script.push_owned_add(100, test::random_bytes(1, 40));
  script.push(CopyCommand{0x1'0000'0001ull, 140, 60});
  const Decoded back = decode(encode(script, 0x2'0000'0000ull, GetParam()));
  EXPECT_EQ(back.script, script);
}

TEST_P(CodecFormatTest, InPlaceFlagSurvives) {
  const Script script = script_of({A(0, "ab")});
  DeltaHeader header = make_header(script, 0, GetParam());
  header.in_place = true;
  EXPECT_TRUE(parse_delta(test::encode(header, script)).header.in_place);
  header.in_place = false;
  EXPECT_FALSE(parse_delta(test::encode(header, script)).header.in_place);
}

TEST(Codec, ImplicitFormatRejectsPermutedScript) {
  // Copies out of write order — fine with explicit offsets, impossible
  // without them (the paper's core encoding observation).
  const Script permuted = script_of({C(0, 5, 5), C(5, 0, 5)});
  EXPECT_NO_THROW(encode(permuted, 10, kPaperExplicit));
  EXPECT_THROW(encode(permuted, 10, kPaperSequential), ValidationError);
  EXPECT_THROW(encode(permuted, 10, kVarintSequential), ValidationError);
}

TEST(Codec, PaperByteSplitsLongAdds) {
  // 1000-byte add exceeds the single-byte length field; the decoder sees
  // ceil(1000/255) = 4 adds with identical total effect.
  const Bytes payload = test::random_bytes(2, 1000);
  const Script script = script_of({A(0, payload)});
  const Decoded back = decode(encode(script, 0, kPaperExplicit));
  EXPECT_EQ(back.script.summary().add_count, 4u);
  EXPECT_EQ(back.script.summary().added_bytes, 1000u);
  EXPECT_TRUE(test::bytes_equal(payload, apply_script(back.script, {})));
}

TEST(Codec, VarintKeepsLongAddsWhole) {
  const Script script = script_of({A(0, test::random_bytes(3, 1000))});
  const Decoded back = decode(encode(script, 0, kVarintExplicit));
  EXPECT_EQ(back.script.summary().add_count, 1u);
}

TEST(Codec, VarintIsSmallerThanPaperByteOnShortAdds) {
  // The paper attributes its encoding loss to the byte codewords; the
  // varint redesign should beat them on add-heavy scripts.
  Script script;
  offset_t to = 0;
  for (int i = 0; i < 100; ++i) {
    script.push_owned_add(to, test::random_bytes(i, 10));
    to += 10;
  }
  const std::size_t paper = encode(script, 0, kPaperExplicit).size();
  const std::size_t varint = encode(script, 0, kVarintExplicit).size();
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
    script.push_owned_add(to, test::random_bytes(i, 5));
    to += 5;
  }
  const std::size_t implicit = encode(script, 10000, kPaperSequential).size();
  const std::size_t explicit_size =
      encode(script, 10000, kPaperExplicit).size();
  EXPECT_LT(implicit, explicit_size);
}

TEST(Codec, RejectsBadMagic) {
  Bytes wire = encode(script_of({A(0, "x")}), 0, kPaperExplicit);
  wire[0] = 'X';
  EXPECT_THROW(parse_delta(wire), FormatError);
}

TEST(Codec, RejectsUnknownFormatByte) {
  Bytes wire = encode(script_of({A(0, "x")}), 0, kPaperExplicit);
  wire[4] = 0xFF;
  EXPECT_THROW(parse_delta(wire), FormatError);
}

TEST(Codec, RejectsUnknownFlags) {
  Bytes wire = encode(script_of({A(0, "x")}), 0, kPaperExplicit);
  wire[5] = 0x80;
  EXPECT_THROW(parse_delta(wire), FormatError);
}

TEST(Codec, RejectsCorruptPayload) {
  Bytes wire = encode(script_of({A(0, "hello")}), 0, kPaperExplicit);
  wire.back() ^= 0x01;  // flip a payload byte -> adler mismatch
  EXPECT_THROW(parse_delta(wire), FormatError);
}

TEST(Codec, RejectsTruncation) {
  const Bytes wire = encode(script_of({A(0, "hello")}), 0, kPaperExplicit);
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    EXPECT_THROW(parse_delta(ByteView(wire).first(keep)), FormatError)
        << "kept " << keep << " of " << wire.size();
  }
}

TEST(Codec, RejectsTrailingGarbage) {
  Bytes wire = encode(script_of({A(0, "x")}), 0, kPaperExplicit);
  wire.push_back(0);
  EXPECT_THROW(parse_delta(wire), FormatError);
}

TEST(Codec, RejectsScriptViolations) {
  // Payload decodes but the script reads past the declared reference.
  const Script script = script_of({C(80, 0, 20)});
  const Bytes wire = encode(script, /*ref_len=*/100, kPaperExplicit);
  // Same commands, smaller declared reference.
  EXPECT_THROW(parse_delta(encode(script, /*ref_len=*/50, kPaperExplicit)),
               ValidationError);
  EXPECT_NO_THROW(parse_delta(wire));
}

TEST_P(CodecFormatTest, CompressedPayloadRoundTrips) {
  // Compressible script: repetitive add data plus a run of copies.
  Script script;
  offset_t to = 0;
  for (int i = 0; i < 20; ++i) {
    script.push(CopyCommand{static_cast<offset_t>(i * 64), to, 32});
    to += 32;
    script.push_owned_add(to, Bytes(100, static_cast<std::uint8_t>(i)));
    to += 100;
  }
  DeltaHeader header = make_header(script, 4096, GetParam());
  header.compress_payload = true;
  const Bytes compressed_wire = test::encode(header, script);
  header.compress_payload = false;
  const Bytes plain_wire = test::encode(header, script);

  EXPECT_LT(compressed_wire.size(), plain_wire.size());
  const Decoded back = decode(compressed_wire);
  EXPECT_TRUE(back.header.compress_payload);
  EXPECT_EQ(back.script, script);
}

TEST_P(CodecFormatTest, CompressedEmptyScript) {
  DeltaHeader header = make_header(Script{}, 0, GetParam());
  header.compress_payload = true;
  EXPECT_TRUE(parse_delta(test::encode(header, Script{})).commands.empty());
}

TEST(Codec, CompressionAutoFallbackNeverGrowsFile) {
  // Incompressible payload: requesting compression must not add a byte.
  Script script;
  script.push_owned_add(0, test::random_bytes(77, 3000));
  DeltaHeader header = make_header(script, 0, kVarintExplicit);
  const std::size_t plain_size = test::encode(header, script).size();
  header.compress_payload = true;
  const Bytes wire = test::encode(header, script);
  EXPECT_EQ(wire.size(), plain_size);
  const Decoded back = decode(wire);
  EXPECT_FALSE(back.header.compress_payload);  // fallback reflected on the wire
  EXPECT_EQ(back.script, script);
}

TEST(Codec, CompressedCorruptionRejected) {
  Script script;
  script.push_owned_add(0, Bytes(1000, 7));
  DeltaHeader header = make_header(script, 0, kVarintExplicit);
  header.compress_payload = true;
  Bytes wire = test::encode(header, script);
  for (const std::size_t at : {5ul, wire.size() / 2, wire.size() - 1}) {
    Bytes bad = wire;
    bad[at] ^= 0x08;
    EXPECT_THROW(parse_delta(bad), Error) << "at " << at;
  }
}

TEST(Codec, HeaderReportsCompressedAndUncompressedSizes) {
  Script script;
  script.push_owned_add(0, Bytes(5000, 9));
  DeltaHeader input = make_header(script, 0, kVarintExplicit);
  input.compress_payload = true;
  const Bytes wire = test::encode(input, script);
  const auto header = try_parse_header(wire);
  ASSERT_TRUE(header.has_value());
  EXPECT_TRUE(header->first.compress_payload);
  EXPECT_LT(header->first.payload_length, header->first.payload_uncompressed);
  // Uncompressed size equals the plain payload's length.
  input.compress_payload = false;
  const auto plain_header = try_parse_header(test::encode(input, script));
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
    DeltaHeader header = make_header(script, ref.size(), GetParam());
    header.compress_payload = compress;
    const Bytes wire = test::encode(header, script);
    ParsedDelta parsed = parse_delta(wire);
    // Moving the table keeps the decompressed stream its adds point into.
    const ParsedDelta moved = std::move(parsed);
    EXPECT_EQ(moved.header.compress_payload, compress);
    for (const CommandRef& c : moved.commands) {
      if (c.is_add() && !moved.header.compress_payload) {
        // Uncompressed adds point into the artifact itself.
        EXPECT_GE(c.literal, wire.data());
        EXPECT_LE(c.literal + c.length, wire.data() + wire.size());
      }
    }
    EXPECT_EQ(Script(moved.commands), Script(parse_delta(wire).commands))
        << "compress=" << compress;
    EXPECT_EQ(apply_script(Script(moved.commands), ref),
              apply_script(script, ref))
        << "compress=" << compress;
  }
}

// Accept or reject alike, with the same exception type, and produce the
// same bytes: scratch always, and in place when the delta says it can.
void expect_paths_agree(ByteView delta, ByteView reference,
                        const std::string& what) {
  using namespace fuzzcorpus;
  EXPECT_EQ(borrowed_scratch(delta, reference),
            script_scratch(delta, reference))
      << what;
  const auto header = try_parse_header(delta);
  if (!header || header->first.version_length > (1u << 22)) return;
  Bytes buffer(reference.begin(), reference.end());
  buffer.resize(std::max<std::size_t>(
      buffer.size(), static_cast<std::size_t>(header->first.version_length)));
  EXPECT_EQ(borrowed_inplace(delta, buffer), script_inplace(delta, buffer))
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

TEST(ParseDelta, TableBytesCoverWhatTheTableHolds) {
  // The device updaters charge table_bytes() to RamArena: it must count
  // the table's storage, not just the rows in use, and the decoder must
  // not hold much more than it uses.
  Rng rng(0x7AB1E);
  const Bytes ref = generate_file(rng, 48 << 10, FileProfile::kText);
  Bytes ver = mutate(ref, rng, 40);
  const Bytes tail = generate_file(rng, 8 << 10, FileProfile::kText);
  ver.insert(ver.end(), tail.begin(), tail.end());  // a literal lzss packs
  for (const bool compress : {false, true}) {
    const Pipeline pipeline({.compress_payload = compress});
    const Bytes delta = pipeline.build_inplace(ref, ver).delta;
    const ParsedDelta parsed = parse_delta(delta);
    ASSERT_EQ(parsed.header.compress_payload, compress);
    EXPECT_GE(parsed.table_bytes(),
              parsed.commands.capacity() * sizeof(CommandRef) +
                  parsed.decompressed.capacity())
        << "compress=" << compress;
    EXPECT_LE(parsed.commands.capacity(), 2 * parsed.commands.size())
        << "compress=" << compress;
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

TEST(ParseDelta, FuzzCorpusRoundTripsOnTheTable) {
  // Every corpus file that parses encodes again from its table into a
  // container that parses to the same header and commands.
  std::size_t accepted = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(IPD_FUZZ_CODEC_CORPUS)) {
    const Bytes delta = read_file(entry.path());
    std::optional<ParsedDelta> parsed;
    try {
      parsed = parse_delta(delta);
    } catch (const Error&) {
      continue;
    }
    EXPECT_TRUE(fuzzcorpus::table_round_trips(*parsed))
        << entry.path().filename().string();
    ++accepted;
  }
  EXPECT_GE(accepted, 5u);
}

TEST(ParseDelta, RejectsLikeDeserialize) {
  // Range violations are ValidationErrors on both paths; bad containers
  // FormatErrors.
  const Bytes ref = test::random_bytes(5, 100);
  const auto wire_of = [](const Script& script, length_t ref_len,
                          length_t ver_len) {
    DeltaHeader h = make_header(script, ref_len, kPaperExplicit);
    h.version_length = ver_len;
    return test::encode(h, script);
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

TEST(ParseDelta, EachBatchDecodeIsOneDecodeSpan) {
  // parse_delta and the Verifier each record one `decode` span over the
  // artifact; the streaming decoder records none.
  const Bytes wire = encode(script_of({C(5, 0, 10), A(10, "hello")}), 100,
                            kPaperExplicit);
  const auto header = try_parse_header(wire);
  ASSERT_TRUE(header.has_value());
  obs::flush_thread_stats();
  const obs::StageCell before = obs::stage_totals()[obs::Stage::kDecode];
  parse_delta(wire);
  EXPECT_TRUE(Verifier().check(wire).well_formed);
  StreamingCommandDecoder decoder(header->first.format,
                                  header->first.version_length);
  decoder.feed(ByteView(wire).subspan(header->second));
  while (decoder.next_ref()) {
  }
  EXPECT_EQ(decoder.buffered(), 0u);
  obs::flush_thread_stats();
  const obs::StageCell after = obs::stage_totals()[obs::Stage::kDecode];
  EXPECT_EQ(after.count - before.count, 2u);
  EXPECT_EQ(after.bytes - before.bytes, 2 * wire.size());
}

TEST(Codec, AddLengthNearTwoToThe64IsTruncatedNotWrapped) {
  // Varint add, explicit offset 0, length 2^64-1, then two payload bytes:
  // the reader must not wrap `position + length` and accept it.
  const Bytes stream = {0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                        0xFF, 0xFF, 0xFF, 0x01, 'a',  'b'};
  DeltaHeader header;  // a correct container around the stream
  header.format = kVarintExplicit;
  header.reference_length = 1000;
  header.version_length = 1000;
  const Bytes delta = test::wrap_payload(header, stream);

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

// ---- DecodePin: the codeword decoder's outcomes, pinned ----------------
//
// One artifact per format, every payload truncation point and a handful
// of single-byte corruptions of every codeword byte but the add literals
// (opcodes, offsets, lengths), each re-wrapped in a container whose
// length and Adler-32 match, so the codeword decoder is what answers.
// The transcript of both decoders' outcomes (decode_delta's rejection
// kind, message and command index; StreamingCommandDecoder's rows, then
// its nullopt or FormatError text) is pinned as one FNV-1a hash per
// artifact. A decoder rewrite must leave every hash unchanged.

/// Copies from every PaperByte width class (f: 2/4/8 bytes, l: 1/2/4)
/// and adds up to `max_add` bytes, permuted when the format carries
/// write offsets. `huge` appends a copy past 4 GiB, which the PaperByte
/// encoder splits and which widens its write offsets to 8 bytes.
Script decode_pin_script(std::uint64_t seed, bool permute, length_t max_add,
                         bool huge) {
  Rng rng(seed);
  std::vector<Fixture> rows;
  offset_t to = 0;
  for (int i = 0; i < 48; ++i) {
    if (rng.below(2) == 0) {
      const length_t len = 1 + rng.below(max_add);
      rows.push_back(A(to, test::random_bytes(seed * 100 + i, len)));
      to += len;
      continue;
    }
    const std::uint64_t fc = rng.below(3);
    const offset_t from = fc == 0   ? rng.below(0x10000)
                          : fc == 1 ? 0x10000 + rng.below(1u << 24)
                                    : 0x100000000ull + rng.below(1u << 20);
    const std::uint64_t lc = rng.below(3);
    const length_t len = lc == 0   ? 1 + rng.below(255)
                         : lc == 1 ? 256 + rng.below(60000)
                                   : 65536 + rng.below(1u << 20);
    rows.push_back(C(from, to, len));
    to += len;
  }
  if (huge) rows.push_back(C(7, to, 0x100000100ull));
  if (permute) {
    for (std::size_t i = rows.size(); i > 1; --i) {
      std::swap(rows[i - 1], rows[rng.below(i)]);
    }
  }
  Script script;
  for (const Fixture& f : rows) {
    if (f.row.is_add()) {
      script.push_owned_add(f.row.to, f.data);
    } else {
      script.push(f.row);
    }
  }
  return script;
}

/// The rows' count and an FNV-1a hash of their fields and add bytes.
std::string rows_digest(std::span<const CommandRef> rows) {
  std::string text;
  for (const CommandRef& c : rows) {
    text += std::to_string(c.to) + "," + std::to_string(c.length) + ",";
    text += c.is_add() ? "a" + std::to_string(test::fnv1a(c.bytes()))
                       : std::to_string(c.from);
    text += ";";
  }
  return std::to_string(rows.size()) + ":" +
         std::to_string(test::fnv1a(ByteView(
             reinterpret_cast<const std::uint8_t*>(text.data()),
             text.size())));
}

/// Both decoders' outcome on `payload`, one transcript line. Collects
/// decode_delta's messages into `messages`.
std::string decode_outcome(const DeltaHeader& header, ByteView payload,
                           std::set<std::string>& messages) {
  std::string line = "batch ";
  ParsedDelta parsed;
  const Bytes wire = test::wrap_payload(header, payload);  // rows borrow it
  const auto rejection = decode_delta(wire, parsed);
  if (rejection) {
    line += std::to_string(static_cast<int>(rejection->kind)) + "@" +
            std::to_string(rejection->command) + " " + rejection->message;
    messages.insert(rejection->message);
  } else {
    line += "ok";
  }
  line += " rows " + rows_digest(parsed.commands);

  line += " | stream ";
  StreamingCommandDecoder decoder(header.format, header.version_length);
  decoder.feed(payload);
  std::vector<CommandRef> rows;
  std::string end;
  try {
    while (const auto c = decoder.next_ref()) rows.push_back(*c);
    end = "nullopt buffered " + std::to_string(decoder.buffered());
  } catch (const FormatError& e) {
    end = std::string("throw ") + e.what();
  }
  return line + rows_digest(rows) + " " + end + "\n";
}

struct DecodePinCase {
  DeltaFormat format;
  length_t max_add;
  bool huge;
  std::uint64_t transcript_fnv;
};

TEST(DecodePin, EveryTruncationAndCodewordCorruptionIsPinned) {
  const DecodePinCase cases[] = {
      {kPaperSequential, 255, false, 13155320587735888498ull},
      {kPaperExplicit, 255, true, 11347514964448442684ull},
      {kVarintSequential, 700, false, 1888660748839209517ull},
      {kVarintExplicit, 700, true, 1902892545371942646ull},
  };
  std::set<std::string> messages;
  for (const DecodePinCase& pin : cases) {
    const bool explicit_offsets = pin.format.offsets == WriteOffsets::kExplicit;
    const Script script = decode_pin_script(
        0xDEC0DE + static_cast<std::uint64_t>(pin.format.codeword),
        explicit_offsets, pin.max_add, pin.huge);
    DeltaHeader header = make_header(script, 1ull << 34, pin.format);
    header.in_place = explicit_offsets;
    const Bytes artifact = test::encode(header, script);
    const auto parsed_header = try_parse_header(artifact);
    ASSERT_TRUE(parsed_header.has_value());
    header = parsed_header->first;
    const ByteView payload = ByteView(artifact).subspan(parsed_header->second);

    std::string transcript;
    for (std::size_t keep = 0; keep <= payload.size(); ++keep) {
      transcript += "T" + std::to_string(keep) + " " +
                    decode_outcome(header, payload.first(keep), messages);
    }
    // Every byte of every codeword but an add's literal.
    StreamingCommandDecoder walk(header.format, header.version_length);
    walk.feed(payload);
    Bytes mutated(payload.begin(), payload.end());
    std::size_t codewords = 0;
    for (std::size_t start = 0; const auto c = walk.next_ref(); ++codewords) {
      const std::size_t end = static_cast<std::size_t>(walk.consumed());
      const std::size_t fields_end =
          end - (c->is_add() ? static_cast<std::size_t>(c->length) : 0);
      for (std::size_t i = start; i < fields_end; ++i) {
        const std::uint8_t original = mutated[i];
        const std::uint8_t values[] = {
            0x00, 0xFF, static_cast<std::uint8_t>(original ^ 0x01),
            static_cast<std::uint8_t>(original ^ 0x80),
            static_cast<std::uint8_t>(original + 1)};
        for (const std::uint8_t v : values) {
          if (v == original) continue;
          mutated[i] = v;
          transcript += "C" + std::to_string(i) + "=" + std::to_string(v) +
                        " " + decode_outcome(header, mutated, messages);
        }
        mutated[i] = original;
      }
      start = end;
    }
    EXPECT_EQ(walk.consumed(), payload.size());
    EXPECT_GE(codewords, 48u);
    EXPECT_EQ(test::fnv1a(ByteView(
                  reinterpret_cast<const std::uint8_t*>(transcript.data()),
                  transcript.size())),
              pin.transcript_fnv)
        << format_name(pin.format) << " (" << transcript.size()
        << " transcript bytes)";
  }
  for (const char* literal :
       {"add write offset truncated: stream ends mid-codeword",
        "add length truncated: stream ends mid-codeword",
        "copy write offset truncated: stream ends mid-codeword",
        "copy source offset truncated: stream ends mid-codeword",
        "copy length truncated: stream ends mid-codeword",
        "unknown PaperByte opcode 0", "unknown Varint opcode 255",
        "malformed varint in delta stream", "copy command with zero length",
        "add command with zero length",
        "add payload shorter than declared: need 114 bytes, have 0",
        "add payload shorter than declared: need 1126661 bytes, have 5962"}) {
    EXPECT_EQ(messages.count(literal), 1u) << literal;
  }
}

}  // namespace
}  // namespace ipd
