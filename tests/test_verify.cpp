// The static delta-safety verifier (src/verify/): the malformed-delta
// corpus — every class of unsafe or ill-formed delta must produce its
// expected diagnostic — plus the other side of the coin: everything the
// pipeline produces verifies clean, and the verifier's in-place verdict
// agrees with the dynamic conflict oracle across the corpus. Also covers
// the trust-boundary gate (DeltaService preload).
#include <gtest/gtest.h>

#include <limits>

#include "apply/oracle.hpp"
#include "core/buffer.hpp"
#include "core/checksum.hpp"
#include "corpus/workload.hpp"
#include "ipdelta.hpp"
#include "server/delta_service.hpp"
#include "test_util.hpp"
#include "verify/verifier.hpp"

namespace ipd {
namespace {

constexpr offset_t kMaxOffset = std::numeric_limits<offset_t>::max();

/// Wrap raw payload bytes in a correct container (valid magic, lengths,
/// adler) so a test can malform exactly one layer at a time. The version
/// CRC is 0: it is not statically checkable.
Bytes wrap_payload(DeltaFormat format, bool in_place, length_t ref_len,
                   length_t ver_len, const Bytes& payload) {
  DeltaHeader header;
  header.format = format;
  header.in_place = in_place;
  header.reference_length = ref_len;
  header.version_length = ver_len;
  return test::wrap_payload(header, payload);
}

/// Serialize an arbitrary (possibly hostile) script as a delta file.
Bytes make_delta(const Script& script, bool in_place, length_t ref_len,
                 length_t ver_len,
                 DeltaFormat format = kVarintExplicit) {
  DeltaHeader header;
  header.format = format;
  header.in_place = in_place;
  header.reference_length = ref_len;
  header.version_length = ver_len;
  return test::encode(header, script);
}

/// The canonical Equation 2 violation: cmd#1 reads bytes cmd#0 wrote.
/// Tiles [0, ver_len) exactly, reads stay inside [0, ref_len).
Script conflicting_script(length_t ref_len, length_t ver_len) {
  const length_t h = std::min(ver_len, ref_len) / 2;
  Script s;
  s.push(CopyCommand{h, 0, h});                // writes [0, h)
  s.push(CopyCommand{0, h, ver_len - h});      // reads [0, ...) — conflict
  return s;
}

const Finding* find_check(const Report& report, Check check) {
  for (const Finding& f : report.findings) {
    if (f.check == check) return &f;
  }
  return nullptr;
}

// ------------------------------------------------ malformed-delta corpus

TEST(VerifyMalformed, TruncatedVarintFieldNamesTheField) {
  const Bytes payload = {0x02, 0x05, 0x81};  // copy; `from` never ends
  const Report r = Verifier().check(
      wrap_payload(kVarintExplicit, false, 64, 64, payload));
  EXPECT_FALSE(r.well_formed);
  EXPECT_FALSE(r.ok());
  const Finding* f = find_check(r, Check::kCodeword);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("copy source offset truncated"),
            std::string::npos)
      << f->message;
}

TEST(VerifyMalformed, OverlongVarintIsMalformedNotTruncated) {
  Bytes payload = {0x01};  // add; then an unterminated 10-byte varint
  payload.insert(payload.end(), 10, std::uint8_t{0x80});
  const Report r = Verifier().check(
      wrap_payload(kVarintExplicit, false, 64, 64, payload));
  EXPECT_FALSE(r.well_formed);
  const Finding* f = find_check(r, Check::kCodeword);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("malformed varint in delta stream"),
            std::string::npos)
      << f->message;
}

TEST(VerifyMalformed, AddPayloadShorterThanDeclared) {
  Bytes payload = {0x01, 0x00, 0x64};  // add at 0 declaring 100 bytes...
  payload.insert(payload.end(), {0xAA, 0xBB, 0xCC, 0xDD, 0xEE});  // ...5
  const Report r = Verifier().check(
      wrap_payload(kVarintExplicit, false, 64, 128, payload));
  EXPECT_FALSE(r.well_formed);
  const Finding* f = find_check(r, Check::kCodeword);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find(
                "add payload shorter than declared: need 100 bytes, have 5"),
            std::string::npos)
      << f->message;
}

TEST(VerifyMalformed, ZeroLengthCommandIsRejected) {
  const Bytes payload = {0x02, 0x00, 0x00, 0x00};  // copy <0,0,len 0>
  const Report r = Verifier().check(
      wrap_payload(kVarintExplicit, false, 64, 64, payload));
  EXPECT_FALSE(r.well_formed);
  const Finding* f = find_check(r, Check::kCodeword);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("copy command with zero length"),
            std::string::npos)
      << f->message;
}

TEST(VerifyMalformed, OverlappingWritesCiteBothCommands) {
  Script s;
  s.push(CopyCommand{0, 0, 10});   // writes [0, 9]
  s.push(CopyCommand{10, 5, 10});  // writes [5, 14] — double-writes [5, 9]
  const Report r = Verifier().check(make_delta(std::move(s), false, 20, 15));
  EXPECT_TRUE(r.well_formed);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.in_place_safe);
  const Finding* f = find_check(r, Check::kWriteOverlap);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->command, std::size_t{1});
  EXPECT_EQ(f->other, std::size_t{0});
  ASSERT_TRUE(f->bytes.has_value());
  EXPECT_EQ(*f->bytes, (Interval{5, 9}));
}

TEST(VerifyMalformed, OutOfBoundsCopySourceIsDiagnosed) {
  Script s;
  s.push(CopyCommand{100, 0, 10});  // reference is only 50 bytes
  const Report r = Verifier().check(make_delta(std::move(s), false, 50, 10));
  EXPECT_FALSE(r.ok());
  const Finding* f = find_check(r, Check::kReadBounds);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("copy reads [100, 109] outside the reference "
                            "file of 50 bytes"),
            std::string::npos)
      << f->message;
}

TEST(VerifyMalformed, OffsetPlusLengthWraparoundIsCaughtBeforeIntervalMath) {
  Script s;
  // to + length - 1 wraps around u64; Interval::of would "succeed" with
  // last < first and every downstream bound check would pass vacuously.
  s.push(CopyCommand{0, kMaxOffset - 4, 10});
  s.push_owned_add(0, Bytes(10, 0x11));
  const Report r = Verifier().check(make_delta(std::move(s), false, 64, 10));
  EXPECT_FALSE(r.ok());
  const Finding* f = find_check(r, Check::kOffsetOverflow);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->command, std::size_t{0});
  EXPECT_NE(f->message.find("overflows u64"), std::string::npos)
      << f->message;
}

TEST(VerifyMalformed, CoverageGapIsReportedWithTheMissingRange) {
  Script s;
  s.push(CopyCommand{0, 0, 10});  // version is 20 bytes; [10, 19] missing
  const Report r = Verifier().check(make_delta(std::move(s), false, 20, 20));
  EXPECT_FALSE(r.ok());
  const Finding* f = find_check(r, Check::kCoverage);
  ASSERT_NE(f, nullptr);
  ASSERT_TRUE(f->bytes.has_value());
  EXPECT_EQ(*f->bytes, (Interval{10, 19}));
}

TEST(VerifyMalformed, WrConflictEmitsTheCounterexampleTrace) {
  const Report r = Verifier().check(
      make_delta(conflicting_script(40, 40), true, 40, 40));
  EXPECT_TRUE(r.well_formed);
  EXPECT_FALSE(r.in_place_safe);
  EXPECT_FALSE(r.ok());
  const Finding* f = find_check(r, Check::kWriteBeforeRead);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->command, std::size_t{1});
  EXPECT_EQ(f->other, std::size_t{0});
  EXPECT_NE(f->message.find("conflict: cmd#1 reads [0, 19] after cmd#0 "
                            "wrote it"),
            std::string::npos)
      << f->message;
  // The header lied about in-place applicability — called out separately.
  EXPECT_NE(find_check(r, Check::kInPlaceFlag), nullptr);
}

TEST(VerifyMalformed, ContainerFaultsAreDiagnosedNotThrown) {
  Bytes good = make_delta(conflicting_script(40, 40), false, 40, 40);

  Bytes bad_magic = good;
  bad_magic[0] = 'X';
  Report r = Verifier().check(bad_magic);
  EXPECT_FALSE(r.well_formed);
  ASSERT_FALSE(r.findings.empty());
  EXPECT_NE(r.findings[0].message.find("bad magic"), std::string::npos);

  Bytes flipped = good;
  flipped.back() ^= 0xFF;
  r = Verifier().check(flipped);
  EXPECT_FALSE(r.well_formed);
  const Finding* f = find_check(r, Check::kPayload);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("payload checksum mismatch"), std::string::npos);

  r = Verifier().check(ByteView(good).first(3));
  EXPECT_FALSE(r.well_formed);

  Bytes trailing = good;
  trailing.push_back(0x00);
  r = Verifier().check(trailing);
  EXPECT_FALSE(r.well_formed);
  EXPECT_NE(r.findings[0].message.find("trailing garbage"),
            std::string::npos);
}

TEST(VerifyMalformed, FindingEnumerationIsCappedButVerdictExact) {
  Script s;
  for (int i = 0; i < 32; ++i) {
    s.push(CopyCommand{0, 0, 4});  // 32 commands all writing [0, 3]
  }
  VerifyOptions options;
  options.max_findings = 4;
  const Report r =
      Verifier(options).check(make_delta(std::move(s), false, 16, 4));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.findings_truncated);
  EXPECT_EQ(r.findings.size(), 4u);
  EXPECT_FALSE(r.in_place_safe);
}

// -------------------------------------------------- severity calibration

TEST(VerifySeverity, ConflictsInScratchDeltasAreNotErrors) {
  // A sequential scratch delta legitimately reads bytes it later writes
  // over; only in-place consumers must treat Equation 2 as fatal.
  const Bytes delta = make_delta(conflicting_script(40, 40), false, 40, 40);
  const Report relaxed = Verifier().check(delta);
  EXPECT_TRUE(relaxed.ok());
  EXPECT_FALSE(relaxed.in_place_safe);  // the verdict is still truthful

  VerifyOptions strict;
  strict.require_in_place = true;
  const Report required = Verifier(strict).check(delta);
  EXPECT_FALSE(required.ok());
  EXPECT_NE(find_check(required, Check::kWriteBeforeRead), nullptr);
}

TEST(VerifySeverity, CompressedPayloadDeclaringAbsurdSizeIsRefused) {
  DeltaHeader header;
  header.format = kVarintExplicit;
  header.compress_payload = true;
  header.reference_length = 64;
  header.version_length = 20000;
  const Bytes delta = test::encode(  // compresses well
      header, test::script_of({test::A(0, Bytes(20000, 0x41))}));
  ASSERT_TRUE(parse_delta(delta).header.compress_payload);  // lzss paid

  VerifyOptions limits;
  limits.max_payload_bytes = 16;  // pretend we are a tiny device
  const Report r = Verifier(limits).check(delta);
  EXPECT_FALSE(r.ok());
  const Finding* f = find_check(r, Check::kPayload);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("exceeds the 16-byte limit"), std::string::npos)
      << f->message;
}

// ------------------------------------------------ pipeline output: clean

TEST(VerifyClean, EveryPipelineMatrixDeltaVerifiesClean) {
  struct Load {
    Bytes ref, ver;
  };
  std::vector<Load> loads;
  Rng rng(0x3A3);
  {
    Bytes ref = generate_file(rng, 24000, FileProfile::kText);
    Bytes ver = ref;
    for (int i = 0; i < 4000; ++i) std::swap(ver[i], ver[i + 12000]);
    loads.push_back({std::move(ref), std::move(ver)});
  }
  {
    Bytes ref = generate_file(rng, 30000, FileProfile::kBinary);
    Bytes ver = mutate(ref, rng, 20);
    loads.push_back({std::move(ref), std::move(ver)});
  }

  const Verifier verifier;
  for (const DifferKind differ : {DifferKind::kGreedy, DifferKind::kOnePass}) {
    for (const BreakPolicy policy :
         {BreakPolicy::kConstantTime, BreakPolicy::kLocalMin,
          BreakPolicy::kSccGlobalMin}) {
      for (const Codeword codeword :
           {Codeword::kPaperByte, Codeword::kVarint}) {
        for (const bool compress : {false, true}) {
          PipelineOptions options;
          options.differ = differ;
          options.convert.policy = policy;
          options.format = DeltaFormat{codeword, WriteOffsets::kExplicit};
          options.compress_payload = compress;
          for (const Load& load : loads) {
            const Bytes delta =
                Pipeline(options).build_inplace(load.ref, load.ver).delta;
            const Report r = verifier.check(delta);
            EXPECT_TRUE(r.well_formed);
            EXPECT_TRUE(r.in_place_safe);
            EXPECT_TRUE(r.ok());
            EXPECT_EQ(r.warning_count(), 0u) << r.to_text();
          }
        }
      }
    }
  }
}

TEST(VerifyClean, ScratchDeltasVerifyCleanToo) {
  Rng rng(0x51);
  const Bytes ref = generate_file(rng, 20000, FileProfile::kText);
  const Bytes ver = mutate(ref, rng, 15);
  for (const DeltaFormat format :
       {kPaperSequential, kPaperExplicit, kVarintSequential,
        kVarintExplicit}) {
    const Bytes delta = Pipeline({.format = format}).build_delta(ref, ver).delta;
    const Report r = Verifier().check(delta);
    EXPECT_TRUE(r.well_formed) << format_name(format);
    EXPECT_TRUE(r.ok()) << format_name(format) << "\n" << r.to_text();
    EXPECT_EQ(r.warning_count(), 0u)
        << format_name(format) << "\n" << r.to_text();
  }
}

TEST(VerifyClean, VerdictAgreesWithTheDynamicOracleAcrossTheCorpus) {
  const Verifier verifier;
  for (const VersionPair& pair : small_corpus(11)) {
    for (const bool in_place : {false, true}) {
      Bytes delta;
      if (in_place) {
        delta = Pipeline().build_inplace(pair.reference, pair.version).delta;
      } else {
        delta = Pipeline({.format = kVarintExplicit}).build_delta(pair.reference, pair.version).delta;
      }
      const Report r = verifier.check(delta);
      ASSERT_TRUE(r.well_formed) << pair.name;
      EXPECT_TRUE(r.ok()) << pair.name << "\n" << r.to_text();
      EXPECT_EQ(r.in_place_safe,
                analyze_conflicts(Script(parse_delta(delta))).in_place_safe())
          << pair.name;
    }
  }
}

// -------------------------------------------------- reports render sanely

TEST(VerifyReport, JsonCarriesVerdictFindingsAndHeader) {
  const Report r = Verifier().check(
      make_delta(conflicting_script(40, 40), true, 40, 40));
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"in_place_safe\":false"), std::string::npos);
  EXPECT_NE(json.find("\"check\":\"write-before-read\""), std::string::npos);
  EXPECT_NE(json.find("\"command\":1"), std::string::npos);
  EXPECT_NE(json.find("\"header\":{"), std::string::npos);
  EXPECT_NE(json.find("\"in_place\":true"), std::string::npos);

  const std::string text = r.to_text();
  EXPECT_NE(text.find("in-place safe: false"), std::string::npos) << text;
  EXPECT_NE(text.find("error [write-before-read]"), std::string::npos);
}

// ------------------------------------------------- trust-boundary gates

class VerifyPreload : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(0x90);
    Bytes base = generate_file(rng, 16000, FileProfile::kBinary);
    Bytes next = mutate(base, rng, 12);
    store_.publish(std::move(base));
    store_.publish(std::move(next));
    service_ = std::make_unique<DeltaService>(store_, ServiceOptions{});
  }

  /// A delta whose header matches the store's endpoints exactly but
  /// whose script violates Equation 2 — the injection the verifier gate
  /// exists to stop (endpoint checks alone would admit it).
  Bytes injected_conflicting_delta() const {
    DeltaHeader header;
    header.format = kVarintExplicit;
    header.in_place = true;
    header.reference_length = store_.body(0)->size();
    header.version_length = store_.body(1)->size();
    header.version_crc = store_.content_key(1).crc;
    return test::encode(header, conflicting_script(header.reference_length,
                                                   header.version_length));
  }

  VersionStore store_;
  std::unique_ptr<DeltaService> service_;
};

TEST_F(VerifyPreload, ConflictingInjectionIsRefusedAndCounted) {
  EXPECT_FALSE(service_->preload(0, 1, injected_conflicting_delta()));
  EXPECT_EQ(service_->metrics().verify_rejects.load(), 1u);
  // Nothing poisoned: the next request builds (cache miss) and serves a
  // safe artifact that reconstructs the release.
  const ServeResult result = service_->serve(0, 1);
  EXPECT_FALSE(result.cache_hit);
  const Bytes rebuilt = apply_served(result, *store_.body(0));
  EXPECT_TRUE(test::bytes_equal(*store_.body(1), rebuilt));
}

TEST_F(VerifyPreload, WrongEndpointsAreRefusedEvenWhenSafe) {
  // Structurally perfect delta for the REVERSE hop: header lengths/crc
  // do not match (0 -> 1), so it must not be admitted for that key.
  const Bytes reversed =
      Pipeline().build_inplace(*store_.body(1), *store_.body(0)).delta;
  EXPECT_FALSE(service_->preload(0, 1, reversed));
  EXPECT_EQ(service_->metrics().verify_rejects.load(), 1u);
}

TEST_F(VerifyPreload, GenuineOfflineArtifactIsAdmittedAndServedFromCache) {
  const Bytes offline = Pipeline(service_->options().pipeline).build_inplace(*store_.body(0), *store_.body(1)).delta;
  EXPECT_TRUE(service_->preload(0, 1, offline));
  EXPECT_EQ(service_->metrics().verify_rejects.load(), 0u);
  const ServeResult result = service_->serve(0, 1);
  EXPECT_TRUE(result.cache_hit);  // no build: served the preloaded bytes
  const Bytes rebuilt = apply_served(result, *store_.body(0));
  EXPECT_TRUE(test::bytes_equal(*store_.body(1), rebuilt));
}

}  // namespace
}  // namespace ipd
