#include "delta/onepass_differ.hpp"

#include <gtest/gtest.h>

#include <sys/mman.h>

#include <limits>
#include <string>
#include <vector>

#include "apply/apply.hpp"
#include "core/rolling_hash.hpp"
#include "core/thread_pool.hpp"
#include "corpus/generator.hpp"
#include "corpus/mutation.hpp"
#include "delta/codec.hpp"
#include "delta/greedy_differ.hpp"
#include "ipdelta.hpp"
#include "test_util.hpp"

namespace ipd {
namespace {

using test::random_bytes;

Script diff(ByteView ref, ByteView ver, DifferOptions opts = {}) {
  return OnePassDiffer(opts).diff(ref, ver);
}

void expect_roundtrip(ByteView ref, ByteView ver, const Script& script) {
  ASSERT_NO_THROW(script.validate(ref.size(), ver.size()));
  EXPECT_TRUE(test::bytes_equal(ver, apply_script(script, ref)));
}

TEST(OnePassDiffer, IdenticalFilesSingleCopy) {
  const Bytes file = random_bytes(21, 20000);
  const Script script = diff(file, file);
  expect_roundtrip(file, file, script);
  EXPECT_EQ(script.summary().copy_count, 1u);
  EXPECT_EQ(script.summary().added_bytes, 0u);
}

TEST(OnePassDiffer, EmptyInputs) {
  EXPECT_TRUE(diff({}, {}).empty());
  const Bytes ver = random_bytes(22, 300);
  const Script script = diff({}, ver);
  expect_roundtrip({}, ver, script);
  EXPECT_EQ(script.summary().copy_count, 0u);
}

TEST(OnePassDiffer, LocalEditPreservesMostBytesAsCopies) {
  const Bytes ref = random_bytes(23, 65536);
  Bytes ver = ref;
  // A realistic release edit: replace a 1 KiB region.
  const Bytes patch = random_bytes(24, 1024);
  std::copy(patch.begin(), patch.end(), ver.begin() + 30000);
  const Script script = diff(ref, ver);
  expect_roundtrip(ref, ver, script);
  EXPECT_GT(script.summary().copied_bytes, 63000u);
}

TEST(OnePassDiffer, InsertionRoundTrips) {
  const Bytes ref = random_bytes(25, 8192);
  Bytes ver = ref;
  const Bytes inserted = random_bytes(26, 333);
  ver.insert(ver.begin() + 4000, inserted.begin(), inserted.end());
  const Script script = diff(ref, ver);
  expect_roundtrip(ref, ver, script);
  EXPECT_GT(script.summary().copied_bytes, 7800u);
}

TEST(OnePassDiffer, ConstantSpaceTableIsFixedSize) {
  // A tiny table still yields a correct (if less compact) delta on input
  // much larger than the table — the "constant space" property.
  const Bytes ref = random_bytes(27, 1 << 18);
  Bytes ver = ref;
  ver[1000] ^= 1;
  const Script script = diff(ref, ver, {.table_bits = 8});
  expect_roundtrip(ref, ver, script);
}

TEST(OnePassDiffer, CollisionsCostCompressionNotCorrectness) {
  // With a 256-slot table over 256 KiB, nearly every insert collides;
  // output must still reconstruct exactly.
  const Bytes ref = random_bytes(28, 1 << 18);
  const Bytes ver = [&] {
    Bytes v = ref;
    for (std::size_t i = 0; i < v.size(); i += 50000) v[i] ^= 0xA5;
    return v;
  }();
  const Script tiny_table = diff(ref, ver, {.table_bits = 8});
  const Script big_table = diff(ref, ver, {.table_bits = 20});
  expect_roundtrip(ref, ver, tiny_table);
  expect_roundtrip(ref, ver, big_table);
  // The bigger table should never compress worse.
  EXPECT_LE(big_table.summary().added_bytes,
            tiny_table.summary().added_bytes);
}

TEST(OnePassDiffer, CompressionCloseToGreedyOnVersionedData) {
  // The paper's claim for [5]: a small compression loss against greedy in
  // exchange for linear time. "Close" here = within 3x added bytes on a
  // realistic versioned pair.
  const Bytes ref = random_bytes(29, 1 << 16);
  Bytes ver = ref;
  Rng rng(30);
  for (int edit = 0; edit < 8; ++edit) {
    const std::size_t at = rng.below(ver.size() - 100);
    const Bytes patch = random_bytes(edit, 64);
    std::copy(patch.begin(), patch.end(),
              ver.begin() + static_cast<std::ptrdiff_t>(at));
  }
  const Script onepass = diff(ref, ver);
  const Script greedy = GreedyDiffer().diff(ref, ver);
  expect_roundtrip(ref, ver, onepass);
  expect_roundtrip(ref, ver, greedy);
  EXPECT_LE(onepass.summary().added_bytes,
            3 * greedy.summary().added_bytes + 512);
}

TEST(OnePassDiffer, TailShorterThanSeedBecomesLiterals) {
  const Bytes ref = random_bytes(31, 1000);
  Bytes ver(ref.begin(), ref.begin() + 500);
  ver.insert(ver.end(), {1, 2, 3});  // 3-byte tail, unmatched
  const Script script = diff(ref, ver);
  expect_roundtrip(ref, ver, script);
}

TEST(OnePassDiffer, FirstOccurrenceWinsSlot) {
  // Two identical blocks in the reference: matches must resolve to the
  // first (slot insertion policy), keeping `from` stable.
  Bytes ref = random_bytes(32, 256);
  const Bytes block = random_bytes(33, 512);
  ref.insert(ref.end(), block.begin(), block.end());
  ref.insert(ref.end(), block.begin(), block.end());
  const Script script = diff(ref, block);
  expect_roundtrip(ref, block, script);
  ASSERT_EQ(script.summary().copy_count, 1u);
  EXPECT_EQ(sorted_copies(script.commands())[0].from, 256u);
}


// ---- DifferPin: the one-pass differ's output bytes, pinned -------------
//
// The determinism matrix compares the differ with itself; these pins
// compare it with fixed checksums, so a faster index or scan that moves
// one output byte fails here. Each pin is FNV-1a over the serialized
// serial Script and over the build_inplace artifact, which must come out
// the same at parallelism 1 and 4 (segmentation at 16 KiB, so both small
// and large inputs take the segmented path; the 1.25 MiB case also takes
// the chunked parallel index build).

using test::fnv1a;

/// ipbench-style multi-profile image: fixed-size pieces, each from its
/// own derived seed, cycling through the profiles.
Bytes chunked_image(std::uint64_t seed, std::size_t size, std::size_t chunk) {
  const FileProfile profiles[] = {FileProfile::kBinary, FileProfile::kText,
                                  FileProfile::kRecords};
  Bytes image;
  for (std::uint64_t k = 0; image.size() < size; ++k) {
    Rng rng(derive_seed(seed, k));
    const Bytes piece = generate_file(rng, chunk, profiles[k % 3]);
    image.insert(image.end(), piece.begin(), piece.end());
  }
  image.resize(size);
  return image;
}

/// A 61-byte motif repeated, with sparse flips: nearly every reference
/// position shares its slot with many others.
Bytes repetitive(std::uint64_t seed, std::size_t size) {
  const Bytes motif = random_bytes(seed, 61);
  Bytes out(size);
  for (std::size_t i = 0; i < size; ++i) out[i] = motif[i % motif.size()];
  Rng rng(seed + 1);
  for (std::size_t i = 0; i < size / 512; ++i) {
    out[rng.below(size)] ^= static_cast<std::uint8_t>(1 + rng.below(255));
  }
  return out;
}

struct PinInput {
  Bytes ref;
  Bytes ver;
};

PinInput pin_input(const std::string& name) {
  PinInput in;
  if (name == "random") {
    Rng rng(0x51);
    in.ref = random_bytes(0x50, 96 << 10);
    in.ver = mutate(in.ref, rng, 40);
  } else if (name == "text") {
    Rng rng(0x52);
    in.ref = generate_file(rng, 96 << 10, FileProfile::kText);
    in.ver = mutate(in.ref, rng, 40);
  } else if (name == "chunked") {
    Rng rng(0x53);
    in.ref = chunked_image(0x53, 160 << 10, 16 << 10);
    in.ver = mutate(in.ref, rng, 60);
  } else if (name == "repetitive") {
    Rng rng(0x54);
    in.ref = repetitive(0x54, 64 << 10);
    in.ver = mutate(repetitive(0x55, 64 << 10), rng, 20);
  } else if (name == "shorter_than_seed") {
    in.ref = random_bytes(0x56, 4096);
    in.ver.assign(in.ref.begin() + 100, in.ref.begin() + 110);
  } else if (name == "one_seed") {
    in.ref = random_bytes(0x57, 4096);
    in.ver.assign(in.ref.begin() + 100, in.ref.begin() + 116);
  } else if (name == "short_tail") {
    in.ref = random_bytes(0x58, 8192);
    in.ver.assign(in.ref.begin() + 1000, in.ref.begin() + 5000);
    const Bytes tail = random_bytes(0x59, 11);
    in.ver.insert(in.ver.end(), tail.begin(), tail.end());
  } else if (name == "large") {
    Rng rng(0x5A);
    in.ref = generate_file(rng, (1 << 20) + (256 << 10), FileProfile::kBinary);
    in.ver = mutate(in.ref, rng, 120);
  }
  return in;
}

struct Pin {
  const char* input;
  std::size_t table_bits;
  std::uint64_t script;
  std::uint64_t artifact;
};

constexpr Pin kPins[] = {
    {"random", 8, 0x19eadcd291dadf6aull, 0x82134f37f597098cull},
    {"random", 18, 0x19f468d8951ebed9ull, 0x29be7cc5cf3e1ddeull},
    {"text", 8, 0xd4c2e278967cfe3cull, 0xb0bd6636af1c5f99ull},
    {"text", 18, 0xc8a679f001289412ull, 0xedd3fdd410f31259ull},
    {"chunked", 8, 0xae70e0656da58dd2ull, 0xb73a7847a98b546cull},
    {"chunked", 18, 0x4356317f785d97d7ull, 0xfc7498754646600dull},
    {"repetitive", 8, 0x3d6b745f5397c9b9ull, 0xd7aa45319e015821ull},
    {"repetitive", 18, 0x3d6b745f5397c9b9ull, 0xd7aa45319e015821ull},
    {"shorter_than_seed", 8, 0x91dade9edf7c033ull, 0x9a3be0f3a036760aull},
    {"shorter_than_seed", 18, 0x91dade9edf7c033ull, 0x9a3be0f3a036760aull},
    {"one_seed", 8, 0x16e3b28aa58f7fb5ull, 0x547d1826ec3da493ull},
    {"one_seed", 18, 0x2b2b9d5a109b1ccaull, 0x6eff228c4cbe8e13ull},
    {"short_tail", 8, 0xf1e8d6a6c1c6028bull, 0x47dc43271b2919f1ull},
    {"short_tail", 18, 0xf1e8d6a6c1c6028bull, 0x47dc43271b2919f1ull},
    {"large", 8, 0xe404a0edb49a5148ull, 0xa6c0ba7faeaead99ull},
    {"large", 18, 0x2eb0ef9907c3e62cull, 0xd28a89adff4e2988ull},
};

std::uint64_t script_checksum(const Script& script, const PinInput& in) {
  DeltaHeader header;
  header.format = kVarintSequential;
  header.reference_length = in.ref.size();
  header.version_length = in.ver.size();
  return fnv1a(test::encode(header, script));
}

std::uint64_t artifact_checksum(const PinInput& in, std::size_t table_bits,
                                std::size_t parallelism) {
  PipelineOptions options;
  options.differ_options.table_bits = table_bits;
  options.parallelism = parallelism;
  options.min_parallel_input = 32 << 10;
  options.parallel_segment_bytes = 16 << 10;
  return fnv1a(Pipeline(options).build_inplace(in.ref, in.ver).delta);
}

TEST(DifferPin, SerialScriptBytesArePinned) {
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(std::string(pin.input) + " table_bits=" +
                 std::to_string(pin.table_bits));
    const PinInput in = pin_input(pin.input);
    const Script script = diff(in.ref, in.ver, {.table_bits = pin.table_bits});
    expect_roundtrip(in.ref, in.ver, script);
    const std::uint64_t got = script_checksum(script, in);
    EXPECT_EQ(got, pin.script) << std::hex << "0x" << got << "ull";
  }
}

TEST(DifferPin, InplaceArtifactBytesArePinnedAtEveryParallelism) {
  for (const Pin& pin : kPins) {
    for (const std::size_t parallelism : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(pin.input) + " table_bits=" +
                   std::to_string(pin.table_bits) +
                   " p=" + std::to_string(parallelism));
      const PinInput in = pin_input(pin.input);
      const std::uint64_t got =
          artifact_checksum(in, pin.table_bits, parallelism);
      EXPECT_EQ(got, pin.artifact) << std::hex << "0x" << got << "ull";
    }
  }
}


// ---- Differential: the fast index and scan against naive copies -------

/// Forward first-occurrence fill, one position at a time: the table
/// build_index must reproduce.
std::vector<std::uint32_t> naive_table(ByteView ref, std::size_t seed,
                                       std::size_t table_bits) {
  if (ref.size() < seed) return {};
  std::vector<std::uint32_t> table(std::size_t{1} << table_bits,
                                   OnePassIndex::kEmpty);
  const std::size_t mask = table.size() - 1;
  RollingHash rh(seed);
  std::uint64_t h = rh.init(ref);
  for (std::size_t pos = 0; pos + seed <= ref.size(); ++pos) {
    if (pos > 0) h = rh.roll(h, ref[pos - 1], ref[pos + seed - 1]);
    std::uint32_t& slot = table[RollingHash::mix(h) & mask];
    if (slot == OnePassIndex::kEmpty) slot = static_cast<std::uint32_t>(pos);
  }
  return table;
}

/// Byte-at-a-time scan over the same index: probe each position,
/// verify the seed, extend byte by byte, and grow or retract the pending
/// literal run one byte at a time. The fast scan must emit exactly this.
Script naive_scan(const OnePassIndex& index, ByteView ref, ByteView ver,
                  const DifferOptions& opts) {
  ScriptBuilder builder(ver);
  const std::size_t seed = opts.seed_length;
  if (index.table.empty() || ver.size() < seed) {
    builder.literals(ver.size());
    return builder.finish();
  }
  RollingHash rh(seed);
  std::size_t pos = 0;
  while (pos < ver.size()) {
    if (pos + seed > ver.size()) {
      builder.literals(ver.size() - pos);
      break;
    }
    const std::uint32_t cand =
        index.table[RollingHash::mix(rh.init(ver.subspan(pos))) & index.mask];
    if (cand != OnePassIndex::kEmpty &&
        std::equal(ver.begin() + static_cast<std::ptrdiff_t>(pos),
                   ver.begin() + static_cast<std::ptrdiff_t>(pos + seed),
                   ref.begin() + cand)) {
      std::size_t fwd = seed;
      while (cand + fwd < ref.size() && pos + fwd < ver.size() &&
             ref[cand + fwd] == ver[pos + fwd]) {
        ++fwd;
      }
      std::size_t back = 0;
      while (back < builder.pending_literals() && back < cand &&
             back < pos && ref[cand - back - 1] == ver[pos - back - 1]) {
        ++back;
      }
      if (fwd + back >= opts.min_match) {
        builder.retract(back);
        builder.copy(cand - back, fwd + back);
        pos += fwd;
        continue;
      }
    }
    builder.literals(1);
    ++pos;
  }
  return builder.finish();
}

const OnePassIndex& as_onepass(const std::unique_ptr<DifferIndex>& index) {
  return dynamic_cast<const OnePassIndex&>(*index);
}

void expect_naive_table(ByteView ref, DifferOptions opts,
                        const ParallelContext& ctx = {}) {
  const auto index = OnePassDiffer(opts).build_index(ref, ctx);
  EXPECT_EQ(as_onepass(index).table,
            naive_table(ref, opts.seed_length, opts.table_bits));
}

void expect_naive_scan(ByteView ref, ByteView ver, DifferOptions opts) {
  const OnePassDiffer differ(opts);
  const auto index = differ.build_index(ref);
  const Script fast = differ.scan(*index, ref, ver);
  EXPECT_EQ(fast, naive_scan(as_onepass(index), ref, ver, opts));
  expect_roundtrip(ref, ver, fast);
}

TEST(OnePassDifferential, BlockFillMatchesForwardFillAtBlockEdges) {
  for (const std::size_t table_bits : {std::size_t{8}, std::size_t{18}}) {
    for (const std::size_t seed : {std::size_t{4}, std::size_t{16}}) {
      const DifferOptions opts{.seed_length = seed,
                               .min_match = seed,
                               .table_bits = table_bits};
      // Positions around the 1024-position fill block, a lone seed, and
      // a reference one byte short of a seed (empty table).
      for (const std::size_t positions :
           {std::size_t{1}, std::size_t{2}, std::size_t{1023},
            std::size_t{1024}, std::size_t{1025}, std::size_t{2049},
            std::size_t{4100}}) {
        SCOPED_TRACE(testing::Message() << "bits=" << table_bits << " seed="
                                        << seed << " positions=" << positions);
        expect_naive_table(random_bytes(positions, positions + seed - 1),
                           opts);
      }
      expect_naive_table(random_bytes(7, seed - 1), opts);
    }
  }
}

TEST(OnePassDifferential, BlockFillMatchesForwardFillOnRepetitiveData) {
  // Every slot is written many times; only the lowest position may stay.
  const Bytes ref = repetitive(0x60, 48 << 10);
  for (const std::size_t table_bits : {std::size_t{8}, std::size_t{18}}) {
    expect_naive_table(ref, {.table_bits = table_bits});
  }
  Bytes runs(20000, 0xAB);  // one fingerprint for all but a few positions
  runs[9000] = 0;
  expect_naive_table(runs, {});
}

TEST(OnePassDifferential, ParallelChunkFillMatchesForwardFill) {
  const Bytes ref =
      random_bytes(0x61, OnePassIndex::kParallelMinPositions + (96 << 10));
  ThreadPool pool(3);
  for (const std::size_t table_bits : {std::size_t{8}, std::size_t{18}}) {
    expect_naive_table(ref, {.table_bits = table_bits},
                       ParallelContext{&pool, 4});
  }
}

TEST(OnePassDifferential, ScanMatchAtPositionZero) {
  const Bytes ref = random_bytes(0x62, 8192);
  const Bytes ver(ref.begin(), ref.begin() + 3000);
  expect_naive_scan(ref, ver, {});
  const Script script = diff(ref, ver);
  ASSERT_EQ(script.size(), 1u);
  const CommandRef& copy = script.commands()[0];
  ASSERT_FALSE(copy.is_add());
  EXPECT_EQ(copy.from, 0u);
}

TEST(OnePassDifferential, ScanBackwardExtensionConsumesPendingRun) {
  // With 256 slots over 2 KiB, most version seeds are evicted by earlier
  // reference positions, so the scan classes bytes as literals until a
  // seed still owns its slot; the match then extends back over the
  // whole pending run, and the version is one copy.
  const Bytes ref = random_bytes(0x63, 2048);
  const Bytes ver(ref.begin() + 300, ref.begin() + 1300);
  const DifferOptions opts{.table_bits = 8};
  expect_naive_scan(ref, ver, opts);
  const OnePassDiffer differ(opts);
  const auto index = differ.build_index(ref);
  RollingHash rh(opts.seed_length);
  EXPECT_NE(as_onepass(index).table[RollingHash::mix(rh.init(ver)) &
                                    as_onepass(index).mask],
            300u)
      << "the first version seed must not own its slot";
  const Script script = differ.scan(*index, ref, ver);
  ASSERT_EQ(script.size(), 1u);
  const CommandRef& copy = script.commands()[0];
  ASSERT_FALSE(copy.is_add());
  EXPECT_EQ(copy.from, 300u);
}

TEST(OnePassDifferential, ScanCopyEndingWithinOneSeedOfTheEnd) {
  const Bytes ref = random_bytes(0x64, 16384);
  for (std::size_t tail = 0; tail < 20; ++tail) {
    SCOPED_TRACE(testing::Message() << "tail=" << tail);
    Bytes ver(ref.begin() + 5000, ref.begin() + 7000);
    const Bytes extra = random_bytes(0x65 + tail, tail);
    ver.insert(ver.end(), extra.begin(), extra.end());
    expect_naive_scan(ref, ver, {});
    // And a copy that ends exactly one short of each tail length.
    Bytes lead = random_bytes(0x80 + tail, 37);
    lead.insert(lead.end(), ref.begin() + 9000, ref.begin() + 9000 + 16 + tail);
    expect_naive_scan(ref, lead, {});
  }
}

TEST(OnePassDifferential, ScanMatchesNaiveUnderTableCollisions) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(0x70 + seed);
    const Bytes ref =
        seed % 3 == 0 ? repetitive(seed, 24 << 10)
                      : generate_file(rng, 24 << 10,
                                      seed % 3 == 1 ? FileProfile::kText
                                                    : FileProfile::kBinary);
    const Bytes ver = mutate(ref, rng, 30);
    for (const DifferOptions opts :
         {DifferOptions{.table_bits = 8}, DifferOptions{.table_bits = 12},
          DifferOptions{.seed_length = 4, .min_match = 4, .table_bits = 8},
          DifferOptions{.seed_length = 8, .min_match = 24, .table_bits = 10},
          DifferOptions{.seed_length = 31, .min_match = 31}}) {
      SCOPED_TRACE(testing::Message()
                   << "seed=" << seed << " seed_length=" << opts.seed_length
                   << " min_match=" << opts.min_match
                   << " bits=" << opts.table_bits);
      expect_naive_scan(ref, ver, opts);
    }
  }
}

// ---- Options and limits are checked in every build type ---------------

TEST(DifferOptionsCheck, OnePassRejectsOutOfRangeOptions) {
  EXPECT_THROW(OnePassDiffer({.seed_length = 3, .min_match = 16}),
               ValidationError);
  EXPECT_THROW(OnePassDiffer({.seed_length = 16, .min_match = 15}),
               ValidationError);
  EXPECT_THROW(OnePassDiffer({.table_bits = 7}), ValidationError);
  EXPECT_THROW(OnePassDiffer({.table_bits = 29}), ValidationError);
  EXPECT_NO_THROW(OnePassDiffer({.seed_length = 4, .min_match = 4}));
  EXPECT_NO_THROW(OnePassDiffer({.table_bits = 8}));
  EXPECT_NO_THROW(OnePassDiffer({.table_bits = 28}));
  EXPECT_THROW(make_differ(DifferKind::kOnePass, {.table_bits = 40}),
               ValidationError);
}

TEST(DifferOptionsCheck, GreedyRejectsOutOfRangeOptions) {
  EXPECT_THROW(GreedyDiffer({.seed_length = 2, .min_match = 16}),
               ValidationError);
  EXPECT_THROW(GreedyDiffer({.seed_length = 16, .min_match = 8}),
               ValidationError);
  EXPECT_NO_THROW(GreedyDiffer({.seed_length = 4, .min_match = 4}));
}

TEST(DifferOptionsCheck, OnePassRejectsReferenceOf4GiBBeforeReadingIt) {
  // An inaccessible 4 GiB mapping: reading any byte of it faults, so the
  // size check must come first.
  const std::size_t size = std::numeric_limits<std::uint32_t>::max();
  void* region = mmap(nullptr, size, PROT_NONE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (region == MAP_FAILED) GTEST_SKIP() << "cannot reserve 4 GiB";
  const ByteView huge(static_cast<const std::uint8_t*>(region), size);
  EXPECT_THROW(OnePassDiffer().build_index(huge), ValidationError);
  EXPECT_NO_THROW(OnePassDiffer().build_index(huge.first(0)));
  munmap(region, size);
}

}  // namespace
}  // namespace ipd
