#include "delta/onepass_differ.hpp"

#include <algorithm>
#include <array>

#include "core/rolling_hash.hpp"
#include "delta/match_extend.hpp"

namespace ipd {
namespace {

/// Positions per block of the back-to-front table fill. A block's slot
/// numbers (4 KiB) stay in L1 between the hashing and the stores, and
/// re-seeding the hash once per block costs a seed's worth of multiplies
/// per 1024 positions.
constexpr std::size_t kFillBlock = 1024;

/// Positions the scan looks its candidates up ahead of the cursor. A
/// power of two, so the ring index is a mask.
constexpr std::size_t kLookahead = 8;

/// Fill `table` with the first occurrence of each fingerprint over
/// reference positions [begin, end). Blocks go from last to first; each
/// block's slots are hashed forwards, then stored back to front without
/// a check, so every slot ends up holding the lowest position that
/// hashed to it — the first occurrence, which wins in [5].
void fill_first_occurrences(ByteView reference, std::size_t seed,
                            std::size_t mask, std::size_t begin,
                            std::size_t end, std::vector<std::uint32_t>& table) {
  RollingHash rh(seed);
  std::array<std::uint32_t, kFillBlock> slots{};
  for (std::size_t hi = end; hi > begin;) {
    const std::size_t lo = hi - std::min(hi - begin, kFillBlock);
    std::uint64_t h = rh.init(reference.subspan(lo));
    for (std::size_t pos = lo;; ++pos) {
      slots[pos - lo] = static_cast<std::uint32_t>(RollingHash::mix(h) & mask);
      if (pos + 1 == hi) break;
      h = rh.roll(h, reference[pos], reference[pos + seed]);
    }
    for (std::size_t pos = hi; pos-- > lo;) {
      table[slots[pos - lo]] = static_cast<std::uint32_t>(pos);
    }
    hi = lo;
  }
}

}  // namespace

OnePassDiffer::OnePassDiffer(const DifferOptions& options)
    : options_(options) {
  check_seed_options(options_, "one-pass");
  if (options_.table_bits < 8 || options_.table_bits > 28) {
    throw ValidationError("one-pass differ: table_bits must be in [8, 28]");
  }
}

std::unique_ptr<DifferIndex> OnePassDiffer::build_index(
    ByteView reference, const ParallelContext& ctx) const {
  if (reference.size() >= OnePassIndex::kEmpty) {
    throw ValidationError(
        "one-pass differ: reference of 4 GiB - 1 bytes or more");
  }
  auto index = std::make_unique<OnePassIndex>();
  const std::size_t seed = options_.seed_length;
  index->seed = seed;
  if (reference.size() < seed) {
    return index;  // nothing can match; scan() emits pure literals
  }
  const std::size_t table_size = std::size_t{1} << options_.table_bits;
  index->mask = table_size - 1;
  const std::size_t positions = reference.size() - seed + 1;

  std::size_t chunks = 1;
  if (ctx.enabled() && positions >= OnePassIndex::kParallelMinPositions) {
    chunks = std::min({ctx.parallelism, std::size_t{16},
                       positions / (OnePassIndex::kParallelMinPositions / 4)});
    chunks = std::max<std::size_t>(chunks, 1);
  }

  if (chunks <= 1) {
    index->table.assign(table_size, OnePassIndex::kEmpty);
    fill_first_occurrences(reference, seed, index->mask, 0, positions,
                           index->table);
    return index;
  }

  // Parallel build: private per-chunk tables over ascending position
  // ranges, then keep the first non-empty slot in range order — i.e.
  // the lowest position, exactly what the serial pass would have kept.
  std::vector<std::vector<std::uint32_t>> local(chunks);
  parallel_for(ctx, chunks, [&](std::size_t k) {
    local[k].assign(table_size, OnePassIndex::kEmpty);
    fill_first_occurrences(reference, seed, index->mask,
                           k * positions / chunks,
                           (k + 1) * positions / chunks, local[k]);
  });
  index->table.assign(table_size, OnePassIndex::kEmpty);
  for (std::size_t s = 0; s < table_size; ++s) {
    for (std::size_t k = 0; k < chunks; ++k) {
      if (local[k][s] != OnePassIndex::kEmpty) {
        index->table[s] = local[k][s];
        break;
      }
    }
  }
  return index;
}

Script OnePassDiffer::scan(const DifferIndex& index, ByteView reference,
                           ByteView version) const {
  const auto* fp = dynamic_cast<const OnePassIndex*>(&index);
  if (fp == nullptr) {
    throw ValidationError("one-pass differ: foreign index");
  }
  ScriptBuilder builder;
  const std::size_t seed = options_.seed_length;
  if (version.empty()) {
    return builder.finish();
  }
  if (fp->table.empty() || version.size() < seed) {
    builder.literals(version);
    return builder.finish();
  }
  const std::size_t mask = fp->mask;
  const std::uint32_t* table = fp->table.data();
  const std::size_t last = version.size() - seed;  // last whole seed

  // The pending literal run is version[lit, pos). Candidates for
  // positions [pos, ahead) wait in `ring`, looked up early with their
  // reference bytes prefetched; `h` is the hash of the seed at `ahead`.
  RollingHash rh(seed);
  std::array<std::uint32_t, kLookahead> ring{};
  std::size_t pos = 0;
  std::size_t lit = 0;
  std::size_t ahead = 0;
  std::uint64_t h = rh.init(version);
  const auto look_ahead = [&] {
    for (; ahead <= last && ahead - pos < kLookahead; ++ahead) {
      const std::uint32_t cand = table[RollingHash::mix(h) & mask];
      if (cand != OnePassIndex::kEmpty) {
        __builtin_prefetch(reference.data() + cand);
      }
      ring[ahead % kLookahead] = cand;
      if (ahead < last) {
        h = rh.roll(h, version[ahead], version[ahead + seed]);
      }
    }
  };

  look_ahead();
  while (pos <= last) {
    const std::uint32_t cand = ring[pos % kLookahead];
    if (cand != OnePassIndex::kEmpty) {
      // A candidate is a match only if its whole seed agrees (slots
      // collide); the forward compare checks that and extends it.
      const std::size_t fwd = match_forward(reference, cand, version, pos);
      if (fwd >= seed) {
        const std::size_t back =
            match_backward(reference, cand, version, pos, pos - lit);
        if (fwd + back >= options_.min_match) {
          builder.literals(version.subspan(lit, pos - back - lit));
          builder.copy(cand - back, fwd + back);
          pos += fwd;
          lit = pos;
          if (pos >= ahead && pos <= last) {
            ahead = pos;
            h = rh.init(version.subspan(pos));
          }
          look_ahead();
          continue;
        }
      }
    }
    ++pos;
    look_ahead();
  }
  builder.literals(version.subspan(lit));
  return builder.finish();
}

}  // namespace ipd
