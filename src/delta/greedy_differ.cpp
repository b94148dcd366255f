#include "delta/greedy_differ.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "core/rolling_hash.hpp"
#include "delta/match_extend.hpp"

namespace ipd {
namespace {

constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();
constexpr std::size_t kMaxBucketBits = 22;

/// Bucketed hash chains over every seed position of the reference,
/// zlib-style: heads[bucket] is the most recent position, next[pos] chains
/// to the previous position with the same bucket.
class ChainIndex {
 public:
  ChainIndex(ByteView reference, std::size_t seed_length)
      : ref_(reference), seed_(seed_length) {
    if (ref_.size() < seed_) {
      bucket_mask_ = 0;
      return;
    }
    const std::size_t positions = ref_.size() - seed_ + 1;
    const std::size_t want_bits = std::min<std::size_t>(
        kMaxBucketBits, std::bit_width(positions) + 1);
    bucket_mask_ = (std::size_t{1} << want_bits) - 1;
    heads_.assign(bucket_mask_ + 1, kNil);
    next_.assign(positions, kNil);

    RollingHash rh(seed_);
    std::uint64_t h = rh.init(ref_);
    for (std::size_t pos = 0;; ++pos) {
      const std::size_t b = RollingHash::mix(h) & bucket_mask_;
      next_[pos] = heads_[b];
      heads_[b] = static_cast<std::uint32_t>(pos);
      if (pos + 1 >= positions) break;
      h = rh.roll(h, ref_[pos], ref_[pos + seed_]);
    }
  }

  bool empty() const noexcept { return heads_.empty(); }

  std::uint32_t head(std::uint64_t hash) const noexcept {
    return heads_[RollingHash::mix(hash) & bucket_mask_];
  }

  std::uint32_t next(std::uint32_t pos) const noexcept { return next_[pos]; }

 private:
  ByteView ref_;
  std::size_t seed_;
  std::size_t bucket_mask_ = 0;
  std::vector<std::uint32_t> heads_;
  std::vector<std::uint32_t> next_;
};

struct GreedyIndex final : public DifferIndex {
  GreedyIndex(ByteView reference, std::size_t seed_length)
      : chains(reference, seed_length) {}
  ChainIndex chains;
};

}  // namespace

GreedyDiffer::GreedyDiffer(const DifferOptions& options) : options_(options) {
  check_seed_options(options_, "greedy");
}

std::unique_ptr<DifferIndex> GreedyDiffer::build_index(
    ByteView reference, const ParallelContext& /*ctx*/) const {
  if (reference.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw ValidationError("greedy differ: reference larger than 4 GiB");
  }
  return std::make_unique<GreedyIndex>(reference, options_.seed_length);
}

Script GreedyDiffer::scan(const DifferIndex& index, ByteView reference,
                          ByteView version) const {
  const auto* greedy = dynamic_cast<const GreedyIndex*>(&index);
  if (greedy == nullptr) {
    throw ValidationError("greedy differ: foreign index");
  }
  ScriptBuilder builder(version);
  const std::size_t seed = options_.seed_length;
  if (version.empty()) {
    return builder.finish();
  }
  if (reference.size() < seed || version.size() < seed) {
    builder.literals(version.size());
    return builder.finish();
  }

  const ChainIndex& chains = greedy->chains;
  RollingHash rh(seed);

  std::size_t pos = 0;                   // version scan cursor
  std::uint64_t h = rh.init(version);    // hash of version[pos, pos+seed)
  bool hash_valid = true;

  const auto advance_to = [&](std::size_t target) {
    // Move the scan cursor to `target`, keeping the rolling hash in sync
    // when cheap, recomputing when the jump is long.
    if (target + seed > version.size()) {
      pos = target;
      hash_valid = false;
      return;
    }
    if (hash_valid && target - pos <= seed) {
      while (pos < target) {
        h = rh.roll(h, version[pos], version[pos + seed]);
        ++pos;
      }
    } else {
      pos = target;
      h = rh.init(version.subspan(pos));
      hash_valid = true;
    }
  };

  while (pos < version.size()) {
    if (pos + seed > version.size()) {
      // Tail shorter than a seed can never match; flush as literals.
      builder.literals(version.size() - pos);
      break;
    }

    std::size_t best_len = 0;
    std::size_t best_back = 0;
    std::size_t best_from = 0;
    std::size_t probes = 0;
    const std::size_t max_back = builder.pending_literals();

    for (std::uint32_t cand = chains.head(h);
         cand != kNil && probes < options_.max_chain;
         cand = chains.next(cand), ++probes) {
      // Verify the seed (hash buckets collide), then extend.
      if (!std::equal(version.begin() + static_cast<std::ptrdiff_t>(pos),
                      version.begin() + static_cast<std::ptrdiff_t>(pos + seed),
                      reference.begin() + cand)) {
        continue;
      }
      const std::size_t fwd =
          seed + match_forward(reference, cand + seed, version, pos + seed);
      const std::size_t back =
          match_backward(reference, cand, version, pos, max_back);
      if (fwd + back > best_len + best_back ||
          (fwd + back == best_len + best_back && best_len == 0)) {
        best_len = fwd;
        best_back = back;
        best_from = cand;
      }
    }

    if (best_len + best_back >= options_.min_match && best_len > 0) {
      builder.retract(best_back);
      builder.copy(best_from - best_back, best_len + best_back);
      advance_to(pos + best_len);
    } else {
      builder.literals(1);
      advance_to(pos + 1);
    }
  }

  return builder.finish();
}

}  // namespace ipd
