#include "delta/suffix_differ.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "delta/match_extend.hpp"

namespace ipd {

SuffixMatcher::SuffixMatcher(ByteView reference) : ref_(reference) {
  const std::size_t n = ref_.size();
  if (n > std::numeric_limits<std::uint32_t>::max() / 2) {
    throw ValidationError("suffix matcher: reference larger than 2 GiB");
  }
  sa_.resize(n);
  std::iota(sa_.begin(), sa_.end(), 0);
  if (n == 0) return;

  // Doubling construction: rank[i] is the sort key of suffix i over the
  // current prefix width; pairs (rank[i], rank[i+width]) refine it.
  std::vector<std::uint32_t> rank(n), next_rank(n);
  for (std::size_t i = 0; i < n; ++i) {
    rank[i] = ref_[i];
  }
  for (std::size_t width = 1;; width *= 2) {
    const auto key = [&](std::uint32_t i) {
      return std::make_pair(rank[i],
                            i + width < n ? rank[i + width] + 1 : 0u);
    };
    std::sort(sa_.begin(), sa_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return key(a) < key(b);
              });
    next_rank[sa_[0]] = 0;
    for (std::size_t i = 1; i < n; ++i) {
      next_rank[sa_[i]] = next_rank[sa_[i - 1]] +
                          (key(sa_[i - 1]) < key(sa_[i]) ? 1 : 0);
    }
    rank.swap(next_rank);
    if (rank[sa_[n - 1]] == n - 1) break;  // all ranks distinct
  }
}

SuffixMatcher::Match SuffixMatcher::longest_match(ByteView query) const {
  if (sa_.empty() || query.empty()) {
    return {};
  }
  // Lower bound of `query` among the suffixes; the best match is at one
  // of the two lexicographic neighbours.
  const auto less_than_query = [&](std::uint32_t suffix) {
    const std::size_t limit = std::min<std::size_t>(ref_.size() - suffix,
                                                    query.size());
    for (std::size_t k = 0; k < limit; ++k) {
      if (ref_[suffix + k] != query[k]) {
        return ref_[suffix + k] < query[k];
      }
    }
    // Proper prefix of query sorts before it.
    return ref_.size() - suffix < query.size();
  };
  const auto it =
      std::partition_point(sa_.begin(), sa_.end(), less_than_query);

  Match best;
  const auto consider = [&](std::vector<std::uint32_t>::const_iterator pos) {
    if (pos < sa_.begin() || pos >= sa_.end()) return;
    const std::size_t len = match_forward(ref_, *pos, query, 0);
    if (len > best.length) {
      best.length = len;
      best.position = *pos;
    }
  };
  consider(it);
  consider(it == sa_.begin() ? sa_.end() : it - 1);
  return best;
}

namespace {

struct SuffixIndex final : public DifferIndex {
  explicit SuffixIndex(ByteView reference) : matcher(reference) {}
  SuffixMatcher matcher;
};

}  // namespace

SuffixDiffer::SuffixDiffer(const DifferOptions& options) : options_(options) {
  if (options_.min_match < 1) {
    throw ValidationError("suffix differ: min_match must be at least 1");
  }
}

std::unique_ptr<DifferIndex> SuffixDiffer::build_index(
    ByteView reference, const ParallelContext& /*ctx*/) const {
  return std::make_unique<SuffixIndex>(reference);
}

Script SuffixDiffer::scan(const DifferIndex& index, ByteView reference,
                          ByteView version) const {
  const auto* suffix = dynamic_cast<const SuffixIndex*>(&index);
  if (suffix == nullptr) {
    throw ValidationError("suffix differ: foreign index");
  }
  ScriptBuilder builder(version);
  if (version.empty()) {
    return builder.finish();
  }
  if (reference.empty()) {
    builder.literals(version.size());
    return builder.finish();
  }

  const SuffixMatcher& matcher = suffix->matcher;
  std::size_t pos = 0;
  while (pos < version.size()) {
    const SuffixMatcher::Match match =
        matcher.longest_match(version.subspan(pos));
    if (match.length >= options_.min_match) {
      builder.copy(match.position, match.length);
      pos += match.length;
    } else {
      builder.literals(1);
      ++pos;
    }
  }
  return builder.finish();
}

}  // namespace ipd
