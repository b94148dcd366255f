#include "delta/block_differ.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/rolling_hash.hpp"

namespace ipd {
namespace {

struct BlockIndex final : public DifferIndex {
  /// Whole reference blocks by content hash (block-aligned on both
  /// sides — the defining restriction of this baseline).
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> blocks;
};

std::uint64_t block_hash(ByteView content) noexcept {
  std::uint64_t h = 0;
  for (const std::uint8_t byte : content) {
    h = h * RollingHash::kMultiplier + byte;
  }
  return RollingHash::mix(h);
}

}  // namespace

BlockDiffer::BlockDiffer(const DifferOptions& options) : options_(options) {
  if (options_.block_size == 0) {
    throw ValidationError("block differ: block_size must be >= 1");
  }
}

std::unique_ptr<DifferIndex> BlockDiffer::build_index(
    ByteView reference, const ParallelContext& /*ctx*/) const {
  const std::size_t block = options_.block_size;
  auto index = std::make_unique<BlockIndex>();
  const std::size_t ref_blocks = reference.size() / block;
  for (std::size_t b = 0; b < ref_blocks; ++b) {
    index->blocks[block_hash(reference.subspan(b * block, block))].push_back(
        static_cast<std::uint32_t>(b));
  }
  return index;
}

Script BlockDiffer::scan(const DifferIndex& index, ByteView reference,
                         ByteView version) const {
  const auto* aligned = dynamic_cast<const BlockIndex*>(&index);
  if (aligned == nullptr) {
    throw ValidationError("block differ: foreign index");
  }
  const std::size_t block = options_.block_size;
  ScriptBuilder builder(version);

  std::size_t pos = 0;
  while (pos < version.size()) {
    const std::size_t remaining = version.size() - pos;
    if (remaining < block) {
      builder.literals(version.size() - pos);
      break;
    }
    const ByteView candidate = version.subspan(pos, block);
    bool matched = false;
    if (const auto it = aligned->blocks.find(block_hash(candidate));
        it != aligned->blocks.end()) {
      for (const std::uint32_t b : it->second) {
        const ByteView ref_block = reference.subspan(b * block, block);
        if (std::equal(candidate.begin(), candidate.end(),
                       ref_block.begin())) {
          builder.copy(static_cast<offset_t>(b) * block, block);
          matched = true;
          break;
        }
      }
    }
    if (matched) {
      pos += block;
    } else {
      // Alignment restriction: no partial or shifted matches — the whole
      // version block goes into the delta literally.
      builder.literals(block);
      pos += block;
    }
  }
  return builder.finish();
}

}  // namespace ipd
