#include "delta/differ.hpp"

#include <cassert>

#include "delta/block_differ.hpp"
#include "delta/greedy_differ.hpp"
#include "delta/onepass_differ.hpp"
#include "delta/suffix_differ.hpp"

namespace ipd {

const char* differ_name(DifferKind kind) noexcept {
  switch (kind) {
    case DifferKind::kGreedy: return "greedy";
    case DifferKind::kOnePass: return "one-pass";
    case DifferKind::kSuffixGreedy: return "suffix-greedy";
    case DifferKind::kBlockAligned: return "block-aligned";
  }
  return "?";
}

std::unique_ptr<Differ> make_differ(DifferKind kind,
                                    const DifferOptions& options) {
  switch (kind) {
    case DifferKind::kGreedy:
      return std::make_unique<GreedyDiffer>(options);
    case DifferKind::kOnePass:
      return std::make_unique<OnePassDiffer>(options);
    case DifferKind::kSuffixGreedy:
      return std::make_unique<SuffixDiffer>(options);
    case DifferKind::kBlockAligned:
      return std::make_unique<BlockDiffer>(options);
  }
  throw ValidationError("unknown differ kind");
}

Script SegmentedDiffer::diff(ByteView reference, ByteView version) const {
  return scan(*build_index(reference), reference, version);
}

Script diff_bytes(DifferKind kind, ByteView reference, ByteView version,
                  const DifferOptions& options) {
  return make_differ(kind, options)->diff(reference, version);
}

void ScriptBuilder::retract(std::size_t n) {
  assert(n <= pending_);
  pending_ -= n;
}

void ScriptBuilder::copy(offset_t from, length_t length) {
  assert(length > 0);
  flush();
  script_.push(CopyCommand{from, cursor_, length});
  cursor_ += length;
}

void ScriptBuilder::flush() {
  if (pending_ != 0) {
    script_.push_add(cursor_, version_.subspan(cursor_, pending_));
    cursor_ += pending_;
    pending_ = 0;
  }
}

Script ScriptBuilder::finish() {
  flush();
  return std::move(script_);
}

}  // namespace ipd
