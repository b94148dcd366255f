#include "apply/stream_applier.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "core/checksum.hpp"

namespace ipd {

StreamingInplaceApplier::StreamingInplaceApplier(MutByteView buffer)
    : buffer_(buffer) {}

void StreamingInplaceApplier::feed(ByteView chunk) {
  if (poisoned_) {
    throw ValidationError("streaming applier: poisoned by earlier error");
  }
  try {
    reader_.feed(chunk);
    const std::optional<DeltaHeader>& header = reader_.header();
    if (!header) {
      return;
    }
    if (header->reference_length > buffer_.size() ||
        header->version_length > buffer_.size()) {
      throw ValidationError(
          "streaming applier: buffer must hold max(reference, version)");
    }
    while (const std::optional<CommandRef> command = reader_.next()) {
      apply(*command);
      ++commands_;
    }
    if (reader_.done() && !finished_) {
      const ByteView version = ByteView(buffer_).first(
          static_cast<std::size_t>(header->version_length));
      if (crc32c(version) != header->version_crc) {
        throw FormatError(
            "streaming applier: version CRC mismatch after reconstruction");
      }
      finished_ = true;
    }
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

void StreamingInplaceApplier::apply(const CommandRef& command) {
  if (command.length == 0) return;
  const DeltaHeader& header = *reader_.header();
  if (!range_fits(command.to, command.length, header.version_length)) {
    throw ValidationError("streaming applier: command writes past version");
  }
  const auto n = static_cast<std::size_t>(command.length);
  if (command.is_add()) {
    std::memcpy(buffer_.data() + command.to, command.literal, n);
  } else {
    if (!range_fits(command.from, command.length, header.reference_length)) {
      throw ValidationError("streaming applier: copy reads past reference");
    }
    if (written_.intersects(Interval::of(command.from, command.length))) {
      throw ConflictError(
          "streaming applier: write-before-read conflict at command " +
          std::to_string(commands_));
    }
    std::memmove(buffer_.data() + command.to, buffer_.data() + command.from,
                 n);
  }
  written_.insert(Interval::of(command.to, command.length));
}

length_t apply_delta_inplace_streaming(ByteView delta, MutByteView buffer,
                                       std::size_t chunk_size) {
  if (chunk_size == 0) {
    throw ValidationError("streaming apply: chunk_size must be >= 1");
  }
  StreamingInplaceApplier applier(buffer);
  std::size_t pos = 0;
  while (pos < delta.size()) {
    const std::size_t n = std::min(chunk_size, delta.size() - pos);
    applier.feed(delta.subspan(pos, n));
    pos += n;
  }
  if (!applier.finished()) {
    throw FormatError("streaming apply: delta ended mid-stream");
  }
  return applier.header()->version_length;
}

}  // namespace ipd
