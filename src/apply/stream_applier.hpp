// Streaming in-place application: rebuild the new version while the delta
// is still arriving over the network.
//
// The batch path (apply_delta_inplace) needs the whole delta in memory
// before the first byte of the image changes — RAM = delta size. A device
// at the bottom of a slow link can instead apply each command the moment
// its bytes arrive; peak RAM becomes one command (bounded by the largest
// add) plus parser state. The trade: the payload checksum can only be
// verified after the image has already been modified, so a delta torn in
// transit leaves a half-updated image — pair with the journaled updater
// (device/stream_updater.hpp) when that matters.
//
// The container checks live in StreamingDeltaReader (delta/codec.hpp),
// which the flash updater runs too; this applier adds the RAM buffer: a
// memmove or memcpy per command, each behind admit_inplace_write
// (apply/oracle.hpp), the bounds and Equation-2 gate the flash executor
// runs too, over a WrittenBytes set (V/8 bytes, sized from the header),
// and the version CRC at the end.
#pragma once

#include <optional>

#include "apply/oracle.hpp"
#include "delta/codec.hpp"

namespace ipd {

class StreamingInplaceApplier {
 public:
  /// `buffer` holds the reference now and the version when finished; it
  /// must be at least max(reference, version) bytes — checked as soon as
  /// the header arrives.
  explicit StreamingInplaceApplier(MutByteView buffer);

  StreamingInplaceApplier(const StreamingInplaceApplier&) = delete;
  StreamingInplaceApplier& operator=(const StreamingInplaceApplier&) = delete;

  /// Feed the next chunk of the serialized delta (any chunking, including
  /// byte-at-a-time). Applies every command that becomes complete.
  /// Throws FormatError / ValidationError / ConflictError on bad input;
  /// after a throw the applier (and the buffer) are poisoned.
  void feed(ByteView chunk);

  /// Header, once enough bytes have arrived to parse it.
  const std::optional<DeltaHeader>& header() const noexcept {
    return reader_.header();
  }

  /// True when the whole payload has been consumed, the payload adler and
  /// the version CRC have both verified, and the buffer holds the version.
  bool finished() const noexcept { return finished_; }

  /// Commands applied so far.
  std::size_t commands_applied() const noexcept { return commands_; }

  /// Peak bytes buffered inside the applier (parser backlog), for the
  /// RAM-accounting benches.
  std::size_t peak_buffered() const noexcept {
    return reader_.peak_buffered();
  }

 private:
  void apply(const CommandRef& command);

  MutByteView buffer_;
  StreamingDeltaReader reader_;
  Bytes written_storage_;
  std::optional<WrittenBytes> written_;  ///< set once the header parses
  std::size_t commands_ = 0;
  bool finished_ = false;
  bool poisoned_ = false;
};

/// Convenience: apply `delta` by feeding it in `chunk_size` pieces.
/// Returns the version length. Used by tests and benches.
length_t apply_delta_inplace_streaming(ByteView delta, MutByteView buffer,
                                       std::size_t chunk_size);

}  // namespace ipd
