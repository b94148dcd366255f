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
// (device/resumable_updater.hpp) when that matters.
//
// In-place safety of the *order* is unchanged: the delta must carry the
// in_place flag, and per-command conflict checking is available.
#pragma once

#include <optional>

#include "apply/oracle.hpp"
#include "delta/codec.hpp"

namespace ipd {

struct StreamApplyOptions {
  /// Track written intervals and throw ConflictError on a write-before-
  /// read violation instead of silently corrupting (small extra memory).
  bool check_conflicts = true;
  /// Require the delta's in_place flag (disable only in tests).
  bool require_inplace_flag = true;
};

class StreamingInplaceApplier {
 public:
  /// `buffer` holds the reference now and the version when finished; it
  /// must be at least max(reference, version) bytes — checked as soon as
  /// the header arrives.
  StreamingInplaceApplier(MutByteView buffer,
                          const StreamApplyOptions& options = {});
  ~StreamingInplaceApplier();

  StreamingInplaceApplier(const StreamingInplaceApplier&) = delete;
  StreamingInplaceApplier& operator=(const StreamingInplaceApplier&) = delete;

  /// Feed the next chunk of the serialized delta (any chunking, including
  /// byte-at-a-time). Applies every command that becomes complete.
  /// Throws FormatError / ValidationError / ConflictError on bad input;
  /// after a throw the applier (and the buffer) are poisoned.
  void feed(ByteView chunk);

  /// Header, once enough bytes have arrived to parse it.
  const std::optional<DeltaHeader>& header() const noexcept {
    return header_;
  }

  /// True when the whole payload has been consumed, the payload adler and
  /// the version CRC have both verified, and the buffer holds the version.
  bool finished() const noexcept { return finished_; }

  /// Commands applied so far.
  std::size_t commands_applied() const noexcept { return commands_; }

  /// Peak bytes buffered inside the applier (parser backlog), for the
  /// RAM-accounting benches.
  std::size_t peak_buffered() const noexcept { return peak_buffered_; }

 private:
  void try_parse_header_bytes();
  void drain_commands();
  void apply_command(const Command& cmd);
  void finish();

  MutByteView buffer_;
  StreamApplyOptions options_;

  Bytes head_pending_;  // bytes accumulated before the header parsed
  std::optional<DeltaHeader> header_;
  std::optional<StreamingCommandDecoder> decoder_;
  std::uint32_t payload_adler_ = 1;  // running adler over payload bytes
  std::uint64_t payload_seen_ = 0;

  WrittenIntervals written_;  ///< conflict oracle state
  std::size_t command_index_ = 0;

  std::size_t commands_ = 0;
  std::size_t peak_buffered_ = 0;
  bool finished_ = false;
  bool poisoned_ = false;
};

/// Convenience: apply `delta` by feeding it in `chunk_size` pieces.
/// Returns the version length. Used by tests and the device updater.
length_t apply_delta_inplace_streaming(ByteView delta, MutByteView buffer,
                                       std::size_t chunk_size,
                                       const StreamApplyOptions& options = {});

}  // namespace ipd
