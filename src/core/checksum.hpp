// Checksums used by the delta file format.
//
// Delta files carry an Adler-32 of the payload so a device can reject a
// delta corrupted in transit *before* it starts destroying its only copy
// of the reference file, and a CRC-32C of the expected version output so
// the updater can verify the reconstruction afterwards.
#pragma once

#include <cstdint>

#include "core/types.hpp"

namespace ipd {

/// Adler-32 (RFC 1950). Fast, order-sensitive, fine for transport checks.
std::uint32_t adler32(ByteView data, std::uint32_t seed = 1) noexcept;

/// CRC-32C (Castagnoli polynomial 0x1EDC6F41). Runs on the SSE4.2 `crc32`
/// instruction when CPUID reports it (checked once per process), else on
/// a portable slice-by-8 table; both give identical results. `seed` is
/// the running CRC from a previous call (0 to start a fresh computation).
std::uint32_t crc32c(ByteView data, std::uint32_t seed = 0) noexcept;

/// Incremental CRC-32C helper for streamed reconstruction.
class Crc32c {
 public:
  void update(ByteView data) noexcept { crc_ = crc32c(data, crc_); }
  std::uint32_t value() const noexcept { return crc_; }
  void reset() noexcept { crc_ = 0; }

 private:
  std::uint32_t crc_ = 0;
};

}  // namespace ipd
