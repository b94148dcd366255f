// Portable checksum kernels, declared for tests and benches only.
//
// crc32c() and adler32() pick their kernels once per process from CPUID:
// on x86-64, the SSE4.2 `crc32` instruction and an SSSE3 Adler-32 when
// the host has them; these portable loops everywhere else. Declaring
// the portable kernels lets one host check both paths against each
// other. Nothing selects a kernel at run time; library code calls
// crc32c() and adler32().
#pragma once

#include <cstdint>

#include "core/types.hpp"

namespace ipd::detail {

/// Slice-by-8 CRC-32C with exactly crc32c()'s contract and results.
std::uint32_t crc32c_portable(ByteView data, std::uint32_t seed = 0) noexcept;

/// zlib-style DO16 Adler-32 with exactly adler32()'s contract and results.
std::uint32_t adler32_portable(ByteView data, std::uint32_t seed = 1) noexcept;

}  // namespace ipd::detail
