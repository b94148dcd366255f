// Portable CRC-32C kernel, declared for tests and benches only.
//
// crc32c() picks its kernel once per process from CPUID: the SSE4.2
// `crc32` instruction on x86-64 hosts that have it, this slice-by-8
// table everywhere else. Declaring the portable kernel lets one host
// check both paths against each other. Nothing selects a kernel at run
// time; library code calls crc32c().
#pragma once

#include <cstdint>

#include "core/types.hpp"

namespace ipd::detail {

/// Slice-by-8 CRC-32C with exactly crc32c()'s contract and results.
std::uint32_t crc32c_portable(ByteView data, std::uint32_t seed = 0) noexcept;

}  // namespace ipd::detail
