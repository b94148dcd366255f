// Scratch-space reconstruction: the traditional decoder the paper's §1
// contrasts against. Reads the reference, materialises the version in a
// separate buffer — needs both resident at once.
#pragma once

#include "delta/codec.hpp"
#include "delta/script.hpp"

namespace ipd {

/// Apply `script` to `reference`, producing the version in fresh storage.
/// Works for ANY valid script (commands may be in any order, §3).
/// Throws ValidationError on out-of-bounds commands.
Bytes apply_script(const Script& script, ByteView reference);

/// Decode a serialized delta file and apply it. Verifies the container
/// checksums and the version CRC; throws FormatError on mismatch.
Bytes apply_delta(ByteView delta, ByteView reference);

}  // namespace ipd
