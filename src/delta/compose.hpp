// Delta composition: given δ₁ encoding B from A and δ₂ encoding C from B,
// produce a single script encoding C directly from A — without ever
// materializing B.
//
// This is the server-side primitive behind delta chains: a publisher who
// keeps per-release deltas can mint a direct old→new delta for any pair
// by folding the chain, at command-stream cost instead of re-running the
// differencer over the full files. Every δ₂ copy that reads B is resolved
// through δ₁'s write map: the piece lands either in a δ₁ copy (becoming a
// copy from A with a shifted offset) or in a δ₁ add (becoming a literal
// sliced out of δ₁'s data).
//
// Both inputs are command tables (parse_delta's, or a Script's
// commands()). The output's adds borrow slices of the inputs' literals;
// only adds fused from pieces that are not contiguous in memory are
// copied, into the output's arena. The composed script is a plain
// (scratch-space) delta; pass it through
// convert_to_inplace — which needs the real A bytes — if the device needs
// in-place application.
#pragma once

#include <span>

#include "delta/codec.hpp"
#include "delta/script.hpp"

namespace ipd {

struct ComposeReport {
  std::size_t second_commands = 0;  ///< commands in δ₂
  std::size_t pieces = 0;           ///< fragments after resolution
  length_t literal_bytes = 0;       ///< bytes carried as adds in the result
};

/// Compose `first` (A→B) with `second` (B→C), both command tables. The
/// writes of `first` must tile [0, L_B) where L_B covers every read of
/// `second`; throws ValidationError otherwise. The result reads only A
/// and tiles [0, L_C) exactly; its adds borrow the literals of `first`
/// and `second`, so keep what those tables borrow alive while the result
/// is used. Commands in the result follow `second`'s order with
/// fragments merged where adjacent.
Script compose_scripts(std::span<const CommandRef> first,
                       std::span<const CommandRef> second,
                       ComposeReport* report_out = nullptr);

/// Fold a chain of parsed deltas, oldest first, into one script that
/// builds the last hop's version from the first hop's reference:
/// compose_scripts left to right, ((h0 ∘ h1) ∘ h2) ∘ ... The result
/// borrows the hops' literals (their artifacts, or `decompressed`), so
/// `hops` and the artifacts they were parsed from must outlive it. Throws
/// ValidationError for fewer than two hops (one hop is already its own
/// fold) or hops that do not chain.
Script fold_chain(std::span<const ParsedDelta> hops);

}  // namespace ipd
