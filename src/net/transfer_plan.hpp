// Request-to-transfer planning for the server's GET_DELTA/RESUME.
//
// plan_transfer() decides the artifact selection, the resume rules and
// the DELTA_BEGIN metadata in one pure function: given the service's
// ServeResult and the request parameters, it either refuses (a typed
// ErrorMsg, plus a note for the flight recorder on resume refusals) or
// pins the artifact and fills the DELTA_BEGIN header. Streaming the
// artifact bytes (zero-copy writev) is the reactor's business.
#pragma once

#include <memory>
#include <optional>

#include "net/protocol.hpp"
#include "server/delta_service.hpp"

namespace ipd {

struct TransferPlan {
  /// Set when the request must be refused; nothing else is valid.
  std::optional<ErrorMsg> error;
  /// For refusals worth evidence (bad resumes): what to title the
  /// flight-recorder dump. Null for plain errors.
  const char* refusal_note = nullptr;
  /// The artifact to stream, pinned for the transfer's lifetime.
  std::shared_ptr<const Bytes> artifact;
  /// Fully filled, including start_offset and the container's
  /// reference/version lengths.
  DeltaBeginMsg begin;
  /// True when a RESUME was accepted (count net_resumes on this, not on
  /// completion).
  bool resume_accepted = false;
};

/// Decide how to answer one GET_DELTA/RESUME given the route the service
/// chose. `requested_to` is the release the client ultimately wants
/// (sets DELTA_BEGIN.last_hop); `offset`/`resume_crc` are meaningful
/// when `is_resume`.
TransferPlan plan_transfer(const ServeResult& result, ReleaseId requested_to,
                           std::uint64_t offset, std::uint32_t resume_crc,
                           bool is_resume);

}  // namespace ipd
