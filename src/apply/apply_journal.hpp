// Write-ahead progress journal for power-loss-safe in-place application.
//
// In-place reconstruction destroys the only copy of the reference as it
// runs (§1); a device that loses power mid-apply holds neither version.
// The journal makes the apply a sequence of durable checkpoints:
//
//  * Two fixed-size, page-aligned slots alternate by sequence number.
//    Record seq goes to slot seq % 2, so a torn write of record k leaves
//    record k-1 intact in the other slot — recovery always finds the
//    newest record whose CRC-32C verifies.
//  * A record asserts "every command before `command_index` is durably
//    applied; the in-flight work may be partially applied" and carries
//    everything a rebooted device needs to resume: the artifact identity
//    (CRC-32C + size), the hop metadata for re-issuing a network RESUME,
//    the artifact byte offset to resume the download at, the running
//    payload checksum at that boundary, the raw container header (so the
//    delta can be re-parsed without re-fetching its first bytes), and a
//    bounded undo window — the pre-image of the region the in-flight
//    sub-step overwrites, restoring which makes the sub-step re-runnable.
//  * Records are CRC-32C framed; anything torn, stale, or foreign simply
//    fails validation and is ignored.
//
// The journal is storage-agnostic: it talks to a JournalStorage (a spare
// flash region, a file, a test vector) and never allocates to write a
// record — callers provide a scratch buffer of slot_bytes() so device RAM
// accounting stays honest. Its one writer is the journaled executor
// (device/stream_updater.hpp) behind both device updaters.
#pragma once

#include <cstdint>
#include <optional>

#include "core/types.hpp"

namespace ipd {

/// Abstract bounded byte store the journal lives in. Implementations:
/// a FlashDevice region (device/flash_journal.hpp), plain memory in
/// tests. Writes may be torn by power loss — validation handles it.
class JournalStorage {
 public:
  virtual ~JournalStorage() = default;
  virtual std::size_t size() const = 0;
  virtual void read(offset_t offset, MutByteView out) = 0;
  virtual void write(offset_t offset, ByteView data) = 0;
};

/// Trivial in-memory storage for tests and host-side tooling.
class MemoryJournalStorage final : public JournalStorage {
 public:
  explicit MemoryJournalStorage(std::size_t size) : bytes_(size, 0) {}

  std::size_t size() const override { return bytes_.size(); }
  void read(offset_t offset, MutByteView out) override;
  void write(offset_t offset, ByteView data) override;

  Bytes& bytes() noexcept { return bytes_; }

 private:
  Bytes bytes_;
};

struct ApplyJournalOptions {
  /// Slot size is rounded up to a multiple of this (flash page size), so
  /// the two slots never share a page and a torn slot write cannot touch
  /// its sibling.
  std::size_t page_size = 256;
  /// Largest undo (pre-image) payload a record may carry; typically the
  /// updater's copy window size.
  std::size_t undo_capacity = 4096;
  /// Largest raw container header a record may carry (0 when the
  /// consumer re-stages the artifact and never needs it back).
  std::size_t header_capacity = 256;
};

enum class ApplyRecordKind : std::uint8_t {
  kCheckpoint = 1,  ///< commands [0, command_index) durably applied
  kSubstep = 2,     ///< inside command_index: sub-steps [0, substep) done,
                    ///< undo holds the in-flight sub-step's pre-image
  kDone = 3,        ///< the whole artifact applied and verified
};

/// The fixed fields of one journal record: everything but its undo and
/// header payloads. See the header comment for field semantics.
struct ApplyRecordFields {
  std::uint64_t seq = 0;  ///< assigned by append()
  ApplyRecordKind kind = ApplyRecordKind::kCheckpoint;
  bool full_image = false;     ///< artifact is a raw image, not a delta
  std::uint32_t artifact_crc = 0;   ///< CRC-32C of the whole artifact
  std::uint64_t artifact_size = 0;  ///< artifact bytes
  std::uint32_t meta_from = 0;      ///< hop source release
  std::uint32_t meta_hop = 0;       ///< hop target release
  std::uint32_t meta_target = 0;    ///< original requested release (RESUME)
  std::uint64_t command_index = 0;  ///< first not-durably-applied command
  std::uint64_t substep = 0;        ///< sub-step within command_index
  /// Artifact byte offset of the first byte the resuming consumer must
  /// re-fetch (the in-flight command's first byte).
  std::uint64_t artifact_offset = 0;
  /// Running Adler-32 of the delta payload at artifact_offset (full
  /// images: running CRC-32C of the image prefix instead).
  std::uint32_t adler_state = 1;
  std::uint64_t undo_to = 0;  ///< storage offset the undo restores
};

/// One journal record with owned payloads, as recovered from storage.
struct ApplyRecord : ApplyRecordFields {
  Bytes undo;
  Bytes header;  ///< raw container header bytes (delta artifacts)
};

/// Two-slot alternating journal over a JournalStorage.
class ApplyJournal {
 public:
  /// Scans the storage for the newest valid record. `scratch` must hold
  /// at least slot_bytes(options) bytes and outlive the journal — it is
  /// the only working memory the journal ever uses (device RAM
  /// accounting: allocate it from the RamArena).
  ApplyJournal(JournalStorage& storage, MutByteView scratch,
               const ApplyJournalOptions& options);

  /// Bytes one slot occupies (fixed fields + capacities + CRC, rounded
  /// up to page_size); the storage must hold at least twice this.
  static std::size_t slot_bytes(const ApplyJournalOptions& options) noexcept;

  const ApplyJournalOptions& options() const noexcept { return options_; }

  /// Newest valid record found at construction or written since, for any
  /// artifact. Stale records from a previous artifact are visible here —
  /// identity-check before trusting (or use newest_for).
  const std::optional<ApplyRecord>& newest() const noexcept {
    return newest_;
  }

  /// newest(), but only if it matches this artifact's identity.
  std::optional<ApplyRecord> newest_for(std::uint32_t artifact_crc,
                                        std::uint64_t artifact_size) const;

  /// Durably append a record (seq is assigned internally), serialized
  /// from the borrowed payloads straight into the scratch buffer; newest()
  /// then reports `fields` with empty payloads. Throws ValidationError
  /// when undo or header exceed the configured capacities.
  void append(const ApplyRecordFields& fields, ByteView undo,
              ByteView header);

  /// append() for an owning record; newest() then holds it in full.
  void append(ApplyRecord record);

  /// Invalidate both slots (start of a fresh artifact, or provisioning).
  /// After clear() the journal holds no record and seq restarts at 0.
  void clear();

  std::uint64_t records_written() const noexcept { return writes_; }

 private:
  std::optional<ApplyRecord> load_slot(int slot);

  JournalStorage& storage_;
  MutByteView scratch_;
  ApplyJournalOptions options_;
  std::size_t slot_bytes_ = 0;
  std::optional<ApplyRecord> newest_;
  std::size_t dirty_ = 0;  ///< scratch[dirty_, slot) is known to be zero
  std::uint64_t next_seq_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace ipd
