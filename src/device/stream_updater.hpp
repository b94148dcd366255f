// Power-loss-safe in-place apply straight to FlashDevice storage: the
// journaled executor both device updaters run, and the streaming updater
// that feeds it while the artifact is still arriving over the network.
//
// In-place reconstruction destroys the only copy of the reference as it
// runs (§1). JournaledExecutor applies borrowed commands (CommandRef)
// under the apply journal (apply/apply_journal.hpp) so a rebooted device
// resumes byte-exactly, whether the staged updater
// (device/resumable_updater.hpp) feeds it parse_delta()'s table or
// StreamingDeviceUpdater feeds it commands as their bytes arrive:
//
//  * admit_inplace_write (apply/oracle.hpp), the gate the RAM streaming
//    applier runs too, checks bounds and Equation 2 (no copy reads a
//    byte an earlier command of this run wrote) before each command's
//    first flash write. Its set is a bit per version byte
//    (WrittenBytes), charged to device RAM before the first flash write.
//  * Replay-idempotent batching. Equation 2 guarantees no command writes
//    over a LATER command's reads, but command j may overwrite what
//    command i < j already read. Commands k..m-1 share one checkpoint
//    record iff no member's write intersects any member's read set; then
//    replaying the batch from k after a crash inside it is byte-exact.
//    Checkpoints are written BETWEEN batches.
//  * Self-overlapping copies are never idempotent: they run as window-
//    sized sub-steps (§4.1 direction), each preceded by a kSubstep record
//    carrying the destination window's pre-image; restoring that undo
//    makes the sub-step re-runnable. The first sub-step's record closes
//    the batch before the copy and the last one opens the batch after it.
//  * The version CRC-32C is read back before the done record.
//
// Nothing on this path allocates per command or per record. Streaming
// records also carry the artifact offset of the in-flight command and the
// running payload Adler-32 there (so recovery composes with the wire
// protocol's byte-exact RESUME), plus the raw container header. Full
// images stream through the same journal (flag full_image), with
// checkpoints carrying the running CRC-32C.
//
// Trust note: only the staged path can run the static Verifier before the
// first flash write; a streaming device gets the incremental gating above,
// and the server-side Verifier stays the authoritative pre-serve gate.
// See docs/DEVICE.md.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "apply/apply_journal.hpp"
#include "apply/oracle.hpp"
#include "delta/codec.hpp"
#include "device/flash_device.hpp"
#include "device/flash_journal.hpp"

namespace ipd {

/// Storage-to-storage copy through a bounded RAM window, ordered so
/// overlapping source/destination never reads an overwritten byte
/// (§4.1's buffer-granular copy); exposed for tests.
void device_windowed_copy(FlashDevice& device, MutByteView window,
                          offset_t from, offset_t to, length_t length);

/// CRC-32C of storage bytes [0, length), read back through `window`:
/// how the updaters check a reconstruction before committing it.
std::uint32_t storage_crc(FlashDevice& device, MutByteView window,
                          length_t length);

struct StreamUpdaterOptions {
  /// Copy window = undo capacity = largest journaled pre-image.
  std::size_t window_bytes = 4096;
  /// Commands per replay batch; smaller = more journal writes, less
  /// re-fetched artifact suffix after a power cut.
  std::size_t checkpoint_commands = 32;
  /// Largest raw container header a journal record can carry.
  std::size_t header_capacity = 256;
  /// Full-image mode: checkpoint cadence in artifact bytes.
  std::uint64_t full_image_checkpoint_bytes = 64u << 10;
};

/// What a record tells a rebooted device about the download: the
/// artifact byte to re-fetch from and the running payload Adler-32
/// there. Staged applies keep the whole artifact and leave it default.
struct ResumePoint {
  std::uint64_t artifact_offset = 0;
  std::uint32_t adler_state = 1;
};

/// Why the executor closed each replay batch. Every record between the
/// write-ahead checkpoint and the done record is one close, so on a
/// fresh run the three sum to the records written minus those two.
struct BatchCloses {
  std::uint64_t checkpoint_cap = 0;  ///< batch held checkpoint_commands
  std::uint64_t intersection = 0;    ///< a write hit a member's read
  std::uint64_t substep = 0;         ///< kSubstep records
};

class JournaledExecutor {
 public:
  /// Maps a payload offset at a command boundary to its ResumePoint;
  /// called only when a record is written.
  using ResumeFn = std::function<ResumePoint(std::uint64_t payload_offset)>;

  /// `identity` holds the fields every record repeats (artifact identity
  /// and hop metadata); `header_blob` is the raw container header each
  /// in-flight record carries; a replay batch holds at most
  /// `checkpoint_commands` commands. `journal` and `header_blob` must
  /// outlive the executor. The conflict set, V/8 bytes for a V-byte
  /// version, is charged to the device RAM here. Throws DeviceError when
  /// the image does not fit storage, reaches into the journal region, or
  /// the set does not fit the RAM budget.
  JournaledExecutor(FlashDevice& device, DeviceJournal& journal,
                    const DeltaHeader& header,
                    const ApplyRecordFields& identity, ByteView header_blob,
                    std::size_t checkpoint_commands, ResumeFn resume);

  JournaledExecutor(const JournaledExecutor&) = delete;
  JournaledExecutor& operator=(const JournaledExecutor&) = delete;

  /// Fresh start: journal the write-ahead checkpoint at command 0.
  void begin(const ResumePoint& start);

  /// Continue from the journal's in-flight record for this artifact:
  /// restore its undo pre-image, after which every command from
  /// record.command_index (at record.substep, for a kSubstep record)
  /// replays byte-exactly.
  void resume(const ApplyRecord& record);

  /// Execute the next command, whose codeword starts at payload offset
  /// `payload_pre`. Throws ValidationError on a bounds violation and
  /// ConflictError on a write-before-read conflict, both before the
  /// command's first flash write; FormatError when a resumed sub-step
  /// does not match the command.
  void execute(const CommandRef& command, std::uint64_t payload_pre);

  /// Check the version CRC, then journal the done record at `done`.
  void finish(const ResumePoint& done);

  /// Read the version back through the window and compare its CRC-32C
  /// with the header's; throws FormatError on a mismatch.
  void verify_version();

  /// Index of the next command to execute.
  std::uint64_t next_command() const noexcept { return next_command_; }

  /// Batch closes of this run, by cause.
  const BatchCloses& closes() const noexcept { return closes_; }

 private:
  void run_substeps(const CommandRef& copy, std::uint64_t index,
                    std::uint64_t payload_pre);
  bool hits_batch_reads(const Interval& write) const;
  void seal(std::uint64_t command_index, std::uint64_t payload_offset,
            std::uint64_t& cause);
  void append(ApplyRecordKind kind, std::uint64_t command_index,
              std::uint64_t substep, const ResumePoint& point,
              offset_t undo_to, ByteView undo);

  FlashDevice& device_;
  ApplyJournal& journal_;
  MutByteView window_;
  DeltaHeader header_;
  ApplyRecordFields identity_;
  ByteView header_blob_;
  std::size_t checkpoint_commands_;
  ResumeFn resume_;

  std::uint64_t next_command_ = 0;
  // Whether the newest journal record is a checkpoint at this command:
  // sealing the same boundary twice is skipped, and (critically) a
  // resume at a kSubstep record must NOT be preceded by a fresh
  // checkpoint, which would license replay from sub-step 0.
  std::optional<std::uint64_t> durable_checkpoint_;
  std::optional<std::uint64_t> resume_substep_;
  std::vector<Interval> batch_reads_;
  std::size_t batch_count_ = 0;
  BatchCloses closes_;
  RamArena::Allocation written_storage_;
  WrittenBytes written_;
};

/// Identity and hop metadata of the artifact being applied — journaled in
/// every record so a rebooted device can re-issue the exact network
/// RESUME without re-learning anything from the server.
struct StreamArtifactInfo {
  std::uint32_t artifact_crc = 0;   ///< CRC-32C of the whole artifact
  std::uint64_t artifact_size = 0;  ///< artifact bytes
  bool full_image = false;
  std::uint32_t meta_from = 0;    ///< hop source release
  std::uint32_t meta_hop = 0;     ///< hop target release
  std::uint32_t meta_target = 0;  ///< original requested release
};

/// What the journal says about the device's update state, before any
/// network contact (StreamingDeviceUpdater::probe).
struct StreamApplyProbe {
  bool done = false;  ///< artifact fully applied and verified
  StreamArtifactInfo info;
  /// Artifact byte to RESUME the download at (== artifact_size if done).
  std::uint64_t resume_offset = 0;
};

class StreamingDeviceUpdater {
 public:
  /// Begin — or, when the journal holds a matching in-flight record,
  /// resume — applying the artifact described by `info`. Resuming
  /// restores the journaled undo window; feed() must then start at
  /// next_offset(). Records for other artifacts are left in place (the
  /// slot alternation retires them) — they are the device's durable
  /// memory of its current release until our first record lands.
  StreamingDeviceUpdater(FlashDevice& device, const JournalRegion& journal,
                         const StreamArtifactInfo& info,
                         const StreamUpdaterOptions& options = {});

  StreamingDeviceUpdater(const StreamingDeviceUpdater&) = delete;
  StreamingDeviceUpdater& operator=(const StreamingDeviceUpdater&) = delete;

  /// Inspect the journal without touching it: the newest valid record's
  /// artifact identity and resume offset, or nullopt when the journal
  /// holds nothing. The same options used for applying must be passed
  /// (the slot layout depends on them).
  static std::optional<StreamApplyProbe> probe(
      FlashDevice& device, const JournalRegion& journal,
      const StreamUpdaterOptions& options = {});

  /// Feed the next artifact bytes, starting at next_offset(). Applies
  /// every command that becomes complete and journals checkpoints as
  /// batches seal. Throws FormatError/ValidationError/ConflictError on a
  /// bad artifact, DeviceError on resource violations, and lets
  /// FlashDevice::PowerFailure escape (construct a fresh updater from
  /// the journal to resume). After any throw the instance is poisoned.
  void feed(ByteView chunk);

  /// True once the artifact is fully applied, checksums verified, and
  /// the done record written.
  bool finished() const noexcept { return finished_; }

  /// Artifact byte the next feed() must start at (in-RAM high-water;
  /// resets to the last durable checkpoint after a reboot).
  std::uint64_t next_offset() const noexcept { return stream_pos_; }

  bool resumed() const noexcept { return resumed_; }
  std::size_t commands_applied() const noexcept {
    return executor_ ? executor_->next_command() : 0;
  }
  std::uint64_t journal_records() const noexcept;

  /// The apply-journal layout this updater uses on `device` with
  /// `options`: anything that reads its journal opens it with this.
  /// Throws DeviceError for a zero window.
  static ApplyJournalOptions journal_options(
      const FlashDevice& device, const StreamUpdaterOptions& options);

 private:
  void feed_full_image(ByteView chunk);
  void feed_delta(ByteView chunk);
  void append_image_record(ApplyRecordKind kind);
  void start_executor();
  void finish_full_image();

  void recover(const ApplyRecord& rec);

  FlashDevice& device_;
  ApplyRecordFields identity_;  ///< the artifact every record names
  StreamUpdaterOptions options_;
  DeviceJournal journal_;
  std::uint64_t stream_pos_ = 0;  ///< artifact offset feed() expects next

  // Delta-mode state: the reader holds the raw header every record
  // carries and folds the payload Adler-32 to command boundaries.
  StreamingDeltaReader reader_;
  std::optional<JournaledExecutor> executor_;

  // Full-image mode state.
  std::uint32_t image_crc_state_ = 0;
  std::uint64_t last_image_checkpoint_ = 0;

  bool resumed_ = false;
  bool finished_ = false;
  bool poisoned_ = false;
};

}  // namespace ipd
