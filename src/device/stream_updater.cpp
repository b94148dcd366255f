#include "device/stream_updater.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "core/checksum.hpp"

namespace ipd {
namespace {

JournalRegion stream_region(const FlashDevice& device,
                            const JournalRegion& journal,
                            const ApplyJournalOptions& jopts) {
  const std::size_t slot = ApplyJournal::slot_bytes(jopts);
  if (journal.size < 2 * slot) {
    throw DeviceError("stream updater: journal region smaller than two "
                      "slots (" + std::to_string(2 * slot) + " bytes)");
  }
  if (journal.offset + journal.size > device.storage_size()) {
    throw DeviceError("stream updater: journal region exceeds storage");
  }
  return JournalRegion{journal.offset, 2 * slot};
}

}  // namespace

ApplyJournalOptions StreamingDeviceUpdater::journal_options(
    const FlashDevice& device, const StreamUpdaterOptions& options) {
  if (options.window_bytes == 0) {
    throw DeviceError("stream updater: window_bytes must be >= 1");
  }
  ApplyJournalOptions jopts;
  jopts.page_size = device.page_size();
  jopts.undo_capacity = options.window_bytes;
  jopts.header_capacity = options.header_capacity;
  return jopts;
}

StreamingDeviceUpdater::StreamingDeviceUpdater(
    FlashDevice& device, const JournalRegion& journal,
    const StreamArtifactInfo& info, const StreamUpdaterOptions& options)
    : device_(device),
      info_(info),
      options_(options),
      jopts_(journal_options(device, options)),
      journal_offset_(journal.offset),
      window_(device.ram().allocate(options.window_bytes)),
      scratch_(device.ram().allocate(ApplyJournal::slot_bytes(jopts_))),
      storage_(device, stream_region(device, journal, jopts_)),
      journal_(storage_, scratch_.view(), jopts_) {
  if (info_.artifact_size == 0) {
    throw ValidationError("stream updater: artifact size must be >= 1");
  }
  if (const auto rec =
          journal_.newest_for(info_.artifact_crc, info_.artifact_size)) {
    recover(*rec);
    return;
  }
  // Fresh start. Any record for a different artifact is the device's
  // durable memory of its previous update — leave it; slot alternation
  // retires it once two of our records land, and until our first record
  // is durable it correctly describes the device's state.
  if (info_.full_image) {
    if (info_.artifact_size > device_.storage_size()) {
      throw DeviceError("stream updater: image does not fit storage");
    }
    if (journal_offset_ < info_.artifact_size) {
      throw DeviceError(
          "stream updater: journal region overlaps the image area");
    }
    // Write-ahead: the initial checkpoint lands before any image write.
    append_record(ApplyRecordKind::kCheckpoint, 0, 0, /*artifact_offset=*/0,
                  /*adler_state=*/0, 0, {}, {});
  }
  // Delta mode journals its first checkpoint once the header parses.
}

void StreamingDeviceUpdater::recover(const ApplyRecord& rec) {
  resumed_ = true;
  if (rec.kind == ApplyRecordKind::kDone) {
    finished_ = true;
    stream_pos_ = info_.artifact_size;
    durable_offset_ = info_.artifact_size;
    return;
  }
  if (rec.full_image != info_.full_image) {
    throw DeviceError("stream updater: journal record mode mismatch");
  }
  if (rec.artifact_offset > info_.artifact_size) {
    throw DeviceError("stream updater: journal offset out of range");
  }
  if (info_.full_image) {
    stream_pos_ = rec.artifact_offset;
    durable_offset_ = rec.artifact_offset;
    image_crc_state_ = rec.adler_state;
    last_image_checkpoint_ = rec.artifact_offset;
    return;
  }
  // Re-parse the journaled container header — the device does not need
  // to re-fetch the artifact's first bytes.
  const auto parsed = try_parse_header(rec.header);
  if (!parsed) {
    throw DeviceError("stream updater: journaled header is truncated");
  }
  header_ = parsed->first;
  header_len_ = parsed->second;
  header_blob_.assign(rec.header.begin(), rec.header.end());
  validate_header();
  decoder_.emplace(header_->format, header_->version_length);
  if (rec.artifact_offset < header_len_) {
    throw DeviceError("stream updater: journal offset inside the header");
  }
  // Restoring the undo pre-image is idempotent: it reverts the possibly
  // partially-applied in-flight sub-step, after which every journaled
  // command from command_index on replays byte-exactly.
  if (!rec.undo.empty()) {
    device_.write(rec.undo_to, rec.undo);
  }
  stream_pos_ = rec.artifact_offset;
  durable_offset_ = rec.artifact_offset;
  base_payload_ = rec.artifact_offset - header_len_;
  boundary_adler_ = rec.adler_state;
  adler_pos_ = base_payload_;
  pending_start_ = base_payload_;
  next_command_index_ = rec.command_index;
  commands_ = static_cast<std::size_t>(rec.command_index);
  if (rec.kind == ApplyRecordKind::kSubstep) {
    pending_resume_substep_ = rec.substep;
  } else {
    durable_checkpoint_index_ = rec.command_index;
  }
}

void StreamingDeviceUpdater::validate_header() {
  if (header_->compress_payload) {
    throw ValidationError(
        "stream updater: compressed payloads cannot be applied "
        "incrementally; ship uncompressed or use the staged path");
  }
  if (!header_->in_place) {
    throw ValidationError(
        "stream updater: delta is not marked in-place reconstructible");
  }
  if (header_->format.offsets != WriteOffsets::kExplicit) {
    // Implicit-offset decoding carries a running write cursor that a
    // mid-payload resume cannot reconstruct; in-place deltas pay for
    // explicit offsets anyway (§6).
    throw ValidationError(
        "stream updater: journaled streaming apply requires explicit "
        "write offsets");
  }
  const std::uint64_t extent =
      std::max(header_->reference_length, header_->version_length);
  if (extent > device_.storage_size()) {
    throw DeviceError("stream updater: image does not fit storage");
  }
  if (journal_offset_ < extent) {
    throw DeviceError(
        "stream updater: journal region overlaps the image area");
  }
  if (header_len_ + header_->payload_length != info_.artifact_size) {
    throw FormatError(
        "stream updater: container length does not match artifact size");
  }
}

std::optional<StreamApplyProbe> StreamingDeviceUpdater::probe(
    FlashDevice& device, const JournalRegion& journal,
    const StreamUpdaterOptions& options) {
  const ApplyJournalOptions jopts = journal_options(device, options);
  RamArena::Allocation scratch =
      device.ram().allocate(ApplyJournal::slot_bytes(jopts));
  FlashJournalStorage storage(device, stream_region(device, journal, jopts));
  ApplyJournal aj(storage, scratch.view(), jopts);
  const auto& rec = aj.newest();
  if (!rec) {
    return std::nullopt;
  }
  StreamApplyProbe result;
  result.done = rec->kind == ApplyRecordKind::kDone;
  result.info.artifact_crc = rec->artifact_crc;
  result.info.artifact_size = rec->artifact_size;
  result.info.full_image = rec->full_image;
  result.info.meta_from = rec->meta_from;
  result.info.meta_hop = rec->meta_hop;
  result.info.meta_target = rec->meta_target;
  result.resume_offset =
      result.done ? rec->artifact_size : rec->artifact_offset;
  return result;
}

void StreamingDeviceUpdater::clear(FlashDevice& device,
                                   const JournalRegion& journal,
                                   const StreamUpdaterOptions& options) {
  const ApplyJournalOptions jopts = journal_options(device, options);
  RamArena::Allocation scratch =
      device.ram().allocate(ApplyJournal::slot_bytes(jopts));
  FlashJournalStorage storage(device, stream_region(device, journal, jopts));
  ApplyJournal aj(storage, scratch.view(), jopts);
  aj.clear();
}

std::uint64_t StreamingDeviceUpdater::journal_records() const noexcept {
  return journal_.records_written();
}

void StreamingDeviceUpdater::feed(ByteView chunk) {
  if (poisoned_) {
    throw ValidationError("stream updater: poisoned by earlier error");
  }
  try {
    if (finished_) {
      if (!chunk.empty()) {
        throw FormatError("stream updater: trailing garbage after artifact");
      }
      return;
    }
    if (stream_pos_ + chunk.size() > info_.artifact_size) {
      throw FormatError("stream updater: bytes past declared artifact size");
    }
    if (info_.full_image) {
      feed_full_image(chunk);
    } else {
      feed_delta(chunk);
    }
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

void StreamingDeviceUpdater::feed_full_image(ByteView chunk) {
  if (chunk.empty()) {
    return;
  }
  // Image write first, checkpoint after: the checkpoint asserts bytes
  // [0, offset) are durable. A torn image write resumes from the
  // previous checkpoint and rewrites the same bytes — idempotent.
  device_.write(stream_pos_, chunk);
  image_crc_state_ = crc32c(chunk, image_crc_state_);
  stream_pos_ += chunk.size();
  if (stream_pos_ == info_.artifact_size) {
    finish_full_image();
    return;
  }
  if (stream_pos_ - last_image_checkpoint_ >=
      options_.full_image_checkpoint_bytes) {
    append_record(ApplyRecordKind::kCheckpoint, 0, 0, stream_pos_,
                  image_crc_state_, 0, {}, {});
    last_image_checkpoint_ = stream_pos_;
  }
}

void StreamingDeviceUpdater::feed_delta(ByteView chunk) {
  if (!header_) {
    head_pending_.insert(head_pending_.end(), chunk.begin(), chunk.end());
    stream_pos_ += chunk.size();
    const auto parsed = try_parse_header(head_pending_);
    if (!parsed) {
      if (head_pending_.size() > jopts_.header_capacity) {
        throw DeviceError(
            "stream updater: container header exceeds header_capacity");
      }
      return;
    }
    header_ = parsed->first;
    header_len_ = parsed->second;
    if (header_len_ > jopts_.header_capacity) {
      throw DeviceError(
          "stream updater: container header exceeds header_capacity");
    }
    header_blob_.assign(head_pending_.begin(),
                        head_pending_.begin() +
                            static_cast<std::ptrdiff_t>(header_len_));
    validate_header();
    decoder_.emplace(header_->format, header_->version_length);
    // Write-ahead: checkpoint {command 0} with the raw header lands
    // before any flash write, making the journal the device's memory of
    // this hop from the very first byte applied.
    append_record(ApplyRecordKind::kCheckpoint, 0, 0, header_len_,
                  /*adler_state=*/1, 0, {}, header_blob_);
    const Bytes rest(head_pending_.begin() +
                         static_cast<std::ptrdiff_t>(header_len_),
                     head_pending_.end());
    head_pending_.clear();
    head_pending_.shrink_to_fit();
    if (!rest.empty()) {
      ingest_payload(rest);
    } else if (header_->payload_length == 0) {
      finish_delta();
    }
    return;
  }
  stream_pos_ += chunk.size();
  ingest_payload(chunk);
}

void StreamingDeviceUpdater::ingest_payload(ByteView chunk) {
  pending_payload_.insert(pending_payload_.end(), chunk.begin(), chunk.end());
  decoder_->feed(chunk);
  drain_commands();
}

void StreamingDeviceUpdater::drain_commands() {
  for (;;) {
    const std::uint64_t pre = base_payload_ + decoder_->consumed();
    auto cmd = decoder_->next();
    if (!cmd) {
      break;
    }
    process_command(*cmd, pre);
  }
  const std::uint64_t payload_seen = stream_pos_ - header_len_;
  const std::uint64_t consumed = base_payload_ + decoder_->consumed();
  if (consumed == header_->payload_length &&
      payload_seen == header_->payload_length) {
    if (decoder_->buffered() != 0) {
      throw FormatError(
          "stream updater: garbage between last command and payload end");
    }
    finish_delta();
    return;
  }
  if (payload_seen == header_->payload_length && decoder_->buffered() != 0) {
    throw FormatError("stream updater: payload ends inside a command");
  }
  // Drop payload bytes already folded into the boundary checksum.
  const std::size_t folded =
      static_cast<std::size_t>(adler_pos_ - pending_start_);
  if (folded > 0) {
    pending_payload_.erase(pending_payload_.begin(),
                           pending_payload_.begin() +
                               static_cast<std::ptrdiff_t>(folded));
    pending_start_ = adler_pos_;
  }
}

void StreamingDeviceUpdater::process_command(const Command& cmd,
                                             std::uint64_t payload_pre) {
  const std::uint64_t idx = next_command_index_++;
  ++commands_;
  const length_t len = command_length(cmd);
  if (len == 0) {
    if (pending_resume_substep_) {
      throw FormatError(
          "stream updater: journal sub-step does not match artifact");
    }
    return;
  }
  const Interval w = command_write_interval(cmd);
  if (!range_fits(w.first, len, header_->version_length)) {
    throw ValidationError("stream updater: command writes past version");
  }
  if (const auto* copy = std::get_if<CopyCommand>(&cmd)) {
    if (!range_fits(copy->from, copy->length, header_->reference_length)) {
      throw ValidationError("stream updater: copy reads past reference");
    }
    if (options_.check_conflicts) {
      const Interval read = copy->read_interval();
      auto it = written_.upper_bound(read.last);
      if (it != written_.begin() && std::prev(it)->second >= read.first) {
        throw ConflictError(
            "stream updater: write-before-read conflict at command " +
            std::to_string(idx));
      }
    }
    if (copy->self_overlaps()) {
      run_substeps(*copy, idx, payload_pre);
    } else {
      if (pending_resume_substep_) {
        throw FormatError(
            "stream updater: journal sub-step does not match artifact");
      }
      if (!try_join(w)) {
        force_seal(idx, payload_pre);
      }
      device_windowed_copy(device_, window_.view(), copy->from, copy->to,
                           copy->length);
      batch_reads_.push_back(copy->read_interval());
      ++batch_count_;
    }
  } else {
    if (pending_resume_substep_) {
      throw FormatError(
          "stream updater: journal sub-step does not match artifact");
    }
    const AddCommand& add = std::get<AddCommand>(cmd);
    if (!try_join(w)) {
      force_seal(idx, payload_pre);
    }
    device_.write(add.to, add.data);
    ++batch_count_;
  }
  if (options_.check_conflicts) {
    written_[w.first] = w.last;
  }
}

void StreamingDeviceUpdater::run_substeps(const CopyCommand& copy,
                                          std::uint64_t command_index,
                                          std::uint64_t payload_pre) {
  std::uint64_t start_sub = 0;
  if (pending_resume_substep_) {
    // The journal's kSubstep record for this command is already durable
    // and its undo restored; writing a checkpoint here would license
    // replay from sub-step 0 over a state where later sub-steps already
    // ran. Resume directly at the recorded sub-step.
    start_sub = *pending_resume_substep_;
    pending_resume_substep_.reset();
  } else {
    // A self-overlapping copy is never idempotent — it gets a sealed
    // batch of its own.
    force_seal(command_index, payload_pre);
  }
  const std::vector<CopySubstep> subs =
      split_self_overlapping_copy(copy, options_.window_bytes);
  if (start_sub >= subs.size()) {
    throw DeviceError("stream updater: journal sub-step out of range");
  }
  for (std::uint64_t s = start_sub; s < subs.size(); ++s) {
    const CopySubstep& sub = subs[s];
    const MutByteView dst =
        window_.view().first(static_cast<std::size_t>(sub.length));
    device_.read(sub.to, dst);  // destination pre-image = undo
    append_record(ApplyRecordKind::kSubstep, command_index, s,
                  header_len_ + payload_pre, adler_at(payload_pre), sub.to,
                  dst, header_blob_);
    device_.read(sub.from, dst);
    device_.write(sub.to, dst);
  }
  // Close the command: later commands may overwrite its sources, so
  // replay must never re-enter its sub-steps.
  const std::uint64_t post = base_payload_ + decoder_->consumed();
  force_seal(command_index + 1, post);
}

bool StreamingDeviceUpdater::try_join(const Interval& write) const {
  if (batch_count_ >=
      std::max<std::size_t>(options_.checkpoint_commands, 1)) {
    return false;
  }
  // Replay-idempotence: the joining command's write must not touch any
  // batch member's read set, or re-running the batch from its checkpoint
  // would read post-write bytes. (Equation 2 covers only the forward
  // direction — earlier writes vs later reads.)
  for (const Interval& read : batch_reads_) {
    if (write.intersects(read)) {
      return false;
    }
  }
  return true;
}

void StreamingDeviceUpdater::force_seal(std::uint64_t command_index,
                                        std::uint64_t payload_offset) {
  batch_reads_.clear();
  batch_count_ = 0;
  if (durable_checkpoint_index_ == command_index) {
    return;  // this boundary is already the newest durable record
  }
  append_record(ApplyRecordKind::kCheckpoint, command_index, 0,
                header_len_ + payload_offset, adler_at(payload_offset), 0,
                {}, header_blob_);
}

std::uint32_t StreamingDeviceUpdater::adler_at(std::uint64_t payload_offset) {
  if (payload_offset > adler_pos_) {
    const std::size_t a = static_cast<std::size_t>(adler_pos_ - pending_start_);
    const std::size_t b =
        static_cast<std::size_t>(payload_offset - pending_start_);
    if (b > pending_payload_.size()) {
      throw DeviceError("stream updater: checksum fold out of range");
    }
    boundary_adler_ =
        adler32(ByteView(pending_payload_).subspan(a, b - a), boundary_adler_);
    adler_pos_ = payload_offset;
  }
  return boundary_adler_;
}

void StreamingDeviceUpdater::append_record(
    ApplyRecordKind kind, std::uint64_t command_index, std::uint64_t substep,
    std::uint64_t artifact_offset, std::uint32_t adler_state,
    offset_t undo_to, ByteView undo, ByteView header_blob) {
  ApplyRecord rec;
  rec.kind = kind;
  rec.full_image = info_.full_image;
  rec.artifact_crc = info_.artifact_crc;
  rec.artifact_size = info_.artifact_size;
  rec.meta_from = info_.meta_from;
  rec.meta_hop = info_.meta_hop;
  rec.meta_target = info_.meta_target;
  rec.command_index = command_index;
  rec.substep = substep;
  rec.artifact_offset = artifact_offset;
  rec.adler_state = adler_state;
  rec.undo_to = undo_to;
  rec.undo.assign(undo.begin(), undo.end());
  rec.header.assign(header_blob.begin(), header_blob.end());
  journal_.append(std::move(rec));
  durable_offset_ =
      kind == ApplyRecordKind::kDone ? info_.artifact_size : artifact_offset;
  if (kind == ApplyRecordKind::kCheckpoint && !info_.full_image) {
    durable_checkpoint_index_ = command_index;
  } else {
    durable_checkpoint_index_.reset();
  }
}

void StreamingDeviceUpdater::finish_delta() {
  const std::uint32_t final_adler = adler_at(header_->payload_length);
  if (header_->payload_length > 0 && final_adler != header_->payload_adler) {
    throw FormatError("stream updater: payload checksum mismatch");
  }
  if (options_.verify_crc) {
    verify_image_crc(header_->version_length, header_->version_crc,
                     "version");
  }
  append_record(ApplyRecordKind::kDone, next_command_index_, 0,
                info_.artifact_size, final_adler, 0, {}, {});
  finished_ = true;
}

void StreamingDeviceUpdater::finish_full_image() {
  if (image_crc_state_ != info_.artifact_crc) {
    throw FormatError("stream updater: image checksum mismatch");
  }
  if (options_.verify_crc) {
    verify_image_crc(info_.artifact_size, info_.artifact_crc, "image");
  }
  append_record(ApplyRecordKind::kDone, 0, 0, info_.artifact_size,
                image_crc_state_, 0, {}, {});
  finished_ = true;
}

void StreamingDeviceUpdater::verify_image_crc(std::uint64_t length,
                                              std::uint32_t expected,
                                              const char* what) {
  Crc32c crc;
  std::uint64_t done = 0;
  while (done < length) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(window_.size(), length - done));
    const MutByteView chunk = window_.view().first(n);
    device_.read(done, chunk);
    crc.update(chunk);
    done += n;
  }
  if (crc.value() != expected) {
    throw FormatError(std::string("stream updater: ") + what +
                      " CRC mismatch after reconstruction");
  }
}

}  // namespace ipd
