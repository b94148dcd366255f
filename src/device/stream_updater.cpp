#include "device/stream_updater.hpp"

#include <algorithm>
#include <utility>

#include "core/checksum.hpp"

namespace ipd {

void device_windowed_copy(FlashDevice& device, MutByteView window,
                          offset_t from, offset_t to, length_t length) {
  const std::size_t win = window.size();
  if (from >= to) {
    // Left-to-right.
    length_t done = 0;
    while (done < length) {
      const std::size_t n =
          static_cast<std::size_t>(std::min<length_t>(win, length - done));
      const MutByteView chunk = window.first(n);
      device.read(from + done, chunk);
      device.write(to + done, chunk);
      done += n;
    }
  } else {
    // Right-to-left.
    length_t remaining = length;
    while (remaining > 0) {
      const std::size_t n =
          static_cast<std::size_t>(std::min<length_t>(win, remaining));
      remaining -= n;
      const MutByteView chunk = window.first(n);
      device.read(from + remaining, chunk);
      device.write(to + remaining, chunk);
    }
  }
}

std::uint32_t storage_crc(FlashDevice& device, MutByteView window,
                          length_t length) {
  Crc32c crc;
  length_t done = 0;
  while (done < length) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<length_t>(window.size(), length - done));
    const MutByteView chunk = window.first(n);
    device.read(done, chunk);
    crc.update(chunk);
    done += n;
  }
  return crc.value();
}

namespace {

/// Sub-step `s` of a self-overlapping copy, in the §4.1 direction
/// (left-to-right when from >= to, else right-to-left), so executing
/// them in order never reads a byte an earlier sub-step wrote.
CopyCommand substep_of(const CommandRef& copy, length_t window,
                       std::uint64_t s) {
  length_t off = s * window;
  const length_t n = std::min(window, copy.length - off);
  if (copy.from < copy.to) {
    off = copy.length - off - n;
  }
  return CopyCommand{copy.from + off, copy.to + off, n};
}

/// The version length, once the image is known to fit storage clear of
/// the journal; the conflict set is sized from it.
length_t checked_version_length(const FlashDevice& device,
                                const DeviceJournal& journal,
                                const DeltaHeader& header) {
  DeviceJournal::check_image_area(
      device, journal.region,
      std::max(header.reference_length, header.version_length),
      "journaled apply");
  return header.version_length;
}

}  // namespace

JournaledExecutor::JournaledExecutor(FlashDevice& device,
                                     DeviceJournal& journal,
                                     const DeltaHeader& header,
                                     const ApplyRecordFields& identity,
                                     ByteView header_blob,
                                     std::size_t checkpoint_commands,
                                     ResumeFn resume)
    : device_(device),
      journal_(journal.journal),
      window_(journal.window.view()),
      header_(header),
      identity_(identity),
      header_blob_(header_blob),
      checkpoint_commands_(std::max<std::size_t>(checkpoint_commands, 1)),
      resume_(std::move(resume)),
      written_storage_(device.ram().allocate(WrittenBytes::storage_bytes(
          checked_version_length(device, journal, header)))),
      written_(written_storage_.view(), header.version_length) {
  if (window_.empty()) {
    throw DeviceError("journaled apply: window must hold at least 1 byte");
  }
  batch_reads_.reserve(checkpoint_commands_);
}

void JournaledExecutor::begin(const ResumePoint& start) {
  append(ApplyRecordKind::kCheckpoint, 0, 0, start, 0, {});
}

void JournaledExecutor::resume(const ApplyRecord& record) {
  // Every sub-step destination lies inside the version; an undo window
  // outside it (over the journal, or wrapping past 2^64) is forged.
  if (!range_fits(record.undo_to, record.undo.size(),
                  header_.version_length)) {
    throw DeviceError("journaled apply: journal undo window out of range");
  }
  if (!record.undo.empty()) {
    device_.write(record.undo_to, record.undo);
  }
  next_command_ = record.command_index;
  if (record.kind == ApplyRecordKind::kSubstep) {
    resume_substep_ = record.substep;
  } else {
    durable_checkpoint_ = record.command_index;
  }
}

void JournaledExecutor::execute(const CommandRef& command,
                                std::uint64_t payload_pre) {
  const std::uint64_t index = next_command_++;
  admit_inplace_write(written_, command, header_.reference_length,
                      "journaled apply", index);
  const Interval write = Interval::of(command.to, command.length);
  const Interval read = Interval::of(command.from, command.length);
  if (!command.is_add() && read.intersects(write)) {
    run_substeps(command, index, payload_pre);
  } else {
    if (resume_substep_) {
      throw FormatError(
          "journaled apply: journal sub-step does not match artifact");
    }
    if (batch_count_ >= checkpoint_commands_) {
      seal(index, payload_pre, closes_.checkpoint_cap);
    } else if (hits_batch_reads(write)) {
      seal(index, payload_pre, closes_.intersection);
    }
    if (command.is_add()) {
      device_.write(command.to, ByteView(command.literal,
                                         static_cast<std::size_t>(
                                             command.length)));
    } else {
      device_windowed_copy(device_, window_, command.from, command.to,
                           command.length);
      batch_reads_.push_back(read);
    }
    ++batch_count_;
  }
}

void JournaledExecutor::run_substeps(const CommandRef& copy,
                                     std::uint64_t index,
                                     std::uint64_t payload_pre) {
  // No checkpoint first: the first sub-step's record already says every
  // command before this one landed. When resuming, the journal's kSubstep
  // record for this command is durable and its undo restored; a
  // checkpoint here would license replay from sub-step 0 over a state
  // where later sub-steps already ran.
  std::uint64_t start = 0;
  if (resume_substep_) {
    start = *resume_substep_;
    resume_substep_.reset();
  }
  const length_t window = window_.size();
  const std::uint64_t count = (copy.length + window - 1) / window;
  if (start >= count) {
    throw DeviceError("journaled apply: journal sub-step out of range");
  }
  const ResumePoint point = resume_(payload_pre);
  CopyCommand sub;
  for (std::uint64_t s = start; s < count; ++s) {
    sub = substep_of(copy, window, s);
    const MutByteView dst =
        window_.first(static_cast<std::size_t>(sub.length));
    device_.read(sub.to, dst);  // destination pre-image = undo
    append(ApplyRecordKind::kSubstep, index, s, point, sub.to, dst);
    ++closes_.substep;
    device_.read(sub.from, dst);
    device_.write(sub.to, dst);
  }
  // The last sub-step's record opens the next batch: replaying from it
  // restores that sub-step's undo and re-runs it, so later commands may
  // join as long as none writes what the sub-step reads.
  batch_reads_.clear();
  batch_reads_.push_back(Interval::of(sub.from, sub.length));
  batch_count_ = 1;
}

bool JournaledExecutor::hits_batch_reads(const Interval& write) const {
  // Replay-idempotence: a joining command's write must not touch any
  // batch member's read set, or re-running the batch from its checkpoint
  // would read post-write bytes.
  return std::any_of(
      batch_reads_.begin(), batch_reads_.end(),
      [&write](const Interval& read) { return write.intersects(read); });
}

void JournaledExecutor::seal(std::uint64_t command_index,
                             std::uint64_t payload_offset,
                             std::uint64_t& cause) {
  batch_reads_.clear();
  batch_count_ = 0;
  if (durable_checkpoint_ == command_index) {
    return;  // this boundary is already the newest durable record
  }
  append(ApplyRecordKind::kCheckpoint, command_index, 0,
         resume_(payload_offset), 0, {});
  ++cause;
}

void JournaledExecutor::finish(const ResumePoint& done) {
  verify_version();
  append(ApplyRecordKind::kDone, next_command_, 0, done, 0, {});
}

void JournaledExecutor::verify_version() {
  if (storage_crc(device_, window_, header_.version_length) !=
      header_.version_crc) {
    throw FormatError(
        "journaled apply: version CRC mismatch after reconstruction");
  }
}

void JournaledExecutor::append(ApplyRecordKind kind,
                               std::uint64_t command_index,
                               std::uint64_t substep,
                               const ResumePoint& point, offset_t undo_to,
                               ByteView undo) {
  ApplyRecordFields fields = identity_;
  fields.kind = kind;
  fields.command_index = command_index;
  fields.substep = substep;
  fields.artifact_offset = point.artifact_offset;
  fields.adler_state = point.adler_state;
  fields.undo_to = undo_to;
  journal_.append(fields, undo,
                  kind == ApplyRecordKind::kDone ? ByteView{} : header_blob_);
  if (kind == ApplyRecordKind::kCheckpoint) {
    durable_checkpoint_ = command_index;
  } else {
    durable_checkpoint_.reset();
  }
}

ApplyJournalOptions StreamingDeviceUpdater::journal_options(
    const FlashDevice& device, const StreamUpdaterOptions& options) {
  if (options.window_bytes == 0) {
    throw DeviceError("stream updater: window_bytes must be >= 1");
  }
  return ApplyJournalOptions{device.page_size(), options.window_bytes,
                             options.header_capacity};
}

StreamingDeviceUpdater::StreamingDeviceUpdater(
    FlashDevice& device, const JournalRegion& journal,
    const StreamArtifactInfo& info, const StreamUpdaterOptions& options)
    : device_(device),
      identity_{.full_image = info.full_image,
                .artifact_crc = info.artifact_crc,
                .artifact_size = info.artifact_size,
                .meta_from = info.meta_from,
                .meta_hop = info.meta_hop,
                .meta_target = info.meta_target},
      options_(options),
      journal_(device, journal, journal_options(device, options),
               "stream updater") {
  if (identity_.artifact_size == 0) {
    throw ValidationError("stream updater: artifact size must be >= 1");
  }
  if (const auto rec =
          journal_.journal.newest_for(identity_.artifact_crc,
                                      identity_.artifact_size)) {
    recover(*rec);
    return;
  }
  // Fresh start. Any record for a different artifact is the device's
  // durable memory of its previous update — leave it; slot alternation
  // retires it once two of our records land, and until our first record
  // is durable it correctly describes the device's state.
  if (identity_.full_image) {
    DeviceJournal::check_image_area(device_, journal_.region,
                                    identity_.artifact_size,
                                    "stream updater");
    // Write-ahead: the initial checkpoint lands before any image write.
    append_image_record(ApplyRecordKind::kCheckpoint);
  }
  // Delta mode journals its first checkpoint once the header parses.
}

void StreamingDeviceUpdater::recover(const ApplyRecord& rec) {
  resumed_ = true;
  if (rec.kind == ApplyRecordKind::kDone) {
    finished_ = true;
    stream_pos_ = identity_.artifact_size;
    return;
  }
  if (rec.full_image != identity_.full_image) {
    throw DeviceError("stream updater: journal record mode mismatch");
  }
  if (rec.artifact_offset > identity_.artifact_size) {
    throw DeviceError("stream updater: journal offset out of range");
  }
  stream_pos_ = rec.artifact_offset;
  if (identity_.full_image) {
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
  if (rec.artifact_offset < parsed->second) {
    throw DeviceError("stream updater: journal offset inside the header");
  }
  reader_ = StreamingDeltaReader(
      rec.header, rec.artifact_offset - parsed->second, rec.adler_state);
  start_executor();
  // Restoring the undo pre-image is idempotent: it reverts the possibly
  // partially-applied in-flight sub-step, after which every journaled
  // command from command_index on replays byte-exactly.
  executor_->resume(rec);
}

void StreamingDeviceUpdater::start_executor() {
  const DeltaHeader& header = *reader_.header();
  if (header.format.offsets != WriteOffsets::kExplicit) {
    // Implicit-offset decoding carries a running write cursor that a
    // mid-payload resume cannot reconstruct; in-place deltas pay for
    // explicit offsets anyway (§6).
    throw ValidationError(
        "stream updater: journaled streaming apply requires explicit "
        "write offsets");
  }
  const std::uint64_t header_size = reader_.header_blob().size();
  if (header_size + header.payload_length != identity_.artifact_size) {
    throw FormatError(
        "stream updater: container length does not match artifact size");
  }
  executor_.emplace(device_, journal_, header, identity_,
                    reader_.header_blob(), options_.checkpoint_commands,
                    [this, header_size](std::uint64_t payload) {
                      return ResumePoint{header_size + payload,
                                         reader_.adler_at(payload)};
                    });
}

std::optional<StreamApplyProbe> StreamingDeviceUpdater::probe(
    FlashDevice& device, const JournalRegion& journal,
    const StreamUpdaterOptions& options) {
  DeviceJournal dj(device, journal, journal_options(device, options),
                   "stream updater");
  const auto& rec = dj.journal.newest();
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

std::uint64_t StreamingDeviceUpdater::journal_records() const noexcept {
  return journal_.journal.records_written();
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
    if (stream_pos_ + chunk.size() > identity_.artifact_size) {
      throw FormatError("stream updater: bytes past declared artifact size");
    }
    if (identity_.full_image) {
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
  if (stream_pos_ == identity_.artifact_size) {
    finish_full_image();
    return;
  }
  if (stream_pos_ - last_image_checkpoint_ >=
      options_.full_image_checkpoint_bytes) {
    append_image_record(ApplyRecordKind::kCheckpoint);
    last_image_checkpoint_ = stream_pos_;
  }
}

void StreamingDeviceUpdater::feed_delta(ByteView chunk) {
  reader_.feed(chunk);
  stream_pos_ += chunk.size();
  if (!executor_) {
    // Until the header parses, header_blob() is every byte fed so far.
    if (reader_.header_blob().size() > options_.header_capacity) {
      throw DeviceError(
          "stream updater: container header exceeds header_capacity");
    }
    if (!reader_.header()) {
      return;
    }
    start_executor();
    // Write-ahead: checkpoint {command 0} with the raw header lands
    // before any flash write, making the journal the device's memory of
    // this hop from the very first byte applied.
    executor_->begin(ResumePoint{reader_.header_blob().size(), 1});
  }
  for (;;) {
    const std::uint64_t pre = reader_.position();
    const std::optional<CommandRef> command = reader_.next();
    if (!command) {
      break;
    }
    executor_->execute(*command, pre);
  }
  if (reader_.done()) {
    executor_->finish(ResumePoint{identity_.artifact_size,
                                  reader_.adler_at(reader_.position())});
    finished_ = true;
  }
}

void StreamingDeviceUpdater::append_image_record(ApplyRecordKind kind) {
  ApplyRecordFields fields = identity_;
  fields.kind = kind;
  fields.artifact_offset = stream_pos_;
  fields.adler_state = image_crc_state_;
  journal_.journal.append(fields, {}, {});
}

void StreamingDeviceUpdater::finish_full_image() {
  if (image_crc_state_ != identity_.artifact_crc) {
    throw FormatError("stream updater: image checksum mismatch");
  }
  if (storage_crc(device_, journal_.window.view(), identity_.artifact_size) !=
      identity_.artifact_crc) {
    throw FormatError(
        "stream updater: image CRC mismatch after reconstruction");
  }
  append_image_record(ApplyRecordKind::kDone);
  finished_ = true;
}

}  // namespace ipd
