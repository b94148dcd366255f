#include "apply/apply_journal.hpp"

#include <algorithm>

#include "core/buffer.hpp"
#include "core/checksum.hpp"
#include "core/interval.hpp"

namespace ipd {
namespace {

constexpr char kMagic[4] = {'I', 'P', 'A', 'J'};

// Fixed record prefix: magic, seq, kind, flags, artifact identity, hop
// metadata, progress cursor, undo/header lengths. Variable payloads and
// the CRC-32C trailer follow.
constexpr std::size_t kFixedBytes = 4 + 8 + 1 + 1 + 4 + 8 + 4 + 4 + 4 + 8 +
                                    8 + 8 + 4 + 8 + 4 + 4;
constexpr std::size_t kTrailerBytes = 4;

constexpr std::uint8_t kFlagFullImage = 0x01;

/// Little-endian store of `value` at `p`; returns the byte after it.
template <typename T>
std::uint8_t* put_le(std::uint8_t* p, T value) noexcept {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(value) >>
                                     (8 * i));
  }
  return p + sizeof(T);
}

std::size_t round_up(std::size_t value, std::size_t unit) noexcept {
  if (unit <= 1) return value;
  return (value + unit - 1) / unit * unit;
}

}  // namespace

void MemoryJournalStorage::read(offset_t offset, MutByteView out) {
  if (!range_fits(offset, out.size(), bytes_.size())) {
    throw DeviceError("memory journal: read out of range");
  }
  std::copy_n(bytes_.begin() + static_cast<std::ptrdiff_t>(offset),
              out.size(), out.begin());
}

void MemoryJournalStorage::write(offset_t offset, ByteView data) {
  if (!range_fits(offset, data.size(), bytes_.size())) {
    throw DeviceError("memory journal: write out of range");
  }
  std::copy(data.begin(), data.end(),
            bytes_.begin() + static_cast<std::ptrdiff_t>(offset));
}

std::size_t ApplyJournal::slot_bytes(
    const ApplyJournalOptions& options) noexcept {
  return round_up(kFixedBytes + options.undo_capacity +
                      options.header_capacity + kTrailerBytes,
                  options.page_size);
}

ApplyJournal::ApplyJournal(JournalStorage& storage, MutByteView scratch,
                           const ApplyJournalOptions& options)
    : storage_(storage), scratch_(scratch), options_(options),
      slot_bytes_(slot_bytes(options)) {
  if (scratch_.size() < slot_bytes_) {
    throw DeviceError("apply journal: scratch buffer smaller than one slot (" +
                      std::to_string(slot_bytes_) + " bytes)");
  }
  if (storage_.size() < 2 * slot_bytes_) {
    throw DeviceError("apply journal: storage smaller than two slots (" +
                      std::to_string(2 * slot_bytes_) + " bytes)");
  }
  // Recovery scan: the newest valid record wins; next_seq continues past
  // ANY valid record (even a stale artifact's) so a fresh append never
  // lands on top of the only intact slot.
  for (int slot = 0; slot < 2; ++slot) {
    auto record = load_slot(slot);
    if (!record) continue;
    next_seq_ = std::max(next_seq_, record->seq + 1);
    if (!newest_ || record->seq > newest_->seq) {
      newest_ = std::move(record);
    }
  }
}

std::optional<ApplyRecord> ApplyJournal::load_slot(int slot) {
  const MutByteView view = scratch_.first(slot_bytes_);
  dirty_ = slot_bytes_;
  storage_.read(static_cast<offset_t>(slot) * slot_bytes_, view);
  ByteReader r(view);
  const ByteView magic = r.read_bytes(4);
  if (!std::equal(magic.begin(), magic.end(), kMagic)) return std::nullopt;
  ApplyRecord rec;
  rec.seq = r.read_u64le();
  const std::uint8_t kind = r.read_u8();
  if (kind < static_cast<std::uint8_t>(ApplyRecordKind::kCheckpoint) ||
      kind > static_cast<std::uint8_t>(ApplyRecordKind::kDone)) {
    return std::nullopt;
  }
  rec.kind = static_cast<ApplyRecordKind>(kind);
  const std::uint8_t flags = r.read_u8();
  rec.full_image = (flags & kFlagFullImage) != 0;
  rec.artifact_crc = r.read_u32le();
  rec.artifact_size = r.read_u64le();
  rec.meta_from = r.read_u32le();
  rec.meta_hop = r.read_u32le();
  rec.meta_target = r.read_u32le();
  rec.command_index = r.read_u64le();
  rec.substep = r.read_u64le();
  rec.artifact_offset = r.read_u64le();
  rec.adler_state = r.read_u32le();
  rec.undo_to = r.read_u64le();
  const std::uint32_t undo_len = r.read_u32le();
  const std::uint32_t header_len = r.read_u32le();
  if (undo_len > options_.undo_capacity ||
      header_len > options_.header_capacity) {
    return std::nullopt;
  }
  const std::size_t body = kFixedBytes + undo_len + header_len;
  const ByteView undo = r.read_bytes(undo_len);
  const ByteView header = r.read_bytes(header_len);
  const std::uint32_t stored_crc = r.read_u32le();
  if (crc32c(ByteView(view).first(body)) != stored_crc) {
    return std::nullopt;  // torn, stale, or corrupt
  }
  rec.undo.assign(undo.begin(), undo.end());
  rec.header.assign(header.begin(), header.end());
  return rec;
}

std::optional<ApplyRecord> ApplyJournal::newest_for(
    std::uint32_t artifact_crc, std::uint64_t artifact_size) const {
  if (newest_ && newest_->artifact_crc == artifact_crc &&
      newest_->artifact_size == artifact_size) {
    return newest_;
  }
  return std::nullopt;
}

void ApplyJournal::append(const ApplyRecordFields& fields, ByteView undo,
                          ByteView header) {
  if (undo.size() > options_.undo_capacity) {
    throw ValidationError("apply journal: undo exceeds configured capacity");
  }
  if (header.size() > options_.header_capacity) {
    throw ValidationError("apply journal: header exceeds configured capacity");
  }
  const std::uint64_t seq = next_seq_++;

  std::uint8_t* const base = scratch_.data();
  std::uint8_t* p = std::copy_n(kMagic, 4, base);
  p = put_le(p, seq);
  p = put_le(p, static_cast<std::uint8_t>(fields.kind));
  p = put_le(p, fields.full_image ? kFlagFullImage : std::uint8_t{0});
  p = put_le(p, fields.artifact_crc);
  p = put_le(p, fields.artifact_size);
  p = put_le(p, fields.meta_from);
  p = put_le(p, fields.meta_hop);
  p = put_le(p, fields.meta_target);
  p = put_le(p, fields.command_index);
  p = put_le(p, fields.substep);
  p = put_le(p, fields.artifact_offset);
  p = put_le(p, fields.adler_state);
  p = put_le(p, fields.undo_to);
  p = put_le(p, static_cast<std::uint32_t>(undo.size()));
  p = put_le(p, static_cast<std::uint32_t>(header.size()));
  p = std::copy(undo.begin(), undo.end(), p);
  p = std::copy(header.begin(), header.end(), p);
  const std::size_t body = static_cast<std::size_t>(p - base);
  p = put_le(p, crc32c(ByteView(base, body)));
  const std::size_t used = body + kTrailerBytes;

  // Zero-pad to whole pages, so one storage write covers the record and
  // nothing stale survives in the pages it touches. Bytes past dirty_
  // are zero already, so only what an earlier record left is cleared.
  if (dirty_ > used) {
    std::fill(base + used, base + dirty_, std::uint8_t{0});
  }
  dirty_ = used;
  storage_.write((seq % 2) * slot_bytes_,
                 ByteView(base, round_up(used, options_.page_size)));
  ++writes_;
  static_cast<ApplyRecordFields&>(newest_.emplace()) = fields;
  newest_->seq = seq;
}

void ApplyJournal::append(ApplyRecord record) {
  append(record, record.undo, record.header);
  record.seq = newest_->seq;
  newest_ = std::move(record);
}

}  // namespace ipd
