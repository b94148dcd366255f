#include "archive/archive.hpp"

#include <algorithm>

#include "apply/inplace_apply.hpp"
#include "core/buffer.hpp"
#include "core/checksum.hpp"
#include "verify/verifier.hpp"

namespace ipd {
namespace {

constexpr char kArchiveMagic[4] = {'I', 'P', 'D', 'A'};
constexpr std::uint8_t kArchiveVersion = 1;

}  // namespace

Archive build_archive(const FileSet& old_release, const FileSet& new_release,
                      const ArchiveBuildOptions& options,
                      ArchiveBuildReport* report_out) {
  Archive archive;
  ArchiveBuildReport report;
  // One pipeline for the whole archive: the differ and (lazy) pool are
  // reused across every entry instead of rebuilt per file.
  const Pipeline pipeline(options.pipeline);

  for (const auto& [name, content] : new_release) {
    report.new_release_bytes += content.size();
    const auto old_it = old_release.find(name);
    if (old_it == old_release.end()) {
      ++report.literal_entries;
      archive.entries.push_back(
          ArchiveEntry{EntryKind::kLiteral, name, content});
      continue;
    }
    Bytes delta = pipeline.build_inplace(old_it->second, content).delta;
    const double gain_threshold =
        static_cast<double>(content.size()) * (1.0 - options.min_delta_gain);
    if (static_cast<double>(delta.size()) <= gain_threshold) {
      ++report.delta_entries;
      archive.entries.push_back(
          ArchiveEntry{EntryKind::kDelta, name, std::move(delta)});
    } else {
      // Delta not worth it (unrelated contents): ship the file whole.
      ++report.literal_entries;
      archive.entries.push_back(
          ArchiveEntry{EntryKind::kLiteral, name, content});
    }
  }
  for (const auto& [name, content] : old_release) {
    (void)content;
    if (new_release.find(name) == new_release.end()) {
      ++report.delete_entries;
      archive.entries.push_back(ArchiveEntry{EntryKind::kDelete, name, {}});
    }
  }

  if (report_out != nullptr) {
    *report_out = report;
  }
  return archive;
}

Bytes serialize_archive(const Archive& archive) {
  ByteWriter w;
  w.write_string(std::string_view(kArchiveMagic, 4));
  w.write_u8(kArchiveVersion);
  w.write_varint(archive.entries.size());
  for (const ArchiveEntry& entry : archive.entries) {
    w.write_u8(static_cast<std::uint8_t>(entry.kind));
    w.write_varint(entry.name.size());
    w.write_string(entry.name);
    switch (entry.kind) {
      case EntryKind::kDelta:
        w.write_varint(entry.body.size());
        w.write_bytes(entry.body);
        break;
      case EntryKind::kLiteral:
        w.write_varint(entry.body.size());
        w.write_bytes(entry.body);
        w.write_u32le(crc32c(entry.body));
        break;
      case EntryKind::kDelete:
        if (!entry.body.empty()) {
          throw ValidationError("delete entry must carry no body");
        }
        break;
    }
  }
  w.write_u32le(crc32c(w.bytes()));
  return w.take();
}

Archive deserialize_archive(ByteView data) {
  if (data.size() < 4 + 1 + 4) {
    throw FormatError("archive truncated");
  }
  // Trailer first: reject corruption before parsing anything.
  const ByteView body = data.first(data.size() - 4);
  ByteReader trailer(data.subspan(data.size() - 4));
  if (crc32c(body) != trailer.read_u32le()) {
    throw FormatError("archive checksum mismatch");
  }

  ByteReader r(body);
  const ByteView magic = r.read_bytes(4);
  if (!std::equal(magic.begin(), magic.end(), kArchiveMagic)) {
    throw FormatError("bad magic: not an ipdelta archive");
  }
  if (r.read_u8() != kArchiveVersion) {
    throw FormatError("unsupported archive version");
  }

  Archive archive;
  const std::uint64_t count = r.read_varint();
  for (std::uint64_t i = 0; i < count; ++i) {
    ArchiveEntry entry;
    const std::uint8_t kind = r.read_u8();
    if (kind > static_cast<std::uint8_t>(EntryKind::kDelete)) {
      throw FormatError("unknown archive entry kind");
    }
    entry.kind = static_cast<EntryKind>(kind);
    const std::uint64_t name_len = r.read_varint();
    if (name_len > 4096) {
      throw FormatError("entry name implausibly long");
    }
    const ByteView name = r.read_bytes(static_cast<std::size_t>(name_len));
    entry.name.assign(name.begin(), name.end());
    switch (entry.kind) {
      case EntryKind::kDelta: {
        const std::uint64_t len = r.read_varint();
        const ByteView bytes = r.read_bytes(static_cast<std::size_t>(len));
        entry.body.assign(bytes.begin(), bytes.end());
        // Archives cross machines; the archive CRC only proves transit
        // integrity, not that the embedded delta is safe to apply.
        // Statically verify on load so a poisoned archive is refused
        // here, naming the entry, instead of corrupting an apply later.
        const Report verdict = Verifier().check(ByteView(entry.body));
        if (!verdict.ok()) {
          std::string why =
              "delta entry failed static verification: " + entry.name;
          for (const Finding& f : verdict.findings) {
            if (f.severity == Severity::kError) {
              why += ": " + f.message;
              break;
            }
          }
          throw FormatError(why);
        }
        break;
      }
      case EntryKind::kLiteral: {
        const std::uint64_t len = r.read_varint();
        const ByteView bytes = r.read_bytes(static_cast<std::size_t>(len));
        entry.body.assign(bytes.begin(), bytes.end());
        if (crc32c(entry.body) != r.read_u32le()) {
          throw FormatError("literal entry checksum mismatch: " + entry.name);
        }
        break;
      }
      case EntryKind::kDelete:
        break;
    }
    archive.entries.push_back(std::move(entry));
  }
  if (!r.exhausted()) {
    throw FormatError("trailing garbage inside archive body");
  }
  return archive;
}

void apply_archive(const Archive& archive, FileSet& release) {
  for (const ArchiveEntry& entry : archive.entries) {
    switch (entry.kind) {
      case EntryKind::kDelta: {
        const auto it = release.find(entry.name);
        if (it == release.end()) {
          throw ValidationError("archive delta targets missing file: " +
                                entry.name);
        }
        // Rebuild the file in its own buffer, exactly as a device would.
        const auto parsed = try_parse_header(entry.body);
        if (!parsed) {
          throw FormatError("truncated delta header");
        }
        const DeltaHeader& header = parsed->first;
        Bytes& buffer = it->second;
        if (buffer.size() != header.reference_length) {
          throw ValidationError("file size mismatch for " + entry.name);
        }
        buffer.resize(static_cast<std::size_t>(std::max(
            header.reference_length, header.version_length)));
        const length_t new_len = apply_delta_inplace(entry.body, buffer);
        buffer.resize(static_cast<std::size_t>(new_len));
        break;
      }
      case EntryKind::kLiteral:
        release[entry.name] = entry.body;
        break;
      case EntryKind::kDelete:
        if (release.erase(entry.name) == 0) {
          throw ValidationError("archive deletes missing file: " +
                                entry.name);
        }
        break;
    }
  }
}

Bytes build_archive_bytes(const FileSet& old_release,
                          const FileSet& new_release,
                          const ArchiveBuildOptions& options,
                          ArchiveBuildReport* report_out) {
  const Archive archive = build_archive(old_release, new_release, options,
                                        report_out);
  Bytes bytes = serialize_archive(archive);
  if (report_out != nullptr) {
    report_out->archive_bytes = bytes.size();
  }
  return bytes;
}

}  // namespace ipd
