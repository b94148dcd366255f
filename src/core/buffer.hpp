// Bounds-checked sequential reader/writer over byte buffers.
//
// The delta codecs are pure functions over in-memory byte sequences; these
// two cursors keep every access bounds-checked so a hostile delta file can
// never read or write outside its buffers.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/types.hpp"
#include "core/varint.hpp"

namespace ipd {

/// Sequential bounds-checked reader over a ByteView.
class ByteReader {
 public:
  explicit ByteReader(ByteView data) noexcept : data_(data) {}

  std::size_t position() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool exhausted() const noexcept { return pos_ == data_.size(); }

  /// Read a single byte. Throws FormatError at end of input.
  std::uint8_t read_u8();

  /// Read a little-endian fixed-width integer.
  std::uint16_t read_u16le();
  std::uint32_t read_u32le();
  std::uint64_t read_u64le();

  /// Read a varint (see core/varint.hpp).
  std::uint64_t read_varint();

  /// Read exactly `n` bytes; the returned view aliases the input buffer.
  ByteView read_bytes(std::size_t n);

  /// Skip `n` bytes forward. Throws FormatError if fewer remain.
  void skip(std::size_t n);

 private:
  void require(std::size_t n) const;

  ByteView data_;
  std::size_t pos_ = 0;
};

/// Appending writer over an owning Bytes buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  std::size_t size() const noexcept { return out_.size(); }
  /// Pre-size the buffer for `n` bytes in all.
  void reserve(std::size_t n) { out_.reserve(n); }

  void write_u8(std::uint8_t v);
  void write_u16le(std::uint16_t v);
  void write_u32le(std::uint32_t v);
  void write_u64le(std::uint64_t v);
  void write_varint(std::uint64_t v);
  void write_bytes(ByteView data);
  void write_string(std::string_view s);

  const Bytes& bytes() const noexcept { return out_; }
  /// Move the accumulated buffer out; the writer is empty afterwards.
  Bytes take() noexcept { return std::move(out_); }

 private:
  Bytes out_;
};

}  // namespace ipd
