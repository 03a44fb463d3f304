// Bounds-checked wire primitives for the PCN signalling protocol.
//
// The air interface carries three message families (location updates, page
// requests, page responses).  This module provides the byte-level codec
// they share:
//   * LEB128 varints for unsigned integers (small ids stay small),
//   * zigzag-mapped varints for signed cell coordinates,
//   * a CRC-32 (IEEE 802.3, reflected) trailer for frame integrity.
// The reader never reads past its buffer and reports malformed input via
// DecodeError (a pcn::InvalidArgument), so a corrupted or truncated frame
// can never crash the stack.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pcn/common/error.hpp"

namespace pcn::proto {

/// Thrown when decoding malformed, truncated or corrupted frames.
class DecodeError : public InvalidArgument {
 public:
  using InvalidArgument::InvalidArgument;
};

/// Appends wire primitives to a byte buffer.
class WireWriter {
 public:
  WireWriter() = default;
  /// Appends after `buffer`'s bytes; take() hands the whole buffer back.
  explicit WireWriter(std::vector<std::uint8_t> buffer)
      : buffer_(std::move(buffer)) {}

  void put_u8(std::uint8_t value);

  /// LEB128 varint (1-10 bytes).
  void put_varint(std::uint64_t value);

  /// Zigzag-mapped varint for signed values.
  void put_signed(std::int64_t value);

  /// Varint length prefix + raw bytes.
  void put_bytes(std::span<const std::uint8_t> bytes);

  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Consumes wire primitives from a byte view; throws DecodeError on
/// truncation or malformed varints.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> bytes);

  std::uint8_t get_u8();
  std::uint64_t get_varint();
  std::int64_t get_signed();
  std::vector<std::uint8_t> get_bytes();

  std::size_t remaining() const { return bytes_.size() - offset_; }
  bool exhausted() const { return remaining() == 0; }

  /// Fails unless every byte has been consumed (catches trailing garbage).
  void expect_exhausted() const;

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

/// Zigzag mapping n -> 2n (n >= 0), -n -> 2n - 1.
std::uint64_t zigzag_encode(std::int64_t value);
std::int64_t zigzag_decode(std::uint64_t value);

/// CRC-32 (IEEE), as used by the frame trailer.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

}  // namespace pcn::proto
