#include "pcn/proto/messages.hpp"

namespace pcn::proto {
namespace {

void put_header(WireWriter& writer, MessageType type) {
  writer.put_u8(kProtocolVersion);
  writer.put_u8(static_cast<std::uint8_t>(type));
}

/// Appends the CRC-32 trailer of the frame that starts at frame[start].
void append_crc(std::vector<std::uint8_t>& frame, std::size_t start) {
  const std::uint32_t crc =
      crc32(std::span<const std::uint8_t>(frame).subspan(start));
  frame.push_back(static_cast<std::uint8_t>(crc));
  frame.push_back(static_cast<std::uint8_t>(crc >> 8));
  frame.push_back(static_cast<std::uint8_t>(crc >> 16));
  frame.push_back(static_cast<std::uint8_t>(crc >> 24));
}

std::vector<std::uint8_t> seal(WireWriter writer) {
  std::vector<std::uint8_t> frame = writer.take();
  append_crc(frame, 0);
  return frame;
}

/// Verifies the CRC trailer, then peek_type's header checks and the
/// expected type; returns a reader positioned at the payload.
WireReader open_frame(std::span<const std::uint8_t> frame,
                      MessageType expected) {
  if (frame.size() < 6) {  // version + type + 4-byte CRC minimum
    throw DecodeError("frame: too short");
  }
  const std::span<const std::uint8_t> body = frame.subspan(0, frame.size() - 4);
  const std::span<const std::uint8_t> trailer = frame.subspan(frame.size() - 4);
  const std::uint32_t stored = static_cast<std::uint32_t>(trailer[0]) |
                               static_cast<std::uint32_t>(trailer[1]) << 8 |
                               static_cast<std::uint32_t>(trailer[2]) << 16 |
                               static_cast<std::uint32_t>(trailer[3]) << 24;
  if (crc32(body) != stored) {
    throw DecodeError("frame: CRC mismatch");
  }
  if (peek_type(frame) != expected) {
    throw DecodeError("frame: unexpected message type");
  }
  return WireReader(body.subspan(2));
}

void put_cell(WireWriter& writer, geometry::Cell cell) {
  writer.put_signed(cell.q);
  writer.put_signed(cell.r);
}

geometry::Cell get_cell(WireReader& reader) {
  geometry::Cell cell;
  cell.q = reader.get_signed();
  cell.r = reader.get_signed();
  return cell;
}

}  // namespace

std::vector<std::uint8_t> encode(const LocationUpdate& message) {
  WireWriter writer;
  put_header(writer, MessageType::kLocationUpdate);
  writer.put_varint(message.terminal_id);
  writer.put_varint(message.sequence);
  put_cell(writer, message.cell);
  writer.put_varint(message.containment_radius);
  return seal(std::move(writer));
}

std::vector<std::uint8_t> encode(const PageRequest& message) {
  WireWriter writer;
  put_header(writer, MessageType::kPageRequest);
  writer.put_varint(message.page_id);
  writer.put_varint(message.terminal_id);
  writer.put_varint(message.cycle);
  writer.put_varint(message.cells.size());
  // Delta-encode against the previous cell: consecutive ring cells are
  // neighbors, so deltas are almost always in {-1, 0, 1}.
  geometry::Cell previous{};
  for (const geometry::Cell& cell : message.cells) {
    writer.put_signed(cell.q - previous.q);
    writer.put_signed(cell.r - previous.r);
    previous = cell;
  }
  return seal(std::move(writer));
}

std::vector<std::uint8_t> encode(const PageResponse& message) {
  WireWriter writer;
  put_header(writer, MessageType::kPageResponse);
  writer.put_varint(message.page_id);
  writer.put_varint(message.terminal_id);
  put_cell(writer, message.cell);
  return seal(std::move(writer));
}

std::vector<std::uint8_t> encode(const PageSubmit& message) {
  WireWriter writer;
  put_header(writer, MessageType::kPageSubmit);
  writer.put_varint(message.page_id);
  writer.put_varint(message.terminal_id);
  return seal(std::move(writer));
}

std::vector<std::uint8_t> encode(const PageOutcome& message) {
  std::vector<std::uint8_t> frame;
  encode_into(message, frame);
  return frame;
}

void encode_into(const PageOutcome& message, std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  WireWriter writer(std::move(out));
  put_header(writer, MessageType::kPageOutcome);
  writer.put_varint(message.page_id);
  writer.put_varint(message.terminal_id);
  writer.put_u8(static_cast<std::uint8_t>(message.outcome));
  writer.put_varint(message.queue_delay_slots);
  writer.put_varint(message.queue_depth);
  out = writer.take();
  append_crc(out, start);
}

MessageType peek_type(std::span<const std::uint8_t> frame) {
  if (frame.size() < 6) {
    throw DecodeError("frame: too short");
  }
  if (frame[0] != kProtocolVersion) {
    throw DecodeError("frame: unsupported protocol version");
  }
  const auto type = static_cast<MessageType>(frame[1]);
  switch (type) {
    case MessageType::kLocationUpdate:
    case MessageType::kPageRequest:
    case MessageType::kPageResponse:
    case MessageType::kPageSubmit:
    case MessageType::kPageOutcome:
      return type;
  }
  throw DecodeError("frame: unknown message type");
}

LocationUpdate decode_location_update(std::span<const std::uint8_t> frame) {
  WireReader reader = open_frame(frame, MessageType::kLocationUpdate);
  LocationUpdate message;
  message.terminal_id = reader.get_varint();
  message.sequence = reader.get_varint();
  message.cell = get_cell(reader);
  const std::uint64_t radius = reader.get_varint();
  if (radius > 0xffffffffu) {
    throw DecodeError("location update: containment radius out of range");
  }
  message.containment_radius = static_cast<std::uint32_t>(radius);
  reader.expect_exhausted();
  return message;
}

PageRequest decode_page_request(std::span<const std::uint8_t> frame) {
  WireReader reader = open_frame(frame, MessageType::kPageRequest);
  PageRequest message;
  message.page_id = reader.get_varint();
  message.terminal_id = reader.get_varint();
  const std::uint64_t cycle = reader.get_varint();
  if (cycle > 0xffffffffu) {
    throw DecodeError("page request: cycle out of range");
  }
  message.cycle = static_cast<std::uint32_t>(cycle);
  const std::uint64_t count = reader.get_varint();
  // Each cell needs at least 2 payload bytes; reject absurd counts before
  // allocating.
  if (count > reader.remaining()) {
    throw DecodeError("page request: cell count exceeds frame size");
  }
  message.cells.reserve(static_cast<std::size_t>(count));
  geometry::Cell previous{};
  for (std::uint64_t i = 0; i < count; ++i) {
    previous.q += reader.get_signed();
    previous.r += reader.get_signed();
    message.cells.push_back(previous);
  }
  reader.expect_exhausted();
  return message;
}

PageResponse decode_page_response(std::span<const std::uint8_t> frame) {
  WireReader reader = open_frame(frame, MessageType::kPageResponse);
  PageResponse message;
  message.page_id = reader.get_varint();
  message.terminal_id = reader.get_varint();
  message.cell = get_cell(reader);
  reader.expect_exhausted();
  return message;
}

PageSubmit decode_page_submit(std::span<const std::uint8_t> frame) {
  WireReader reader = open_frame(frame, MessageType::kPageSubmit);
  PageSubmit message;
  message.page_id = reader.get_varint();
  message.terminal_id = reader.get_varint();
  reader.expect_exhausted();
  return message;
}

PageOutcome decode_page_outcome(std::span<const std::uint8_t> frame) {
  WireReader reader = open_frame(frame, MessageType::kPageOutcome);
  PageOutcome message;
  message.page_id = reader.get_varint();
  message.terminal_id = reader.get_varint();
  const std::uint8_t outcome = reader.get_u8();
  if (outcome < static_cast<std::uint8_t>(PageOutcomeKind::kServed) ||
      outcome > static_cast<std::uint8_t>(PageOutcomeKind::kRejected)) {
    throw DecodeError("page outcome: unknown outcome kind");
  }
  message.outcome = static_cast<PageOutcomeKind>(outcome);
  message.queue_delay_slots = reader.get_varint();
  const std::uint64_t depth = reader.get_varint();
  if (depth > kMaxQueueDepth) {
    throw DecodeError("page outcome: queue depth out of range");
  }
  message.queue_depth = static_cast<std::uint32_t>(depth);
  reader.expect_exhausted();
  return message;
}

std::size_t encoded_size(const LocationUpdate& message) {
  return encode(message).size();
}

std::size_t encoded_size(const PageRequest& message) {
  return encode(message).size();
}

std::size_t encoded_size(const PageResponse& message) {
  return encode(message).size();
}

std::size_t encoded_size(const PageSubmit& message) {
  return encode(message).size();
}

std::size_t encoded_size(const PageOutcome& message) {
  return encode(message).size();
}

}  // namespace pcn::proto
