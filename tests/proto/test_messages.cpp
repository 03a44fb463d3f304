#include "pcn/proto/messages.hpp"

#include <gtest/gtest.h>

#include "pcn/geometry/hex.hpp"
#include "pcn/stats/rng.hpp"

namespace pcn::proto {
namespace {

LocationUpdate sample_update() {
  LocationUpdate message;
  message.terminal_id = 1234;
  message.sequence = 77;
  message.cell = {42, -17};
  message.containment_radius = 5;
  return message;
}

PageRequest sample_request() {
  PageRequest message;
  message.page_id = 99;
  message.terminal_id = 1234;
  message.cycle = 2;
  message.cells = geometry::hex_ring(geometry::HexCell{3, -1}, 2);
  return message;
}

PageResponse sample_response() {
  PageResponse message;
  message.page_id = 99;
  message.terminal_id = 1234;
  message.cell = {4, -2};
  return message;
}

TEST(Messages, LocationUpdateRoundTrips) {
  const LocationUpdate original = sample_update();
  EXPECT_EQ(decode_location_update(encode(original)), original);
}

TEST(Messages, PageRequestRoundTrips) {
  const PageRequest original = sample_request();
  EXPECT_EQ(decode_page_request(encode(original)), original);
}

TEST(Messages, PageResponseRoundTrips) {
  const PageResponse original = sample_response();
  EXPECT_EQ(decode_page_response(encode(original)), original);
}

TEST(Messages, EmptyPageRequestIsLegal) {
  PageRequest message;
  message.cells.clear();
  EXPECT_EQ(decode_page_request(encode(message)), message);
}

TEST(Messages, RoundTripsUnderRandomizedContents) {
  stats::Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    LocationUpdate update;
    update.terminal_id = rng.next();
    update.sequence = rng.next();
    update.cell = {rng.next_in_range(-1000000, 1000000),
                   rng.next_in_range(-1000000, 1000000)};
    update.containment_radius =
        static_cast<std::uint32_t>(rng.next_below(1u << 31));
    EXPECT_EQ(decode_location_update(encode(update)), update);
  }
}

TEST(Messages, PeekTypeIdentifiesAllThree) {
  EXPECT_EQ(peek_type(encode(sample_update())),
            MessageType::kLocationUpdate);
  EXPECT_EQ(peek_type(encode(sample_request())), MessageType::kPageRequest);
  EXPECT_EQ(peek_type(encode(sample_response())),
            MessageType::kPageResponse);
}

TEST(Messages, CorruptionAnywhereIsDetected) {
  // Flipping any single byte must fail decode: header/type/payload changes
  // break the CRC; trailer changes mismatch the recomputed CRC.
  const std::vector<std::uint8_t> frame = encode(sample_request());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::vector<std::uint8_t> corrupted = frame;
    corrupted[i] ^= 0x40;
    EXPECT_THROW(decode_page_request(corrupted), DecodeError)
        << "byte " << i;
  }
}

TEST(Messages, TruncationIsDetected) {
  const std::vector<std::uint8_t> frame = encode(sample_update());
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    const std::vector<std::uint8_t> truncated(frame.begin(),
                                              frame.begin() +
                                                  static_cast<long>(keep));
    EXPECT_THROW(decode_location_update(truncated), DecodeError)
        << "kept " << keep;
  }
}

TEST(Messages, TrailingBytesAreDetected) {
  std::vector<std::uint8_t> frame = encode(sample_response());
  // Splice an extra payload byte before the CRC and re-seal with a valid
  // CRC so only the length check can catch it.
  std::vector<std::uint8_t> body(frame.begin(), frame.end() - 4);
  body.push_back(0x00);
  const std::uint32_t crc = crc32(body);
  body.push_back(static_cast<std::uint8_t>(crc));
  body.push_back(static_cast<std::uint8_t>(crc >> 8));
  body.push_back(static_cast<std::uint8_t>(crc >> 16));
  body.push_back(static_cast<std::uint8_t>(crc >> 24));
  EXPECT_THROW(decode_page_response(body), DecodeError);
}

TEST(Messages, WrongTypeIsRejected) {
  EXPECT_THROW(decode_page_request(encode(sample_update())), DecodeError);
  EXPECT_THROW(decode_location_update(encode(sample_response())),
               DecodeError);
}

TEST(Messages, WrongVersionIsRejected) {
  std::vector<std::uint8_t> frame = encode(sample_update());
  std::vector<std::uint8_t> body(frame.begin(), frame.end() - 4);
  body[0] = kProtocolVersion + 1;
  const std::uint32_t crc = crc32(body);
  body.push_back(static_cast<std::uint8_t>(crc));
  body.push_back(static_cast<std::uint8_t>(crc >> 8));
  body.push_back(static_cast<std::uint8_t>(crc >> 16));
  body.push_back(static_cast<std::uint8_t>(crc >> 24));
  EXPECT_THROW(decode_location_update(body), DecodeError);
  EXPECT_THROW(peek_type(body), DecodeError);
}

TEST(Messages, UnknownMessageTypeIsRejectedByPeek) {
  // Hand-build a frame with a valid CRC but a type byte outside the enum.
  std::vector<std::uint8_t> body{kProtocolVersion, 0x7f};
  const std::uint32_t crc = crc32(body);
  body.push_back(static_cast<std::uint8_t>(crc));
  body.push_back(static_cast<std::uint8_t>(crc >> 8));
  body.push_back(static_cast<std::uint8_t>(crc >> 16));
  body.push_back(static_cast<std::uint8_t>(crc >> 24));
  EXPECT_THROW(peek_type(body), DecodeError);
}

TEST(Messages, TinyFramesAreRejected) {
  EXPECT_THROW(peek_type(std::vector<std::uint8_t>{1, 2, 3}), DecodeError);
  EXPECT_THROW(decode_location_update(std::vector<std::uint8_t>{}),
               DecodeError);
}

TEST(Messages, DeltaEncodingKeepsRingFramesCompact) {
  // A full ring of 6*8 = 48 neighboring cells should cost ~2 payload bytes
  // per cell thanks to delta encoding, far below the absolute-coordinate
  // cost of distant cells.
  PageRequest ring;
  ring.cells = geometry::hex_ring(geometry::HexCell{100000, -50000}, 8);
  const std::size_t ring_size = encode(ring).size();
  EXPECT_LT(ring_size, 12 + ring.cells.size() * 3);

  PageRequest scattered;
  for (std::int64_t i = 0; i < 48; ++i) {
    scattered.cells.push_back({i * 1000003, -i * 999983});
  }
  EXPECT_GT(encode(scattered).size(), ring_size * 2);
}

TEST(Messages, EncodedSizeAgreesWithEncode) {
  EXPECT_EQ(encoded_size(sample_update()), encode(sample_update()).size());
  EXPECT_EQ(encoded_size(sample_request()), encode(sample_request()).size());
  EXPECT_EQ(encoded_size(sample_response()),
            encode(sample_response()).size());
}

// encode_into appends the very frame encode() returns, for every verdict
// kind, and that frame is the layout messages.hpp documents, built here
// field by field.
TEST(Messages, PageOutcomeEncodesIntoAnExistingBuffer) {
  for (const PageOutcomeKind kind :
       {PageOutcomeKind::kServed, PageOutcomeKind::kDropped,
        PageOutcomeKind::kExpired, PageOutcomeKind::kRejected}) {
    SCOPED_TRACE(static_cast<int>(kind));
    PageOutcome message;
    message.page_id = 300;            // two varint bytes
    message.terminal_id = 1u << 31;   // five
    message.outcome = kind;
    message.queue_delay_slots = 7;
    message.queue_depth = 129;

    WireWriter fields;
    fields.put_u8(kProtocolVersion);
    fields.put_u8(static_cast<std::uint8_t>(MessageType::kPageOutcome));
    fields.put_varint(message.page_id);
    fields.put_varint(message.terminal_id);
    fields.put_u8(static_cast<std::uint8_t>(kind));
    fields.put_varint(message.queue_delay_slots);
    fields.put_varint(message.queue_depth);
    std::vector<std::uint8_t> expected = fields.take();
    const std::uint32_t crc = crc32(expected);
    for (int shift = 0; shift < 32; shift += 8) {
      expected.push_back(static_cast<std::uint8_t>(crc >> shift));
    }
    EXPECT_EQ(encode(message), expected);
    EXPECT_EQ(encoded_size(message), expected.size());

    // Appending leaves the bytes already there alone.
    const std::vector<std::uint8_t> prefix = {0xaa, 0x00, 0xff};
    std::vector<std::uint8_t> out = prefix;
    encode_into(message, out);
    encode_into(message, out);
    std::vector<std::uint8_t> twice = prefix;
    twice.insert(twice.end(), expected.begin(), expected.end());
    twice.insert(twice.end(), expected.begin(), expected.end());
    EXPECT_EQ(out, twice);
    EXPECT_EQ(decode_page_outcome(std::span<const std::uint8_t>(out).subspan(
                  prefix.size(), expected.size())),
              message);
  }
}

TEST(Messages, FuzzedRandomBuffersNeverCrash) {
  stats::Rng rng(4);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> noise(rng.next_below(64));
    for (auto& byte : noise) {
      byte = static_cast<std::uint8_t>(rng.next_below(256));
    }
    try {
      (void)decode_location_update(noise);
      (void)decode_page_request(noise);
      (void)decode_page_response(noise);
    } catch (const DecodeError&) {
      // Expected for essentially every random buffer.
    }
  }
}

}  // namespace
}  // namespace pcn::proto
