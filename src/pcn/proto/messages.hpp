// The PCN signalling messages and their frame codec.
//
// Frame layout (all integers varint/zigzag, see wire.hpp):
//
//   u8      protocol version (kProtocolVersion)
//   u8      message type (MessageType)
//   ...     type-specific payload
//   u32     CRC-32 over everything before the trailer (4 raw bytes, LE)
//
// Messages:
//   * LocationUpdate  — terminal -> network: "my cell is (q, r)"; carries a
//     sequence number (duplicate suppression on a lossy air interface) and
//     the terminal's current containment radius so dynamic per-user
//     thresholds propagate (paper §8).
//   * PageRequest     — network -> cells of one polling cycle.  Cells are
//     delta-encoded against the first cell, which keeps a ring's frame
//     near-linear in cell count with ~2 bytes/cell.
//   * PageResponse    — terminal -> network: "here I am" for a page id.
//   * PageSubmit      — client -> pcnd: "page this terminal"; the daemon
//     routes it to the terminal's center cell's bounded paging queue.
//   * PageOutcome     — pcnd -> client: terminal lifecycle verdict for a
//     submitted page (served / dropped at enqueue / expired in queue) plus
//     the observed queueing delay and queue depth.
//
// Every decoder validates version, type, CRC, and exact frame length.
#pragma once

#include <cstdint>
#include <vector>

#include "pcn/geometry/cell.hpp"
#include "pcn/proto/wire.hpp"

namespace pcn::proto {

inline constexpr std::uint8_t kProtocolVersion = 1;

enum class MessageType : std::uint8_t {
  kLocationUpdate = 1,
  kPageRequest = 2,
  kPageResponse = 3,
  kPageSubmit = 4,
  kPageOutcome = 5,
};

struct LocationUpdate {
  std::uint64_t terminal_id = 0;
  std::uint64_t sequence = 0;       ///< per-terminal update counter
  geometry::Cell cell{};            ///< reported position
  std::uint32_t containment_radius = 0;  ///< rings the network may assume

  friend bool operator==(const LocationUpdate&,
                         const LocationUpdate&) = default;
};

struct PageRequest {
  std::uint64_t page_id = 0;        ///< correlates request and response
  std::uint64_t terminal_id = 0;
  std::uint32_t cycle = 0;          ///< polling-cycle index (0-based)
  std::vector<geometry::Cell> cells;  ///< cells polled this cycle

  friend bool operator==(const PageRequest&, const PageRequest&) = default;
};

struct PageResponse {
  std::uint64_t page_id = 0;
  std::uint64_t terminal_id = 0;
  geometry::Cell cell{};            ///< where the terminal answered

  friend bool operator==(const PageResponse&, const PageResponse&) = default;
};

/// Daemon request: ask pcnd to page a terminal.  The daemon looks up the
/// terminal's center cell and enqueues the page on that cell's bounded
/// paging queue (or reports kDropped when the queue is full).
struct PageSubmit {
  std::uint64_t page_id = 0;        ///< correlates submit and outcome
  std::uint64_t terminal_id = 0;

  friend bool operator==(const PageSubmit&, const PageSubmit&) = default;
};

/// Lifecycle verdict for a submitted page.
enum class PageOutcomeKind : std::uint8_t {
  kServed = 1,    ///< drained onto the paging channel within its lifetime
  kDropped = 2,   ///< rejected (queue full, or unknown terminal)
  kExpired = 3,   ///< lifetime elapsed while still queued
  kRejected = 4,  ///< never admitted: the daemon's request ring was full
};

/// Upper bound accepted for PageOutcome::queue_depth — a daemon queue is
/// bounded far below this; anything larger is a corrupt frame.
inline constexpr std::uint32_t kMaxQueueDepth = 1u << 20;

/// Daemon response: what happened to a submitted page.
struct PageOutcome {
  std::uint64_t page_id = 0;
  std::uint64_t terminal_id = 0;
  PageOutcomeKind outcome = PageOutcomeKind::kServed;
  std::uint64_t queue_delay_slots = 0;  ///< slots spent queued before verdict
  std::uint32_t queue_depth = 0;        ///< cell queue depth at verdict time

  friend bool operator==(const PageOutcome&, const PageOutcome&) = default;
};

/// Serializes one message into a framed byte vector.
std::vector<std::uint8_t> encode(const LocationUpdate& message);
std::vector<std::uint8_t> encode(const PageRequest& message);
std::vector<std::uint8_t> encode(const PageResponse& message);
std::vector<std::uint8_t> encode(const PageSubmit& message);
std::vector<std::uint8_t> encode(const PageOutcome& message);

/// Appends one PageOutcome frame to `out` (the socket front end encodes
/// straight into a connection's outbox); encode(PageOutcome) wraps it.
void encode_into(const PageOutcome& message, std::vector<std::uint8_t>& out);

/// Peeks the message type of a framed buffer.  Checks the header only
/// (length >= 6, version, a known type), not the CRC: the type picks a
/// decoder, and every decoder verifies the CRC.
MessageType peek_type(std::span<const std::uint8_t> frame);

/// Decoders; throw DecodeError on any malformation (wrong version or type,
/// bad CRC, truncation, trailing bytes).
LocationUpdate decode_location_update(std::span<const std::uint8_t> frame);
PageRequest decode_page_request(std::span<const std::uint8_t> frame);
PageResponse decode_page_response(std::span<const std::uint8_t> frame);
PageSubmit decode_page_submit(std::span<const std::uint8_t> frame);
PageOutcome decode_page_outcome(std::span<const std::uint8_t> frame);

/// Encoded sizes without materializing the frame — used by the simulator's
/// air-interface byte accounting.
std::size_t encoded_size(const LocationUpdate& message);
std::size_t encoded_size(const PageRequest& message);
std::size_t encoded_size(const PageResponse& message);
std::size_t encoded_size(const PageSubmit& message);
std::size_t encoded_size(const PageOutcome& message);

}  // namespace pcn::proto
