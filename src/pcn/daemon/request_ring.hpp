// Lock-free bounded request ring: the in-process front door of pcnd.
//
// Producers (the socket I/O thread, load generators, test threads) push
// DaemonRequest values concurrently; the daemon drains the ring exactly
// once per slot, in the serial INGEST step, on a single thread.  The ring is the
// classic bounded MPMC sequence queue (Vyukov): each cell carries a
// sequence counter whose distance from the head/tail ticket says whether
// the cell is free, full, or in flight.  Both push and pop are a single
// CAS/fetch-add plus two relaxed-ish atomic ops — no locks, no dynamic
// allocation after construction.
//
// A full ring rejects the push (try_push returns false) instead of
// blocking: backpressure is a counted, reported event
// (daemon.request.rejected_ring_full), never a stall of the air-interface
// front end.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "pcn/common/error.hpp"
#include "pcn/proto/messages.hpp"

namespace pcn::daemon {

/// One queued request.  A tagged struct rather than a class hierarchy so
/// the ring can store requests by value: the socket front end decodes a
/// proto frame into exactly this struct, and in-process producers (tests,
/// load generators) build it directly — one request shape for both paths.
struct DaemonRequest {
  enum class Kind : std::uint8_t { kUpdate = 0, kPage = 1 };

  Kind kind = Kind::kUpdate;
  /// Socket connection that wants the PageOutcome routed back; 0 means
  /// in-process (no response frame).
  std::uint32_t client = 0;

  /// kind == kUpdate payload.
  proto::LocationUpdate update{};

  /// kind == kPage payload.
  std::uint64_t page_id = 0;
  std::uint64_t terminal_id = 0;
};

/// Bounded multi-producer ring of DaemonRequest.  Capacity is rounded up
/// to a power of two.  try_pop is safe from multiple threads too, but
/// pcnd only ever drains from one thread, in INGEST.
class RequestRing {
 public:
  explicit RequestRing(std::size_t min_capacity) {
    std::size_t capacity = 2;  // the smallest ring that can make progress
    while (capacity < min_capacity) capacity <<= 1;
    cells_ = std::vector<Cell>(capacity);
    mask_ = capacity - 1;
    for (std::size_t i = 0; i < capacity; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  RequestRing(const RequestRing&) = delete;
  RequestRing& operator=(const RequestRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Enqueues; returns false when the ring is full (request dropped by
  /// the caller, who counts it).
  bool try_push(const DaemonRequest& request) {
    std::size_t ticket = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[ticket & mask_];
      const std::size_t sequence = cell.sequence.load(std::memory_order_acquire);
      const auto delta = static_cast<std::intptr_t>(sequence) -
                         static_cast<std::intptr_t>(ticket);
      if (delta == 0) {
        if (head_.compare_exchange_weak(ticket, ticket + 1,
                                        std::memory_order_relaxed)) {
          cell.value = request;
          cell.sequence.store(ticket + 1, std::memory_order_release);
          return true;
        }
      } else if (delta < 0) {
        return false;  // lapped: the cell still holds an unconsumed value
      } else {
        ticket = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Dequeues into *out; returns false when the ring is empty.
  bool try_pop(DaemonRequest* out) {
    std::size_t ticket = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[ticket & mask_];
      const std::size_t sequence = cell.sequence.load(std::memory_order_acquire);
      const auto delta = static_cast<std::intptr_t>(sequence) -
                         static_cast<std::intptr_t>(ticket + 1);
      if (delta == 0) {
        if (tail_.compare_exchange_weak(ticket, ticket + 1,
                                        std::memory_order_relaxed)) {
          *out = cell.value;
          cell.sequence.store(ticket + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (delta < 0) {
        return false;  // empty
      } else {
        ticket = tail_.load(std::memory_order_relaxed);
      }
    }
  }

 private:
  struct Cell {
    std::atomic<std::size_t> sequence{0};
    DaemonRequest value{};
  };

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  // producer ticket
  alignas(64) std::atomic<std::size_t> tail_{0};  // consumer ticket
};

}  // namespace pcn::daemon
