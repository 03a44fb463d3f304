// TerminalTable — one pcnd terminal shard's center-cell database.
//
// The paper's location server keeps, per terminal, the center cell of its
// last update; pcnd writes it on every LocationUpdate and reads it on
// every PageSubmit.  This is a flat open-addressing table over one
// allocation of fixed-size slots, keyed by the shard-local key
// terminal_id / terminal_shards (the shard is terminal_id mod the same
// count, so the pair recovers the id).
//
// Layout.  A key below the slot count has its own index as home slot, so
// the dense ids 0..N-1 every workload uses land in the array in id order
// and a lookup is one slot read.  Any other key homes at a mixed hash of
// itself.  A key whose home is taken probes by double hashing — an odd,
// key-derived stride over the power-of-two slot array, which visits every
// slot — so a run of dense keys never forms a cluster that sparse keys
// must walk: each probe hits an occupied slot with probability at most
// the load factor, capped at 7/8, and a lookup takes O(1) expected probes
// for dense, sparse and adversarially strided ids alike (the mixer is
// fixed, not keyed).  Growing doubles the array and re-inserts keys that
// now fall below the slot count first, so after a rehash every such key
// sits at its home again.
//
// Memory is O(entries): the slot count is at most 16 or 2 / (7/8) times
// the entry count, and no key's value sizes anything — a lone terminal
// at id 2^63 costs one 16-slot array.  Terminals are never erased, which
// is what lets any probe sequence work without tombstones.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "pcn/geometry/cell.hpp"

namespace pcn::daemon {

class TerminalTable {
 public:
  /// One terminal's stored state: the center cell of its latest accepted
  /// update, that update's sequence number and containment radius.
  struct Entry {
    std::uint64_t key = 0;
    geometry::Cell center{};
    std::uint64_t sequence = 0;
    std::uint32_t radius = 0;
    bool used = false;
  };

  /// The entry for `key`, zero-initialized and inserted when absent;
  /// `second` is true when it was inserted.  The pointer is valid until
  /// the next insertion.
  std::pair<Entry*, bool> try_emplace(std::uint64_t key) {
    if (key < slots_.size()) {
      Entry& home = slots_[key];
      if (home.used && home.key == key) return {&home, false};
    }
    return try_emplace_slow(key);
  }

  /// The entry for `key`, or nullptr.
  const Entry* find(std::uint64_t key) const {
    if (key < slots_.size()) {
      const Entry& home = slots_[key];
      if (home.used && home.key == key) return &home;
      // Nothing is erased: had the key been inserted, its still-empty
      // home would hold it.
      if (!home.used) return nullptr;
    }
    return find_slow(key);
  }

  std::size_t size() const { return size_; }
  /// Slots allocated (0 until the first insertion).
  std::size_t capacity() const { return slots_.size(); }

 private:
  static constexpr std::size_t kMinSlots = 16;

  /// First probe position and odd stride of `key` in a table of `slots`.
  static std::pair<std::size_t, std::size_t> probe_start(std::uint64_t key,
                                                        std::size_t slots);

  std::pair<Entry*, bool> try_emplace_slow(std::uint64_t key);
  const Entry* find_slow(std::uint64_t key) const;
  /// Slot index holding `key`, or of the first free slot on its probe
  /// sequence.  The table must have a free slot.
  std::size_t locate(std::uint64_t key) const;
  void grow();

  std::vector<Entry> slots_;
  std::size_t size_ = 0;
};

}  // namespace pcn::daemon
