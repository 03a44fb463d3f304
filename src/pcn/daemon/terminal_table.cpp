#include "pcn/daemon/terminal_table.hpp"

#include <algorithm>
#include <utility>

namespace pcn::daemon {

namespace {

/// MurmurHash3's 64-bit finalizer: every input bit reaches every output
/// bit, so strided or high-bit-only ids spread over the slots.
std::uint64_t mix(std::uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdull;
  key ^= key >> 33;
  key *= 0xc4ceb9fe1a85ec53ull;
  key ^= key >> 33;
  return key;
}

}  // namespace

std::pair<std::size_t, std::size_t> TerminalTable::probe_start(
    std::uint64_t key, std::size_t slots) {
  const std::uint64_t hash = mix(key);
  const std::size_t home =
      key < slots ? static_cast<std::size_t>(key)
                  : static_cast<std::size_t>(hash) & (slots - 1);
  // Odd stride over a power-of-two array: the sequence visits every slot.
  const auto stride = static_cast<std::size_t>(hash >> 32) | 1u;
  return {home, stride};
}

std::size_t TerminalTable::locate(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  auto [pos, stride] = probe_start(key, slots_.size());
  while (slots_[pos].used && slots_[pos].key != key) {
    pos = (pos + stride) & mask;
  }
  return pos;
}

const TerminalTable::Entry* TerminalTable::find_slow(std::uint64_t key) const {
  if (slots_.empty()) return nullptr;
  const Entry& entry = slots_[locate(key)];
  return entry.used ? &entry : nullptr;
}

std::pair<TerminalTable::Entry*, bool> TerminalTable::try_emplace_slow(
    std::uint64_t key) {
  std::size_t pos = 0;
  if (!slots_.empty()) {
    pos = locate(key);
    if (slots_[pos].used) return {&slots_[pos], false};
  }
  // Load factor cap 7/8.
  if ((size_ + 1) * 8 > slots_.size() * 7) {
    grow();
    pos = locate(key);
  }
  Entry& entry = slots_[pos];
  entry.key = key;
  entry.used = true;
  ++size_;
  return {&entry, true};
}

void TerminalTable::grow() {
  const std::size_t slots = std::max(kMinSlots, 2 * slots_.size());
  const std::vector<Entry> old =
      std::exchange(slots_, std::vector<Entry>(slots));
  // Keys that home at their own index go in first, so no hashed key can
  // take their place.
  for (const bool by_index : {true, false}) {
    for (const Entry& entry : old) {
      if (entry.used && (entry.key < slots) == by_index) {
        slots_[locate(entry.key)] = entry;
      }
    }
  }
}

}  // namespace pcn::daemon
