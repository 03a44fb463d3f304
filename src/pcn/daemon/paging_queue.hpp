// Bounded per-cell paging queue, after the osmo-bts BTS paging model
// (see SNIPPETS.md: paging.h).  Each cell owns one queue; the daemon
// enqueues a page for a terminal whose center cell this is, and drains
// the queue against the cell's PagingCapacityModel budget each slot.
//
// The osmo-bts behaviors carried over:
//   * dedup on enqueue (`paging_add_identity` returns -EEXIST): a
//     terminal already queued is not enqueued twice — its lifetime is
//     refreshed instead, keeping its original FIFO position;
//   * backpressure (`paging_buffer_space`): the queue holds at most
//     `max_pending` pages; an enqueue beyond that is rejected — the
//     caller reports the drop, the queue never grows;
//   * paging groups: terminals hash into `groups` round-robin classes
//     (terminal_id % groups, the GSM paging-group idea), and the drain
//     rotates across non-empty groups so one chatty group cannot starve
//     the rest; within a group service is strictly FIFO;
//   * lifetime expiry (`paging_lifetime`): a page not served within
//     `lifetime_slots` of its enqueue is discarded at drain time and
//     reported as expired, never served.
//
// Storage.  One contiguous entry slab per queue holds every pending page;
// each paging group is an intrusive singly linked FIFO through the slab
// (head and tail per group, a parallel `next` index per entry), and
// freed entries go on a free list that the next add reuses.  The slab
// grows in kSlabStep-entry steps up to max_pending rounded up to the
// step — never by doubling and never preallocated to max_pending, so an
// idle or shallow cell costs a step or two, not the worst case.  (Past
// 8 steps a step is an eighth of the slab, so a queue configured
// thousands deep still grows in amortized O(1) copies.)
//
// The queue itself is single-threaded by design — pcnd partitions cells
// into fixed shards and each shard is touched by exactly one worker per
// slot, so no lock is needed here and results cannot depend on thread
// interleaving.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pcn/common/divisor.hpp"
#include "pcn/common/error.hpp"

namespace pcn::daemon {

/// What a full queue does with a new identity.
enum class AdmissionPolicy : std::uint8_t {
  /// Reject the incoming page (classic tail drop; the osmo behavior).
  kDropNewest = 0,
  /// Evict the oldest pending page — the head of the group whose head
  /// has been waiting longest — and admit the incoming one.
  kDropOldest = 1,
  /// Evict the pending page with the most remaining SLA slack (the
  /// latest deadline), provided it has at least as much slack as the
  /// incoming page; otherwise reject the incoming page.
  kPriorityDelayBound = 2,
};

inline const char* to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kDropNewest:
      return "drop_newest";
    case AdmissionPolicy::kDropOldest:
      return "drop_oldest";
    case AdmissionPolicy::kPriorityDelayBound:
      return "priority_delay_bound";
  }
  return "?";
}

struct PagingQueueConfig {
  /// Upper bound on pages pending in this cell (osmo num_paging_max).
  std::size_t max_pending = 64;
  /// Slots a page may wait before it expires unserved (osmo
  /// paging_lifetime).  A page enqueued in slot s is servable through
  /// slot s + lifetime_slots.
  std::int64_t lifetime_slots = 128;
  /// Round-robin paging groups; terminal_id % groups picks the group.
  int groups = 4;
  /// Full-queue behavior for a new identity.
  AdmissionPolicy admission = AdmissionPolicy::kDropNewest;
  /// Delay bound used to compute per-page deadlines for the priority
  /// policy.  0 means "no SLA": deadlines coincide with lifetime expiry.
  std::int64_t sla_delay_slots = 0;
};

/// One page waiting on the cell's paging channel.
struct PendingPage {
  std::uint64_t terminal_id = 0;
  std::uint64_t page_id = 0;
  std::uint32_t client = 0;        ///< outcome routing (0 = in-process)
  std::int64_t enqueued_slot = 0;
  std::int64_t expiry_slot = 0;    ///< last slot the page may be served in
  std::int64_t deadline_slot = 0;  ///< SLA deadline (priority eviction rank)
};

/// A page the drain put on the paging channel.
struct ServedPage {
  PendingPage page;
  std::int64_t served_slot = 0;
  std::size_t depth_before = 0;  ///< queue depth at serve time, incl. itself
};

enum class EnqueueResult : std::uint8_t {
  kQueued = 0,     ///< accepted; a new entry joined the queue
  kRefreshed = 1,  ///< duplicate identity; existing entry's lifetime renewed
  kFull = 2,       ///< rejected; the queue is at max_pending
  kEvicted = 3,    ///< accepted; an existing entry was evicted to make room
};

class BoundedPagingQueue {
 public:
  explicit BoundedPagingQueue(const PagingQueueConfig& config);

  const PagingQueueConfig& config() const { return config_; }

  /// Pages currently pending (including not-yet-swept expired entries).
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Remaining capacity before enqueues are rejected.
  std::size_t buffer_space() const { return config_.max_pending - size_; }

  /// Whether `terminal_id` already has a page pending.
  bool contains(std::uint64_t terminal_id) const;

  /// The paging group of `terminal_id`: terminal_id % groups.
  std::size_t group_of(std::uint64_t terminal_id) const {
    return static_cast<std::size_t>(group_divisor_.remainder(terminal_id));
  }

  /// Enqueues a page observed in slot `slot`.  A terminal already pending
  /// is deduplicated: its expiry is refreshed (and the stored page/client
  /// keep their original values and FIFO position), result kRefreshed.
  /// On a full queue the configured AdmissionPolicy decides: kDropNewest
  /// rejects (kFull); kDropOldest and kPriorityDelayBound may instead
  /// evict a pending page — the victim is copied to `*evicted` and the
  /// result is kEvicted.  `evicted` may be null only under kDropNewest.
  EnqueueResult add(const PendingPage& page, PendingPage* evicted = nullptr);

  /// Serves up to `budget` pages in slot `slot`: rotates across groups
  /// (continuing from where the previous drain stopped), FIFO within a
  /// group.  Expired entries encountered at the head of a group are moved
  /// to `expired` without consuming budget and are never served.  Served
  /// pages append to `served` with their depth-before-drain.  Returns the
  /// number of pages served.
  int drain(std::int64_t slot, int budget, std::vector<ServedPage>* served,
            std::vector<PendingPage>* expired);

  /// Entries the slab has room for (pending pages plus free entries);
  /// at most max_pending rounded up to kSlabStep.
  std::size_t slab_capacity() const { return slab_.capacity(); }

  /// Slab growth step, in entries.
  static constexpr std::size_t kSlabStep = 8;

  /// Prefetch stages for a caller that visits many queues in a row, each
  /// issued a few queues ahead of the visit once this object's own lines
  /// are cached: prefetch_links() pulls the group heads and the link
  /// array, and prefetch_entries() the slab's entry lines.  The whole
  /// slab, not just the group heads: a dedup walk, a drain and a reused
  /// free entry touch pending entries all over it.
  void prefetch_links() const {
    __builtin_prefetch(groups_.data());
    const std::size_t bytes = std::min(next_.size() * sizeof(std::uint32_t),
                                       kPrefetchLinkLines * kLineBytes);
    prefetch_lines(next_.data(), bytes);
  }
  void prefetch_entries() const {
    const std::size_t bytes = std::min(slab_.size() * sizeof(PendingPage),
                                       kPrefetchEntryLines * kLineBytes);
    prefetch_lines(slab_.data(), bytes);
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::size_t kLineBytes = 64;
  /// Lines the prefetch stages pull at most: a 64-deep queue's whole link
  /// array and 42 slab entries, the front of a deeper queue's arrays.
  static constexpr std::size_t kPrefetchLinkLines = 4;
  static constexpr std::size_t kPrefetchEntryLines = 32;

  static void prefetch_lines(const void* data, std::size_t bytes) {
    const char* first = static_cast<const char*>(data);
    for (std::size_t offset = 0; offset < bytes; offset += kLineBytes) {
      __builtin_prefetch(first + offset);
    }
  }

  /// One paging group's FIFO: slab indices of its first and last entry.
  struct GroupList {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  std::int64_t deadline_for(std::int64_t enqueued_slot) const;
  bool evict_oldest(PendingPage* evicted);
  bool evict_most_slack(std::int64_t incoming_deadline, PendingPage* evicted);
  /// Appends `page` to the tail of `group`, in a free or new slab entry.
  void push_back(GroupList& group, const PendingPage& page);
  /// Unlinks `index` (whose predecessor in `group` is `prev`, kNil for
  /// the head) and returns the entry to the free list.
  void unlink(GroupList& group, std::uint32_t prev, std::uint32_t index);
  /// Moves expired entries off the head of `group` into `expired`.
  void pop_expired_heads(GroupList& group, std::int64_t slot,
                         std::vector<PendingPage>* expired);

  GroupList& group_for(std::uint64_t terminal_id) {
    return groups_[group_of(terminal_id)];
  }

  PagingQueueConfig config_;
  std::vector<PendingPage> slab_;
  std::vector<std::uint32_t> next_;  ///< [entry] next in group or free list
  std::vector<GroupList> groups_;
  Divisor group_divisor_;            ///< divides by config_.groups
  std::uint32_t free_ = kNil;        ///< head of the free-entry list
  std::size_t slab_limit_ = 0;       ///< max_pending rounded up to the step
  std::size_t size_ = 0;
  int next_group_ = 0;  ///< where the next drain starts its rotation
};

}  // namespace pcn::daemon
