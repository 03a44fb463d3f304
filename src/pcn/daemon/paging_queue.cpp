#include "pcn/daemon/paging_queue.hpp"

#include <algorithm>

namespace pcn::daemon {

BoundedPagingQueue::BoundedPagingQueue(const PagingQueueConfig& config)
    : config_(config) {
  PCN_EXPECT(config_.max_pending >= 1,
             "BoundedPagingQueue: max_pending must be >= 1");
  PCN_EXPECT(config_.lifetime_slots >= 0,
             "BoundedPagingQueue: lifetime_slots must be >= 0");
  PCN_EXPECT(config_.groups >= 1, "BoundedPagingQueue: groups must be >= 1");
  groups_.resize(static_cast<std::size_t>(config_.groups));
  group_divisor_ = Divisor(static_cast<std::uint64_t>(config_.groups));
  const std::size_t spill = config_.max_pending % kSlabStep;
  slab_limit_ = spill == 0 || config_.max_pending > SIZE_MAX - kSlabStep
                    ? config_.max_pending
                    : config_.max_pending + (kSlabStep - spill);
}

bool BoundedPagingQueue::contains(std::uint64_t terminal_id) const {
  const GroupList& group = groups_[group_of(terminal_id)];
  for (std::uint32_t i = group.head; i != kNil; i = next_[i]) {
    if (slab_[i].terminal_id == terminal_id) return true;
  }
  return false;
}

void BoundedPagingQueue::push_back(GroupList& group, const PendingPage& page) {
  std::uint32_t index = free_;
  if (index != kNil) {
    free_ = next_[index];
    slab_[index] = page;
  } else {
    if (slab_.size() == slab_.capacity()) {
      // Small steps, never doubling (see the header).  The free list is
      // empty here, so every entry is pending and size_ < max_pending
      // <= slab_limit_: the target always exceeds the capacity.
      const std::size_t step =
          std::max(kSlabStep, slab_.capacity() / (8 * kSlabStep) * kSlabStep);
      const std::size_t target =
          slab_.capacity() + std::min(step, slab_limit_ - slab_.capacity());
      slab_.reserve(target);
      next_.reserve(target);
    }
    index = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(page);
    next_.push_back(kNil);
  }
  next_[index] = kNil;
  if (group.tail == kNil) {
    group.head = index;
  } else {
    next_[group.tail] = index;
  }
  group.tail = index;
  ++size_;
}

void BoundedPagingQueue::unlink(GroupList& group, std::uint32_t prev,
                                std::uint32_t index) {
  const std::uint32_t after = next_[index];
  if (prev == kNil) {
    group.head = after;
  } else {
    next_[prev] = after;
  }
  if (group.tail == index) group.tail = prev;
  next_[index] = free_;
  free_ = index;
  --size_;
}

std::int64_t BoundedPagingQueue::deadline_for(std::int64_t enqueued_slot) const {
  // With no SLA configured the deadline collapses onto lifetime expiry:
  // "slack" then means "slots until the page is discarded anyway".
  const std::int64_t bound = config_.sla_delay_slots > 0
                                 ? config_.sla_delay_slots
                                 : config_.lifetime_slots;
  return enqueued_slot + bound;
}

bool BoundedPagingQueue::evict_oldest(PendingPage* evicted) {
  // The victim group is the one whose *head* has waited longest; evicting
  // a head (never a middle entry) keeps FIFO-within-group intact for the
  // survivors.  Ties break toward the lowest group index so the choice is
  // a pure function of queue contents.
  GroupList* victim = nullptr;
  for (GroupList& group : groups_) {
    if (group.head == kNil) continue;
    if (victim == nullptr || slab_[group.head].enqueued_slot <
                                 slab_[victim->head].enqueued_slot) {
      victim = &group;
    }
  }
  if (victim == nullptr) return false;
  *evicted = slab_[victim->head];
  unlink(*victim, kNil, victim->head);
  return true;
}

bool BoundedPagingQueue::evict_most_slack(std::int64_t incoming_deadline,
                                          PendingPage* evicted) {
  // The victim is the pending page with the latest deadline (most SLA
  // slack).  Groups are scanned in index order, each head to tail, and
  // ties break toward the latest-scanned entry, so among equal deadlines
  // the most recently enqueued page gives way to the older ones already
  // close to service.  A victim with *less* slack than the incoming page
  // would invert the priority, so then nobody is evicted.
  GroupList* victim_group = nullptr;
  std::uint32_t victim = kNil;
  std::uint32_t victim_prev = kNil;
  std::int64_t victim_deadline = 0;
  for (GroupList& group : groups_) {
    std::uint32_t prev = kNil;
    for (std::uint32_t i = group.head; i != kNil; prev = i, i = next_[i]) {
      if (victim_group == nullptr ||
          slab_[i].deadline_slot >= victim_deadline) {
        victim_group = &group;
        victim = i;
        victim_prev = prev;
        victim_deadline = slab_[i].deadline_slot;
      }
    }
  }
  if (victim_group == nullptr || victim_deadline < incoming_deadline) {
    return false;
  }
  *evicted = slab_[victim];
  unlink(*victim_group, victim_prev, victim);
  return true;
}

EnqueueResult BoundedPagingQueue::add(const PendingPage& page,
                                      PendingPage* evicted) {
  GroupList& group = group_for(page.terminal_id);
  // Dedup before the capacity check (osmo paging_add_identity): a refresh
  // of an already-pending terminal must succeed even on a full queue.
  for (std::uint32_t i = group.head; i != kNil; i = next_[i]) {
    PendingPage& pending = slab_[i];
    if (pending.terminal_id == page.terminal_id) {
      pending.expiry_slot =
          std::max(pending.expiry_slot,
                   page.enqueued_slot + config_.lifetime_slots);
      pending.deadline_slot =
          std::max(pending.deadline_slot, deadline_for(page.enqueued_slot));
      return EnqueueResult::kRefreshed;
    }
  }
  PendingPage accepted = page;
  accepted.expiry_slot = page.enqueued_slot + config_.lifetime_slots;
  accepted.deadline_slot = deadline_for(page.enqueued_slot);
  EnqueueResult result = EnqueueResult::kQueued;
  if (size_ >= config_.max_pending) {
    switch (config_.admission) {
      case AdmissionPolicy::kDropNewest:
        return EnqueueResult::kFull;
      case AdmissionPolicy::kDropOldest:
        PCN_EXPECT(evicted != nullptr,
                   "BoundedPagingQueue: eviction policy needs an out-param");
        if (!evict_oldest(evicted)) return EnqueueResult::kFull;
        result = EnqueueResult::kEvicted;
        break;
      case AdmissionPolicy::kPriorityDelayBound:
        PCN_EXPECT(evicted != nullptr,
                   "BoundedPagingQueue: eviction policy needs an out-param");
        if (!evict_most_slack(accepted.deadline_slot, evicted)) {
          return EnqueueResult::kFull;
        }
        result = EnqueueResult::kEvicted;
        break;
    }
  }
  push_back(group, accepted);
  return result;
}

void BoundedPagingQueue::pop_expired_heads(GroupList& group, std::int64_t slot,
                                           std::vector<PendingPage>* expired) {
  while (group.head != kNil && slab_[group.head].expiry_slot < slot) {
    expired->push_back(slab_[group.head]);
    unlink(group, kNil, group.head);
  }
}

int BoundedPagingQueue::drain(std::int64_t slot, int budget,
                              std::vector<ServedPage>* served,
                              std::vector<PendingPage>* expired) {
  PCN_EXPECT(budget >= 0, "BoundedPagingQueue: budget must be >= 0");
  // Expiry is a property of the slot, not of the budget: sweep the group
  // heads first so expired pages surface even when the channel has no
  // credit this slot.  (An expired entry stuck behind an unexpired head
  // is swept when it reaches the head — the serve path re-checks expiry,
  // so it can never be served.)
  for (GroupList& group : groups_) {
    pop_expired_heads(group, slot, expired);
  }
  int served_count = 0;
  int g = next_group_;
  while (served_count < budget && size_ > 0) {
    GroupList& group = groups_[static_cast<std::size_t>(g)];
    pop_expired_heads(group, slot, expired);
    if (group.head != kNil) {
      ServedPage entry;
      entry.page = slab_[group.head];
      entry.served_slot = slot;
      entry.depth_before = size_;
      unlink(group, kNil, group.head);
      served->push_back(entry);
      ++served_count;
    }
    g = g + 1 == config_.groups ? 0 : g + 1;
  }
  if (budget > 0) next_group_ = g;
  return served_count;
}

}  // namespace pcn::daemon
