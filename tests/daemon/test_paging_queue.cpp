#include "pcn/daemon/paging_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace pcn::daemon {
namespace {

PendingPage page_for(std::uint64_t terminal, std::uint64_t page_id,
                     std::int64_t slot) {
  PendingPage page;
  page.terminal_id = terminal;
  page.page_id = page_id;
  page.enqueued_slot = slot;
  return page;
}

PagingQueueConfig single_group(std::size_t max_pending,
                               std::int64_t lifetime) {
  PagingQueueConfig config;
  config.max_pending = max_pending;
  config.lifetime_slots = lifetime;
  config.groups = 1;
  return config;
}

TEST(BoundedPagingQueue, ServesFifoWithinOneGroup) {
  BoundedPagingQueue queue(single_group(8, 16));
  EXPECT_EQ(queue.add(page_for(1, 10, 0)), EnqueueResult::kQueued);
  EXPECT_EQ(queue.add(page_for(2, 11, 0)), EnqueueResult::kQueued);
  EXPECT_EQ(queue.add(page_for(3, 12, 0)), EnqueueResult::kQueued);

  std::vector<ServedPage> served;
  std::vector<PendingPage> expired;
  EXPECT_EQ(queue.drain(1, 2, &served, &expired), 2);
  ASSERT_EQ(served.size(), 2u);
  EXPECT_EQ(served[0].page.page_id, 10u);
  EXPECT_EQ(served[1].page.page_id, 11u);
  EXPECT_EQ(served[0].served_slot, 1);
  EXPECT_TRUE(expired.empty());
  EXPECT_EQ(queue.size(), 1u);

  EXPECT_EQ(queue.drain(2, 4, &served, &expired), 1);
  EXPECT_EQ(served.back().page.page_id, 12u);
  EXPECT_TRUE(queue.empty());
}

TEST(BoundedPagingQueue, DepthBeforeCountsTheServedPageItself) {
  BoundedPagingQueue queue(single_group(8, 16));
  queue.add(page_for(1, 1, 0));
  queue.add(page_for(2, 2, 0));
  std::vector<ServedPage> served;
  std::vector<PendingPage> expired;
  queue.drain(0, 2, &served, &expired);
  ASSERT_EQ(served.size(), 2u);
  EXPECT_EQ(served[0].depth_before, 2u);
  EXPECT_EQ(served[1].depth_before, 1u);
}

TEST(BoundedPagingQueue, DuplicateIdentityRefreshesInPlace) {
  BoundedPagingQueue queue(single_group(8, 4));
  queue.add(page_for(1, 10, 0));
  queue.add(page_for(2, 11, 3));
  EXPECT_EQ(queue.size(), 2u);

  // Re-paging terminal 1 later refreshes its lifetime but keeps the
  // original page id and FIFO position.
  EXPECT_EQ(queue.add(page_for(1, 99, 3)), EnqueueResult::kRefreshed);
  EXPECT_EQ(queue.size(), 2u);

  std::vector<ServedPage> served;
  std::vector<PendingPage> expired;
  // Slot 6 is past the original expiry (0 + 4) but within the refreshed
  // one (3 + 4): the entry must still be servable, and first in line.
  queue.drain(6, 2, &served, &expired);
  ASSERT_EQ(served.size(), 2u);
  EXPECT_TRUE(expired.empty());
  EXPECT_EQ(served[0].page.terminal_id, 1u);
  EXPECT_EQ(served[0].page.page_id, 10u);  // original, not 99
}

TEST(BoundedPagingQueue, FullQueueRejectsNewButRefreshesPending) {
  BoundedPagingQueue queue(single_group(2, 16));
  EXPECT_EQ(queue.add(page_for(1, 1, 0)), EnqueueResult::kQueued);
  EXPECT_EQ(queue.add(page_for(2, 2, 0)), EnqueueResult::kQueued);
  EXPECT_EQ(queue.buffer_space(), 0u);

  EXPECT_EQ(queue.add(page_for(3, 3, 0)), EnqueueResult::kFull);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_FALSE(queue.contains(3));

  // osmo semantics: dedup applies before the capacity check, so an
  // already-pending terminal refreshes even when the queue is full.
  EXPECT_EQ(queue.add(page_for(1, 4, 1)), EnqueueResult::kRefreshed);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BoundedPagingQueue, ExpiredPagesAreSweptNeverServed) {
  BoundedPagingQueue queue(single_group(8, 2));
  queue.add(page_for(1, 1, 0));  // servable through slot 2
  queue.add(page_for(2, 2, 0));

  std::vector<ServedPage> served;
  std::vector<PendingPage> expired;
  // Slot 3: both entries are past their lifetime.  The sweep reports
  // them as expired without consuming the budget.
  EXPECT_EQ(queue.drain(3, 5, &served, &expired), 0);
  EXPECT_TRUE(served.empty());
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].page_id, 1u);
  EXPECT_EQ(expired[1].page_id, 2u);
  EXPECT_TRUE(queue.empty());
}

TEST(BoundedPagingQueue, ExpiryBoundaryIsInclusive) {
  BoundedPagingQueue queue(single_group(8, 2));
  queue.add(page_for(1, 1, 0));
  std::vector<ServedPage> served;
  std::vector<PendingPage> expired;
  // enqueued_slot + lifetime = 2: still servable in exactly slot 2.
  EXPECT_EQ(queue.drain(2, 1, &served, &expired), 1);
  EXPECT_TRUE(expired.empty());
}

TEST(BoundedPagingQueue, RoundRobinRotatesAcrossGroups) {
  PagingQueueConfig config;
  config.max_pending = 16;
  config.lifetime_slots = 32;
  config.groups = 2;
  BoundedPagingQueue queue(config);
  // Terminals 0/2 land in group 0, 1/3 in group 1.
  queue.add(page_for(0, 10, 0));
  queue.add(page_for(2, 11, 0));
  queue.add(page_for(1, 20, 0));
  queue.add(page_for(3, 21, 0));

  std::vector<ServedPage> served;
  std::vector<PendingPage> expired;
  queue.drain(0, 4, &served, &expired);
  ASSERT_EQ(served.size(), 4u);
  // Alternating groups, FIFO within each.
  EXPECT_EQ(served[0].page.page_id, 10u);
  EXPECT_EQ(served[1].page.page_id, 20u);
  EXPECT_EQ(served[2].page.page_id, 11u);
  EXPECT_EQ(served[3].page.page_id, 21u);
}

TEST(BoundedPagingQueue, RotationResumesWhereTheLastDrainStopped) {
  PagingQueueConfig config;
  config.max_pending = 16;
  config.lifetime_slots = 32;
  config.groups = 2;
  BoundedPagingQueue queue(config);
  queue.add(page_for(0, 10, 0));  // group 0
  queue.add(page_for(1, 20, 0));  // group 1
  queue.add(page_for(3, 21, 0));  // group 1

  std::vector<ServedPage> served;
  std::vector<PendingPage> expired;
  queue.drain(0, 1, &served, &expired);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].page.page_id, 10u);

  // The next drain starts with group 1 — group 0 being empty now must
  // not matter, and one chatty group cannot be starved.
  served.clear();
  queue.drain(1, 1, &served, &expired);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].page.page_id, 20u);
}

TEST(BoundedPagingQueue, BudgetZeroServesNothingButStillSweeps) {
  BoundedPagingQueue queue(single_group(8, 1));
  queue.add(page_for(1, 1, 0));
  std::vector<ServedPage> served;
  std::vector<PendingPage> expired;
  EXPECT_EQ(queue.drain(5, 0, &served, &expired), 0);
  EXPECT_TRUE(served.empty());
  EXPECT_EQ(expired.size(), 1u);
  EXPECT_TRUE(queue.empty());
}

TEST(BoundedPagingQueue, DropOldestEvictsTheLongestWaitingHead) {
  PagingQueueConfig config;
  config.max_pending = 3;
  config.lifetime_slots = 32;
  config.groups = 2;
  config.admission = AdmissionPolicy::kDropOldest;
  BoundedPagingQueue queue(config);
  queue.add(page_for(1, 10, 0));  // group 1, oldest
  queue.add(page_for(2, 11, 1));  // group 0
  queue.add(page_for(3, 12, 2));  // group 1

  PendingPage evicted;
  EXPECT_EQ(queue.add(page_for(4, 13, 3), &evicted), EnqueueResult::kEvicted);
  EXPECT_EQ(evicted.terminal_id, 1u);  // slot-0 head, the oldest
  EXPECT_EQ(evicted.page_id, 10u);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_FALSE(queue.contains(1));
  EXPECT_TRUE(queue.contains(4));

  // Survivors keep FIFO order within their groups.
  std::vector<ServedPage> served;
  std::vector<PendingPage> expired;
  queue.drain(3, 3, &served, &expired);
  ASSERT_EQ(served.size(), 3u);
  EXPECT_EQ(served[0].page.page_id, 11u);  // group 0 head
  EXPECT_EQ(served[1].page.page_id, 12u);  // group 1: 12 before 13
  EXPECT_EQ(served[2].page.page_id, 13u);
}

TEST(BoundedPagingQueue, DropOldestTieBreaksTowardLowestGroup) {
  PagingQueueConfig config;
  config.max_pending = 2;
  config.lifetime_slots = 32;
  config.groups = 2;
  config.admission = AdmissionPolicy::kDropOldest;
  BoundedPagingQueue queue(config);
  queue.add(page_for(1, 10, 0));  // group 1
  queue.add(page_for(2, 11, 0));  // group 0, same slot
  PendingPage evicted;
  EXPECT_EQ(queue.add(page_for(3, 12, 1), &evicted), EnqueueResult::kEvicted);
  EXPECT_EQ(evicted.terminal_id, 2u);  // group 0 wins the tie
}

TEST(BoundedPagingQueue, DropOldestStillRefreshesDuplicatesOnFullQueue) {
  PagingQueueConfig config;
  config.max_pending = 2;
  config.lifetime_slots = 4;
  config.groups = 1;
  config.admission = AdmissionPolicy::kDropOldest;
  BoundedPagingQueue queue(config);
  queue.add(page_for(1, 1, 0));
  queue.add(page_for(2, 2, 0));
  PendingPage evicted;
  EXPECT_EQ(queue.add(page_for(1, 9, 3), &evicted), EnqueueResult::kRefreshed);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BoundedPagingQueue, PriorityEvictsTheMostSlackAndKeepsUrgentPages) {
  PagingQueueConfig config;
  config.max_pending = 2;
  config.lifetime_slots = 32;
  config.groups = 1;
  config.admission = AdmissionPolicy::kPriorityDelayBound;
  config.sla_delay_slots = 8;
  BoundedPagingQueue queue(config);
  queue.add(page_for(1, 1, 0));  // deadline 8
  queue.add(page_for(2, 2, 5));  // deadline 13 — the most slack

  PendingPage evicted;
  // Incoming at slot 7 has deadline 15; the best victim (13) has *less*
  // slack, so evicting it would invert the priority: reject instead.
  EXPECT_EQ(queue.add(page_for(3, 3, 7), &evicted), EnqueueResult::kFull);
  EXPECT_EQ(queue.size(), 2u);

  // Incoming at slot 5 has deadline 13; victim deadline 13 >= 13, so the
  // most recently enqueued of the equals (terminal 2) gives way.
  EXPECT_EQ(queue.add(page_for(4, 4, 5), &evicted), EnqueueResult::kEvicted);
  EXPECT_EQ(evicted.terminal_id, 2u);
  EXPECT_TRUE(queue.contains(1));  // the urgent page survived
  EXPECT_TRUE(queue.contains(4));
}

TEST(BoundedPagingQueue, PriorityDeadlineFallsBackToLifetimeWithoutSla) {
  PagingQueueConfig config;
  config.max_pending = 1;
  config.lifetime_slots = 16;
  config.groups = 1;
  config.admission = AdmissionPolicy::kPriorityDelayBound;
  config.sla_delay_slots = 0;  // deadlines coincide with expiry
  BoundedPagingQueue queue(config);
  queue.add(page_for(1, 1, 0));  // deadline 16
  PendingPage evicted;
  EXPECT_EQ(queue.add(page_for(2, 2, 0), &evicted), EnqueueResult::kEvicted);
  EXPECT_EQ(evicted.terminal_id, 1u);
}

TEST(BoundedPagingQueue, DropNewestNeedsNoEvictedOutParam) {
  BoundedPagingQueue queue(single_group(1, 16));
  EXPECT_EQ(queue.add(page_for(1, 1, 0)), EnqueueResult::kQueued);
  EXPECT_EQ(queue.add(page_for(2, 2, 0)), EnqueueResult::kFull);
}

std::vector<std::uint64_t> served_terminals(
    const std::vector<ServedPage>& served) {
  std::vector<std::uint64_t> ids;
  for (const ServedPage& entry : served) ids.push_back(entry.page.terminal_id);
  return ids;
}

TEST(BoundedPagingQueue, PriorityEvictionUnlinksMiddleAndTail) {
  PagingQueueConfig config;
  config.max_pending = 5;
  config.lifetime_slots = 64;
  config.groups = 2;
  config.admission = AdmissionPolicy::kPriorityDelayBound;
  config.sla_delay_slots = 8;
  BoundedPagingQueue queue(config);
  // Group 0 (even ids) holds four pages; the most slack one sits in the
  // middle.  Group 1 holds one urgent page the scan must walk past.
  queue.add(page_for(2, 1, 0));  // deadline 8
  queue.add(page_for(4, 2, 5));  // deadline 13: the middle victim
  queue.add(page_for(6, 3, 1));  // deadline 9
  queue.add(page_for(8, 4, 2));  // deadline 10
  queue.add(page_for(1, 5, 0));  // group 1, deadline 8
  PendingPage evicted;
  EXPECT_EQ(queue.add(page_for(10, 6, 5), &evicted), EnqueueResult::kEvicted);
  EXPECT_EQ(evicted.terminal_id, 4u);
  // Now 10 (deadline 13) is group 0's tail and the most slack page.
  EXPECT_EQ(queue.add(page_for(12, 7, 5), &evicted), EnqueueResult::kEvicted);
  EXPECT_EQ(evicted.terminal_id, 10u);
  EXPECT_FALSE(queue.contains(4));
  EXPECT_FALSE(queue.contains(10));
  EXPECT_EQ(queue.size(), 5u);

  // Survivors keep FIFO order, and the tail fix-up lets later adds
  // append behind them.
  std::vector<ServedPage> served;
  std::vector<PendingPage> expired;
  queue.drain(6, 3, &served, &expired);  // groups 0, 1, 0
  EXPECT_EQ(served_terminals(served), (std::vector<std::uint64_t>{2, 1, 6}));
  EXPECT_EQ(queue.add(page_for(14, 8, 6)), EnqueueResult::kQueued);
  served.clear();
  queue.drain(7, 8, &served, &expired);
  EXPECT_EQ(served_terminals(served),
            (std::vector<std::uint64_t>{8, 12, 14}));
  EXPECT_TRUE(expired.empty());
  EXPECT_TRUE(queue.empty());
}

TEST(BoundedPagingQueue, SlabNeverExceedsMaxPendingRoundedUpToTheStep) {
  constexpr std::size_t kStep = BoundedPagingQueue::kSlabStep;
  for (const AdmissionPolicy policy :
       {AdmissionPolicy::kDropNewest, AdmissionPolicy::kDropOldest,
        AdmissionPolicy::kPriorityDelayBound}) {
    for (const std::size_t max_pending :
         {1u, 5u, 8u, 13u, 64u, 100u, 300u}) {
      SCOPED_TRACE(std::string(to_string(policy)) +
                   " max_pending=" + std::to_string(max_pending));
      PagingQueueConfig config;
      config.max_pending = max_pending;
      config.lifetime_slots = 4;
      config.groups = 3;
      config.admission = policy;
      BoundedPagingQueue queue(config);
      EXPECT_EQ(queue.slab_capacity(), 0u);
      const std::size_t limit = (max_pending + kStep - 1) / kStep * kStep;
      std::vector<ServedPage> served;
      std::vector<PendingPage> expired;
      std::uint64_t terminal = 0;
      for (std::int64_t slot = 0; slot < 40; ++slot) {
        // Offer twice the bound each slot; serve a little, expire some.
        for (std::size_t i = 0; i < 2 * max_pending; ++i) {
          PendingPage evicted;
          ++terminal;
          queue.add(page_for(terminal, terminal, slot), &evicted);
        }
        ASSERT_EQ(queue.size(), max_pending);
        ASSERT_LE(queue.slab_capacity(), limit);
        queue.drain(slot, 1 + static_cast<int>(slot % 3), &served, &expired);
      }
      EXPECT_GE(queue.slab_capacity(), max_pending);
    }
  }
}

TEST(BoundedPagingQueue, SlabGrowsInFixedStepsNotByDoubling) {
  constexpr std::size_t kStep = BoundedPagingQueue::kSlabStep;
  BoundedPagingQueue queue(single_group(1024, 16));
  for (std::uint64_t terminal = 1; terminal <= 64; ++terminal) {
    ASSERT_EQ(queue.add(page_for(terminal, terminal, 0)),
              EnqueueResult::kQueued);
    ASSERT_EQ(queue.slab_capacity(),
              (queue.size() + kStep - 1) / kStep * kStep);
  }
}

TEST(BoundedPagingQueue, LowDepthChurnReusesFreedEntries) {
  PagingQueueConfig config;
  config.max_pending = 1024;
  config.lifetime_slots = 16;
  config.groups = 4;
  BoundedPagingQueue queue(config);
  std::vector<ServedPage> served;
  std::vector<PendingPage> expired;
  std::uint64_t terminal = 0;
  for (std::int64_t slot = 0; slot < 500; ++slot) {
    for (int i = 0; i < 5; ++i) {
      ++terminal;
      ASSERT_EQ(queue.add(page_for(terminal, terminal, slot)),
                EnqueueResult::kQueued);
    }
    queue.drain(slot, 5, &served, &expired);
    ASSERT_TRUE(queue.empty());
    // Five pending at a time fit the first step; freed entries are reused
    // rather than appended.
    ASSERT_EQ(queue.slab_capacity(), BoundedPagingQueue::kSlabStep);
  }
  EXPECT_EQ(served.size(), 2500u);
  EXPECT_TRUE(expired.empty());
}

TEST(BoundedPagingQueue, RejectsBadConfig) {
  PagingQueueConfig config;
  config.max_pending = 0;
  EXPECT_THROW(BoundedPagingQueue{config}, InvalidArgument);
  config = PagingQueueConfig{};
  config.groups = 0;
  EXPECT_THROW(BoundedPagingQueue{config}, InvalidArgument);
  config = PagingQueueConfig{};
  config.lifetime_slots = -1;
  EXPECT_THROW(BoundedPagingQueue{config}, InvalidArgument);
}

}  // namespace
}  // namespace pcn::daemon
