#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "../bench/reference_event_queue.hpp"
#include "util/rng.hpp"

namespace mafic::sim {

/// Reaches the id-sequence bound without 2^40 pushes.
struct EventQueueTestPeer {
  static void set_next_seq(EventQueue& q, std::uint64_t seq) {
    q.next_seq_ = seq;
  }
};

namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto ev = q.pop();
    ev.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBrokenByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.push(1.0, [&] { ran = true; });
  q.push(2.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  while (!q.empty()) q.pop().fn();
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterPopIsHarmless) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelInvalidIdsIsHarmless) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(kInvalidEvent));
  EXPECT_FALSE(q.cancel(999999));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.push(1.0, [] {});
  q.push(5.0, [] {});
  q.cancel(early);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(EventQueue, PopSkipsCancelledHead) {
  EventQueue q;
  int value = 0;
  const EventId a = q.push(1.0, [&] { value = 1; });
  q.push(2.0, [&] { value = 2; });
  q.cancel(a);
  q.pop().fn();
  EXPECT_EQ(value, 2);
}

TEST(EventQueue, ClearEmptiesEverything) {
  EventQueue q;
  q.push(1.0, [] {});
  q.push(2.0, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, IdsAreUniqueAndIncreasing) {
  EventQueue q;
  EventId prev = 0;
  for (int i = 0; i < 100; ++i) {
    const EventId id = q.push(1.0, [] {});
    EXPECT_GT(id, prev);
    prev = id;
  }
}

TEST(EventQueue, PoppedEventReportsTimeAndId) {
  EventQueue q;
  const EventId id = q.push(3.5, [] {});
  auto ev = q.pop();
  EXPECT_DOUBLE_EQ(ev.time, 3.5);
  EXPECT_EQ(ev.id, id);
}

TEST(EventQueue, CompactionBoundsCancelledGarbage) {
  EventQueue q;
  // Heavy probation-style churn: schedule and cancel in waves while a few
  // long-lived events stay resident. Without compaction the heap would
  // hold every cancelled corpse until it surfaced.
  std::vector<EventId> wave;
  for (int round = 0; round < 100; ++round) {
    wave.clear();
    for (int i = 0; i < 100; ++i) {
      wave.push_back(q.push(1000.0 + round + i * 0.001, [] {}));
    }
    for (const EventId id : wave) q.cancel(id);
  }
  q.push(1.0, [] {});
  // 10k cancelled entries went through; the heap must stay within 2x the
  // live size plus the compaction floor.
  EXPECT_EQ(q.size(), 1u);
  EXPECT_LT(q.heap_footprint(), 128u);
  EXPECT_GT(q.compactions(), 0u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
}

TEST(EventQueue, CompactionPreservesOrderAndLiveness) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int i = 0; i < 200; ++i) {
    q.push(double(i), [&order, i] { order.push_back(i); });
    doomed.push_back(q.push(double(i) + 0.5, [] { FAIL(); }));
  }
  for (const EventId id : doomed) q.cancel(id);
  int expect = 0;
  while (!q.empty()) {
    auto ev = q.pop();
    ev.fn();
    ASSERT_EQ(order.back(), expect++);
  }
  EXPECT_EQ(expect, 200);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  for (int i = 999; i >= 0; --i) {
    q.push(static_cast<double>(i % 37), [] {});
  }
  double last = -1.0;
  while (!q.empty()) {
    auto ev = q.pop();
    EXPECT_GE(ev.time, last);
    last = ev.time;
  }
}

// ---- slot arena: ids, reuse and bounds ---------------------------------

TEST(EventQueue, StaleIdOfReusedSlotIsRejected) {
  EventQueue q;
  const EventId old_id = q.push(1.0, [] {});
  ASSERT_TRUE(q.cancel(old_id));
  bool ran = false;
  const EventId new_id = q.push(2.0, [&] { ran = true; });
  // The freed slot is reused, so the two ids share their slot bits.
  ASSERT_EQ(old_id & (EventQueue::kMaxSlots - 1),
            new_id & (EventQueue::kMaxSlots - 1));
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
  auto ev = q.pop();
  EXPECT_EQ(ev.id, new_id);
  ev.fn();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, OlderEventInHighSlotPopsBeforeNewerInReusedLowSlot) {
  EventQueue q;
  std::vector<int> order;
  const EventId low = q.push(9.0, [] {});
  const EventId high = q.push(5.0, [&] { order.push_back(1); });
  ASSERT_TRUE(q.cancel(low));
  const EventId reused = q.push(5.0, [&] { order.push_back(2); });
  ASSERT_LT(reused & (EventQueue::kMaxSlots - 1),
            high & (EventQueue::kMaxSlots - 1));
  EXPECT_GT(reused, high);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, BatchableDoesNotLeakAcrossSlotReuse) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {}, /*batchable=*/true);
  EXPECT_TRUE(q.next_is_batchable());
  ASSERT_TRUE(q.cancel(a));
  q.push(1.0, [] {});
  EXPECT_FALSE(q.next_is_batchable());
  q.pop();
  q.push(1.0, [] {}, /*batchable=*/true);
  EXPECT_TRUE(q.next_is_batchable());
  q.pop();
  q.push(1.0, [] {});
  EXPECT_FALSE(q.next_is_batchable());
}

TEST(EventQueue, CancelDestroysTheCallbackAtOnce) {
  EventQueue q;
  auto token = std::make_shared<int>(0);
  const EventId id = q.push(1.0, [token] {});
  EXPECT_EQ(token.use_count(), 2);
  ASSERT_TRUE(q.cancel(id));
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, SequenceExhaustionThrowsInsteadOfAliasing) {
  EventQueue q;
  const EventId first = q.push(2.0, [] {});
  EventQueueTestPeer::set_next_seq(q, EventQueue::kMaxSeq);
  const EventId last = q.push(1.0, [] {});
  EXPECT_GT(last, first);
  EXPECT_THROW(q.push(0.5, [] {}), std::length_error);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().id, last);
  EXPECT_EQ(q.pop().id, first);
  EXPECT_THROW(q.push(3.0, [] {}), std::length_error);
  EXPECT_TRUE(q.empty());
}

// ---- differential against the pre-rewrite queue ------------------------

class EventQueueDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EventQueueDifferential, MatchesReferenceQueue) {
  util::Rng rng(GetParam());
  EventQueue q;
  bench::ReferenceEventQueue ref;
  // Per insertion rank: the id each queue returned for it.
  std::vector<EventId> ids, ref_ids;
  int ran = -1, ref_ran = -1;

  // Phases of 1000 steps cycle through growth, cancellation churn (which
  // drives compaction) and draining, so slots are freed and reused at
  // every population size. Weights: push, cancel, forged cancel, pop.
  constexpr double kWeights[3][4] = {{0.60, 0.15, 0.05, 0.20},
                                     {0.25, 0.65, 0.05, 0.05},
                                     {0.15, 0.15, 0.05, 0.65}};
  for (int step = 0; step < 30000; ++step) {
    const double* w = kWeights[(step / 1000) % 3];
    const double action = rng.uniform01();
    if (rng.bernoulli(0.0005)) {
      q.clear();
      ref.clear();
    } else if (action < w[0]) {
      // Few distinct times, so most pops are decided by insertion order.
      const SimTime t = double(rng.uniform_int(0, 15)) * 0.25;
      const bool batchable = rng.bernoulli(0.5);
      const int rank = int(ids.size());
      ids.push_back(q.push(t, [&ran, rank] { ran = rank; }, batchable));
      ref_ids.push_back(
          ref.push(t, [&ref_ran, rank] { ref_ran = rank; }, batchable));
    } else if (action < w[0] + w[1]) {
      if (ids.empty()) continue;
      // Any issued id: live, popped or already cancelled. The most recent
      // ranks are mostly still live.
      const std::size_t rank =
          rng.bernoulli(0.25)
              ? rng.index(ids.size())
              : ids.size() - 1 -
                    rng.index(std::min<std::size_t>(ids.size(), 32));
      ASSERT_EQ(q.cancel(ids[rank]), ref.cancel(ref_ids[rank]))
          << "rank " << rank;
    } else if (action < w[0] + w[1] + w[2]) {
      // Never-issued ids: the invalid id, slot-only ids (sequence 0), a
      // used slot under a future sequence, and arbitrary bits.
      const EventId future = std::uint64_t{1000000} << EventQueue::kSlotBits;
      const EventId forged[] = {
          kInvalidEvent, rng.uniform_int(1, EventQueue::kMaxSlots - 1),
          ids.empty() ? future : ids[rng.index(ids.size())] + future,
          rng.next()};
      for (const EventId id : forged) ASSERT_FALSE(q.cancel(id)) << id;
      ASSERT_FALSE(ref.cancel(ref_ids.size() + 1000000));
    } else {
      if (q.empty()) {
        ASSERT_TRUE(ref.empty());
        continue;
      }
      ASSERT_EQ(q.next_time(), ref.next_time());
      ASSERT_EQ(q.next_is_batchable(), ref.next_is_batchable());
      auto ev = q.pop();
      auto ref_ev = ref.pop();
      ASSERT_EQ(ev.time, ref_ev.time);
      ev.fn();
      ref_ev.fn();
      ASSERT_EQ(ran, ref_ran);
      ASSERT_EQ(ev.id, ids[std::size_t(ran)]);
      ASSERT_EQ(ref_ev.id, ref_ids[std::size_t(ref_ran)]);
    }
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
    ASSERT_EQ(q.heap_footprint(), ref.heap_footprint());
    ASSERT_EQ(q.compactions(), ref.compactions());
  }
  // Drain both; the tails must agree too.
  while (!q.empty()) {
    ASSERT_FALSE(ref.empty());
    q.pop().fn();
    ref.pop().fn();
    ASSERT_EQ(ran, ref_ran);
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_GT(q.compactions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDifferential,
                         ::testing::Values(1, 2, 3, 17, 1234, 0xfeedULL));

}  // namespace
}  // namespace mafic::sim
