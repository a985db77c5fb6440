// Unit tests for the discrete-event simulation core.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

namespace protean::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ExecutesEventAtScheduledTime) {
  Simulator sim;
  SimTime fired_at = -1.0;
  sim.schedule_at(5.0, [&] { fired_at = sim.now(); });
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, ScheduleAfterUsesRelativeDelay) {
  Simulator sim;
  sim.schedule_at(2.0, [&] {
    sim.schedule_after(3.0, [&] { EXPECT_DOUBLE_EQ(sim.now(), 5.0); });
  });
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SimultaneousEventsFireInFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_to_completion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run_to_completion();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::logic_error);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), std::logic_error);
}

TEST(Simulator, NullCallbackThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1.0, Simulator::Callback{}), std::logic_error);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto handle = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(handle));
  sim.run_to_completion();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelTwiceReturnsFalse) {
  Simulator sim;
  auto handle = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(handle));
  EXPECT_FALSE(sim.cancel(handle));
  sim.run_to_completion();
}

TEST(Simulator, CancelInvalidHandleReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST(Simulator, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(9.0, [&] { ++count; });
  sim.run_until(5.0);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run_until(10.0);
  EXPECT_EQ(count, 2);
}

TEST(Simulator, RunUntilExecutesEventExactlyAtHorizon) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(5.0, [&] { fired = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(1.0, recurse);
  };
  sim.schedule_after(1.0, recurse);
  sim.run_to_completion();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, PendingCountsLiveEventsOnly) {
  Simulator sim;
  auto h1 = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(h1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_to_completion();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ExecutedCounterIncrements) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(static_cast<double>(i), [] {});
  sim.run_to_completion();
  EXPECT_EQ(sim.executed(), 7u);
}

TEST(Simulator, TombstonesStayBoundedUnderCancelChurn) {
  Simulator sim;
  // One live far-future anchor so the heap is never empty.
  sim.schedule_at(1e9, [] {});
  for (int i = 0; i < 100000; ++i) {
    auto handle = sim.schedule_at(1000.0, [] {});
    EXPECT_TRUE(sim.cancel(handle));
  }
  // Lazy compaction rebuilds the heap whenever tombstones outnumber live
  // entries, so sustained cancel churn cannot grow it past ~2x live (plus
  // the small fixed floor below which compaction is not worth running).
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_LE(sim.heap_size(), std::max<std::size_t>(64, 2 * sim.pending() + 1));
}

TEST(Simulator, CompactionPreservesOrderAndLiveness) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  auto doomed = sim.schedule_at(2.0, [&] { order.push_back(2); });
  // Force several compaction passes with churn around the live events.
  for (int i = 0; i < 10000; ++i) {
    sim.cancel(sim.schedule_at(5.0, [] {}));
  }
  sim.cancel(doomed);
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, SameTimestampEventMayCancelLaterSibling) {
  // The run loop extracts every event sharing the earliest timestamp in
  // one batch; liveness must still be rechecked per event so an earlier
  // sibling can cancel a later one.
  Simulator sim;
  bool fired = false;
  EventHandle doomed;
  sim.schedule_at(1.0, [&] { EXPECT_TRUE(sim.cancel(doomed)); });
  doomed = sim.schedule_at(1.0, [&] { fired = true; });
  sim.run_to_completion();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(Simulator, EventScheduledAtNowDuringBatchStillFiresInSeqOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(0);
    sim.schedule_at(1.0, [&] { order.push_back(2); });
  });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

// ---- slot-slab handles ------------------------------------------------------
//
// Callbacks live in a slot slab whose slots are reused; a handle names its
// event by (seq, slot), so one that outlived its event must never reach the
// slot's next occupant.

TEST(Simulator, StaleHandleCannotCancelEventReusingItsSlot) {
  Simulator sim;
  bool fired = false;
  const EventHandle stale = sim.schedule_at(1.0, [] {});
  ASSERT_TRUE(sim.cancel(stale));
  // The freed slot is the only one, so the next event takes it over.
  const EventHandle fresh = sim.schedule_at(2.0, [&] { fired = true; });
  EXPECT_FALSE(sim.cancel(stale));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_to_completion();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(sim.cancel(fresh));
}

TEST(Simulator, CancellingAnExecutedEventAfterSlotReuseReturnsFalse) {
  Simulator sim;
  int fired = 0;
  EventHandle first;
  first = sim.schedule_at(1.0, [&] {
    ++fired;
    EXPECT_FALSE(sim.cancel(first));  // already running: no longer pending
  });
  sim.run_until(1.0);
  ASSERT_EQ(fired, 1);
  sim.schedule_at(2.0, [&] { ++fired; });  // reuses the executed slot
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_to_completion();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelReleasesCapturesImmediately) {
  Simulator sim;
  auto token = std::make_shared<int>(7);
  const EventHandle handle = sim.schedule_at(5.0, [token] {});
  EXPECT_EQ(token.use_count(), 2);
  ASSERT_TRUE(sim.cancel(handle));
  // The key is still in the heap as a tombstone, but the callback and its
  // captures are gone.
  EXPECT_EQ(sim.heap_size(), 1u);
  EXPECT_EQ(token.use_count(), 1);
  sim.run_to_completion();
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(Simulator, PendingAndHeapSizeKeepTheirMeaningUnderCancelChurn) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(sim.schedule_at(static_cast<double>(i + 1), [] {}));
  }
  for (std::size_t i = 0; i < handles.size(); i += 2) {
    ASSERT_TRUE(sim.cancel(handles[i]));
  }
  // pending() counts live events; heap_size() also counts the tombstones,
  // which stay until compaction (below its floor) or until they surface.
  EXPECT_EQ(sim.pending(), 5u);
  EXPECT_EQ(sim.heap_size(), 10u);
  for (int i = 0; i < 5000; ++i) {
    const EventHandle churn = sim.schedule_at(100.0, [] {});
    EXPECT_EQ(sim.pending(), 6u);
    ASSERT_TRUE(sim.cancel(churn));
  }
  EXPECT_EQ(sim.pending(), 5u);
  EXPECT_GE(sim.heap_size(), sim.pending());
  EXPECT_LE(sim.heap_size(), std::max<std::size_t>(64, 2 * sim.pending() + 1));
  sim.run_until(4.0);  // runs the events at 2 and 4
  EXPECT_EQ(sim.executed(), 2u);
  EXPECT_EQ(sim.pending(), 3u);
  sim.run_to_completion();
  EXPECT_EQ(sim.executed(), 5u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.heap_size(), 0u);
}

TEST(PeriodicTask, FiresAtFixedPeriod) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTask task(sim, 2.0, [&] { fires.push_back(sim.now()); });
  sim.run_until(7.0);
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_DOUBLE_EQ(fires[0], 2.0);
  EXPECT_DOUBLE_EQ(fires[1], 4.0);
  EXPECT_DOUBLE_EQ(fires[2], 6.0);
}

TEST(PeriodicTask, FireImmediatelyStartsAtZero) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTask task(sim, 2.0, [&] { fires.push_back(sim.now()); },
                    /*fire_immediately=*/true);
  sim.run_until(3.0);
  ASSERT_EQ(fires.size(), 2u);
  EXPECT_DOUBLE_EQ(fires[0], 0.0);
  EXPECT_DOUBLE_EQ(fires[1], 2.0);
}

TEST(PeriodicTask, StopCancelsFutureFirings) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, 1.0, [&] {
    if (++count == 3) task.stop();
  });
  sim.run_until(10.0);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, DestructorStopsTask) {
  Simulator sim;
  int count = 0;
  {
    PeriodicTask task(sim, 1.0, [&] { ++count; });
    sim.run_until(2.5);
  }
  sim.run_until(10.0);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, StopDuringImmediateFireCancelsRearm) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, 1.0, [&] {
    ++count;
    task.stop();
  }, /*fire_immediately=*/true);
  sim.run_until(10.0);
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(task.running());
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(PeriodicTask, PhaseStaysPinnedAcrossInterleavedWork) {
  // Re-arming is pinned to the absolute phase (start + k * period), never
  // to whatever other events do to the queue between fires.
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicTask task(sim, 2.0, [&] {
    fires.push_back(sim.now());
    sim.schedule_after(1.5, [] {});  // interleaved work between fires
  });
  sim.run_until(9.0);
  ASSERT_EQ(fires.size(), 4u);
  for (std::size_t k = 0; k < fires.size(); ++k) {
    EXPECT_DOUBLE_EQ(fires[k], 2.0 * static_cast<double>(k + 1));
  }
}

TEST(PeriodicTask, InvalidPeriodThrows) {
  Simulator sim;
  EXPECT_THROW(PeriodicTask(sim, 0.0, [] {}), std::logic_error);
}

}  // namespace
}  // namespace protean::sim
