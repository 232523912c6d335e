#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

namespace wimpy::sim {
namespace {

TEST(SchedulerTest, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0.0);
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerTest, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.ScheduleAt(2.0, [&] { order.push_back(2); });
  s.ScheduleAt(1.0, [&] { order.push_back(1); });
  s.ScheduleAt(3.0, [&] { order.push_back(3); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3.0);
}

TEST(SchedulerTest, SameTimeEventsRunFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  s.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SchedulerTest, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  double fired_at = -1;
  s.ScheduleAt(5.0, [&] {
    s.ScheduleAfter(2.5, [&] { fired_at = s.now(); });
  });
  s.Run();
  EXPECT_EQ(fired_at, 7.5);
}

TEST(SchedulerTest, PastTimesClampToNow) {
  Scheduler s;
  double fired_at = -1;
  s.ScheduleAt(5.0, [&] {
    s.ScheduleAt(1.0, [&] { fired_at = s.now(); });
  });
  s.Run();
  EXPECT_EQ(fired_at, 5.0);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler s;
  int fired = 0;
  EventId id = s.ScheduleAt(1.0, [&] { ++fired; });
  s.ScheduleAt(2.0, [&] { ++fired; });
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_FALSE(s.Cancel(id));  // double cancel fails
  s.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SchedulerTest, CancelUnknownIdFails) {
  Scheduler s;
  EXPECT_FALSE(s.Cancel(0));
  EXPECT_FALSE(s.Cancel(999));
}

TEST(SchedulerTest, RunUntilStopsClock) {
  Scheduler s;
  int fired = 0;
  s.ScheduleAt(1.0, [&] { ++fired; });
  s.ScheduleAt(10.0, [&] { ++fired; });
  s.Run(/*until=*/5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 5.0);
  EXPECT_EQ(s.pending_events(), 1u);
  s.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 10.0);
}

TEST(SchedulerTest, RunUntilInThePastDoesNotRewindClock) {
  Scheduler s;
  s.ScheduleAt(5.0, [] {});
  s.Run();
  EXPECT_EQ(s.now(), 5.0);
  s.ScheduleAt(9.0, [] {});
  s.Run(/*until=*/1.0);
  EXPECT_EQ(s.now(), 5.0);
}

TEST(SchedulerTest, MaxEventsBudget) {
  Scheduler s;
  int fired = 0;
  for (int i = 0; i < 100; ++i) s.ScheduleAt(i, [&] { ++fired; });
  s.Run(std::numeric_limits<SimTime>::infinity(), 10);
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(s.pending_events(), 90u);
}

TEST(SchedulerTest, EventsCanScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 50) s.ScheduleAfter(1.0, chain);
  };
  s.ScheduleAt(0.0, chain);
  s.Run();
  EXPECT_EQ(depth, 50);
  EXPECT_EQ(s.now(), 49.0);
  EXPECT_EQ(s.executed_events(), 50u);
}

TEST(SchedulerTest, RunToFiniteUntilOnDrainedQueueLandsClockOnUntil) {
  // The queue draining early must behave like the next-event-beyond-until
  // exit: the clock lands exactly on `until`.
  Scheduler s;
  s.ScheduleAt(1.0, [] {});
  EXPECT_EQ(s.Run(5.0), 1u);
  EXPECT_EQ(s.now(), 5.0);
}

TEST(SchedulerTest, RunToFiniteUntilOnEmptyQueueAdvancesClock) {
  Scheduler s;
  EXPECT_EQ(s.Run(2.5), 0u);
  EXPECT_EQ(s.now(), 2.5);
}

TEST(SchedulerTest, UnboundedRunLeavesClockAtLastEvent) {
  Scheduler s;
  s.ScheduleAt(1.0, [] {});
  s.Run();
  EXPECT_EQ(s.now(), 1.0);
}

TEST(SchedulerTest, StepExecutesExactlyOne) {
  Scheduler s;
  int fired = 0;
  s.ScheduleAt(1.0, [&] { ++fired; });
  s.ScheduleAt(2.0, [&] { ++fired; });
  EXPECT_TRUE(s.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.Step());
  EXPECT_FALSE(s.Step());
}

TEST(SchedulerTest, RescheduleAfterMovesEventKeepingClosure) {
  Scheduler s;
  double fired_at = -1;
  EventId id = s.ScheduleAt(1.0, [&] { fired_at = s.now(); });
  EventId moved = s.RescheduleAfter(id, 5.0);
  EXPECT_NE(moved, 0u);
  EXPECT_NE(moved, id);  // a fresh id, like Cancel + ScheduleAfter
  EXPECT_FALSE(s.Cancel(id));
  s.Run();
  EXPECT_EQ(fired_at, 5.0);
}

TEST(SchedulerTest, RescheduleAfterInvalidIdReturnsZero) {
  Scheduler s;
  EXPECT_EQ(s.RescheduleAfter(0, 1.0), 0u);
  EXPECT_EQ(s.RescheduleAfter(999, 1.0), 0u);
  EventId id = s.ScheduleAt(1.0, [] {});
  ASSERT_TRUE(s.Cancel(id));
  EXPECT_EQ(s.RescheduleAfter(id, 1.0), 0u);
}

TEST(SchedulerTest, RescheduleAfterRepeatedlyDefersLikeWatchdog) {
  Scheduler s;
  int fired = 0;
  EventId id = s.ScheduleAt(1.0, [&] { ++fired; });
  for (int i = 0; i < 100; ++i) {
    id = s.RescheduleAfter(id, 1.0 + i);
    ASSERT_NE(id, 0u);
  }
  s.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 100.0);
}

// Differential check: a stream of reschedules interleaved with other
// traffic must execute in exactly the order Cancel + ScheduleAfter gives.
TEST(SchedulerTest, RescheduleAfterMatchesCancelPlusSchedule) {
  auto run = [](bool in_place) {
    Scheduler s;
    std::vector<std::pair<int, double>> trace;
    std::vector<EventId> ids;
    for (int i = 0; i < 16; ++i) {
      const double t = 1.0 + 0.25 * (i % 5);  // clustered times are shared
      ids.push_back(s.ScheduleAt(t, [&trace, &s, i] {
        trace.emplace_back(i, s.now());
      }));
    }
    for (int i = 0; i < 16; i += 2) {
      const double delay = 0.5 + 0.125 * i;
      if (in_place) {
        ids[i] = s.RescheduleAfter(ids[i], delay);
      } else {
        Scheduler* sp = &s;
        std::vector<std::pair<int, double>>* tp = &trace;
        s.Cancel(ids[i]);
        ids[i] = s.ScheduleAfter(delay, [tp, sp, i] {
          tp->emplace_back(i, sp->now());
        });
      }
      EXPECT_NE(ids[i], 0u);
    }
    s.Run();
    return trace;
  };
  EXPECT_EQ(run(true), run(false));
}

// Rescheduling an event that shares its timestamp with others must leave
// them intact and in order, whichever position the moved event held.
TEST(SchedulerTest, RescheduleAfterLeavesChainMatesIntact) {
  for (int victim = 0; victim < 3; ++victim) {
    Scheduler s;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 3; ++i) {
      ids.push_back(s.ScheduleAt(1.0, [&order, i] { order.push_back(i); }));
    }
    ASSERT_NE(s.RescheduleAfter(ids[victim], 9.0), 0u);
    s.Run();
    ASSERT_EQ(order.size(), 3u) << "victim " << victim;
    EXPECT_EQ(order.back(), victim) << "victim " << victim;
    EXPECT_EQ(s.now(), 9.0);
  }
}

// ---------------------------------------------------------------------------
// Reschedules across delay scales. Every move between delays from 1 µs to
// 10 s, in both directions, plus a nudge far below 1 µs, must land the
// event exactly at its new time, leave the event sharing its old time
// intact, run behind a bystander already pending at the new time (FIFO by
// schedule order), and leave nothing pending once drained.

TEST(SchedulerTest, RescheduleAfterAcrossDelayScalesKeepsTimeAndOrder) {
  const double kDelays[] = {1e-6, 2.5e-4, 0.001, 0.065, 0.07, 1.0, 10.0};
  std::vector<std::pair<double, double>> moves;
  for (double from : kDelays) {
    for (double to : kDelays) moves.emplace_back(from, to);
  }
  moves.emplace_back(0.001, 0.001 + 4e-10);
  for (const auto& [from, to] : moves) {
    Scheduler s;
    std::vector<int> order;
    double fired_at = -1;
    s.ScheduleAt(from, [&] { order.push_back(0); });  // time-mate
    const EventId id = s.ScheduleAt(from, [&] {
      fired_at = s.now();
      order.push_back(2);
    });
    s.ScheduleAt(to, [&] { order.push_back(1); });  // bystander
    ASSERT_NE(s.RescheduleAfter(id, to), 0u) << from << " -> " << to;
    s.Run();
    // The mover took the newest sequence number, so it runs last at `to`.
    const std::vector<int> expected =
        from <= to ? std::vector<int>{0, 1, 2} : std::vector<int>{1, 2, 0};
    EXPECT_EQ(order, expected) << from << " -> " << to;
    EXPECT_EQ(fired_at, to) << from << " -> " << to;
    EXPECT_EQ(s.pending_events(), 0u) << from << " -> " << to;
  }
}

TEST(SchedulerTest, RescheduleAfterRoundTripKeepsClosureAndOrder) {
  // Short -> long -> short round trip on one event, racing a fixed
  // bystander at the final time; FIFO (schedule order) must decide.
  Scheduler s;
  std::vector<int> order;
  EventId mover = s.ScheduleAt(0.002, [&] { order.push_back(0); });
  s.ScheduleAt(0.005, [&] { order.push_back(1); });
  mover = s.RescheduleAfter(mover, 1.0);
  ASSERT_NE(mover, 0u);
  mover = s.RescheduleAfter(mover, 0.005);  // ties the bystander
  ASSERT_NE(mover, 0u);
  s.Run();
  ASSERT_EQ(order.size(), 2u);
  // The bystander kept its earlier sequence number; the mover re-entered
  // the schedule order at its last reschedule.
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 0);
  EXPECT_EQ(s.now(), 0.005);
}

// An empty closure would count as pending but be dropped as cancelled,
// so pending_events() would never return to zero and a later Step() would
// read an empty heap. It is rejected at the boundary in every build type.
TEST(SchedulerDeathTest, EmptyClosureAbortsInEveryBuild) {
  Scheduler s;
  EXPECT_DEATH(s.ScheduleAt(1.0, EventFn{}), "empty event closure");
  EXPECT_DEATH(s.ScheduleAfter(1.0, EventFn{}), "empty event closure");
  s.ScheduleAt(1.0, [] {});
  EXPECT_EQ(s.Run(), 1u);
  EXPECT_EQ(s.pending_events(), 0u);
}

// `t < now()` and `delay < 0` are both false for NaN, so a NaN time would
// slip past the clamp: the event would run at now() = nan, the clock would
// then step back, and the radix buckets would misfile every later push.
TEST(SchedulerDeathTest, NanTimeOrDelayAbortsInEveryBuild) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Scheduler s;
  const EventId id = s.ScheduleAt(1.0, [] {});
  EXPECT_DEATH(s.ScheduleAt(nan, [] {}), "NaN event time");
  EXPECT_DEATH(s.ScheduleAfter(nan, [] {}), "NaN event delay");
  EXPECT_DEATH(s.RescheduleAfter(id, nan), "NaN event delay");
  // The clamps still hold for ordinary out-of-range values.
  s.ScheduleAt(-1.0, [] {});
  s.ScheduleAfter(-1.0, [] {});
  EXPECT_NE(s.RescheduleAfter(id, -1.0), 0u);
  EXPECT_EQ(s.Run(), 3u);
  EXPECT_EQ(s.now(), 0.0);
}

}  // namespace
}  // namespace wimpy::sim
