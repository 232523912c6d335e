#include "sim/process.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/scheduler.h"
#include "sim/wait_queue.h"

namespace wimpy::sim {
namespace {

Process Sleeper(Scheduler& sched, Duration d, double* woke_at) {
  co_await Delay(sched, d);
  *woke_at = sched.now();
}

TEST(ProcessTest, DelayAdvancesVirtualTime) {
  Scheduler sched;
  double woke_at = -1;
  Spawn(sched, Sleeper(sched, 2.5, &woke_at));
  sched.Run();
  EXPECT_EQ(woke_at, 2.5);
}

Process MultiSleep(Scheduler& sched, std::vector<double>* times) {
  for (int i = 0; i < 3; ++i) {
    co_await Delay(sched, 1.0);
    times->push_back(sched.now());
  }
}

TEST(ProcessTest, SequentialDelaysAccumulate) {
  Scheduler sched;
  std::vector<double> times;
  Spawn(sched, MultiSleep(sched, &times));
  sched.Run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(ProcessTest, JoinWaitsForCompletion) {
  Scheduler sched;
  double woke_at = -1;
  double joined_at = -1;
  auto ref = SpawnJoinable(sched, Sleeper(sched, 4.0, &woke_at));
  auto joiner = [](Scheduler& s, ProcessRef target,
                   double* t) -> Process {
    co_await target.Join();
    *t = s.now();
  };
  Spawn(sched, joiner(sched, ref, &joined_at));
  sched.Run();
  EXPECT_EQ(joined_at, 4.0);
  EXPECT_TRUE(ref.done());
}

TEST(ProcessTest, JoinAfterCompletionResumesImmediately) {
  Scheduler sched;
  double woke_at = -1;
  auto ref = SpawnJoinable(sched, Sleeper(sched, 1.0, &woke_at));
  sched.Run();
  ASSERT_TRUE(ref.done());
  double joined_at = -1;
  auto joiner = [](Scheduler& s, ProcessRef target,
                   double* t) -> Process {
    co_await target.Join();
    *t = s.now();
  };
  Spawn(sched, joiner(sched, ref, &joined_at));
  sched.Run();
  EXPECT_EQ(joined_at, 1.0);  // clock did not advance further
}

TEST(ProcessTest, MultipleJoinersAllWake) {
  Scheduler sched;
  double woke_at = -1;
  auto ref = SpawnJoinable(sched, Sleeper(sched, 2.0, &woke_at));
  int joined = 0;
  auto joiner = [](ProcessRef target, int* n) -> Process {
    co_await target.Join();
    ++*n;
  };
  for (int i = 0; i < 5; ++i) Spawn(sched, joiner(ref, &joined));
  sched.Run();
  EXPECT_EQ(joined, 5);
}

TEST(ProcessTest, TwoJoinersWakeInJoinOrder) {
  Scheduler sched;
  double woke_at = -1;
  auto ref = SpawnJoinable(sched, Sleeper(sched, 3.0, &woke_at));
  std::vector<int> order;
  auto joiner = [](ProcessRef target, int id,
                   std::vector<int>* out) -> Process {
    co_await target.Join();
    out->push_back(id);
  };
  Spawn(sched, joiner(ref, 1, &order));
  Spawn(sched, joiner(ref, 2, &order));
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.now(), 3.0);
}

// Counts live frames of the coroutine below: its by-value parameter is
// copied into the frame and destroyed only when the frame is.
struct FrameAlive {
  explicit FrameAlive(int* live) : live(live) { ++*live; }
  FrameAlive(const FrameAlive& other) : live(other.live) { ++*live; }
  ~FrameAlive() { --*live; }
  int* live;
};

Process Tracked(Scheduler& sched, FrameAlive /*alive*/, double* done_at) {
  co_await Delay(sched, 1.5);
  *done_at = sched.now();
}

TEST(ProcessTest, FireAndForgetRunsToCompletionAndFreesItsFrame) {
  Scheduler sched;
  int live = 0;
  double done_at = -1;
  Spawn(sched, Tracked(sched, FrameAlive(&live), &done_at));
  sched.Run(1.0);
  EXPECT_EQ(live, 1);  // suspended in the Delay
  sched.Run();
  EXPECT_EQ(done_at, 1.5);
  EXPECT_EQ(live, 0);  // the frame destroyed itself at final suspend
}

TEST(ProcessTest, JoinableFrameIsFreedBeforeItsRef) {
  Scheduler sched;
  int live = 0;
  double done_at = -1;
  ProcessRef ref =
      SpawnJoinable(sched, Tracked(sched, FrameAlive(&live), &done_at));
  EXPECT_FALSE(ref.done());
  sched.Run();
  EXPECT_TRUE(ref.done());
  EXPECT_EQ(live, 0);  // the ref keeps the join state, not the frame
}

TEST(ProcessDeathTest, SpawningAnEmptyProcessAborts) {
  // Checked in every build type: a null handle queued on the scheduler
  // would crash later, without a message.
  EXPECT_DEATH(
      {
        Scheduler sched;
        double woke_at = -1;
        Process p = Sleeper(sched, 1.0, &woke_at);
        Spawn(sched, std::move(p));
        Spawn(sched, std::move(p));
      },
      "sim::Spawn: process already spawned or moved");
  EXPECT_DEATH(
      {
        Scheduler sched;
        double woke_at = -1;
        Process p = Sleeper(sched, 1.0, &woke_at);
        Process taken = std::move(p);
        SpawnJoinable(sched, std::move(p));
      },
      "sim::SpawnJoinable: process already spawned or moved");
}

TEST(ProcessTest, UnspawnedProcessDestroysCleanly) {
  Scheduler sched;
  double woke_at = -1;
  {
    Process p = Sleeper(sched, 1.0, &woke_at);
    // never spawned
  }
  sched.Run();
  EXPECT_EQ(woke_at, -1);
}

TEST(ProcessTest, SpawnDoesNotRunInline) {
  Scheduler sched;
  double woke_at = -1;
  Spawn(sched, Sleeper(sched, 0.0, &woke_at));
  EXPECT_EQ(woke_at, -1);  // runs only once the scheduler is pumped
  sched.Run();
  EXPECT_EQ(woke_at, 0.0);
}

Process Producer(Scheduler& sched, WaitQueue<int>& queue, int n) {
  for (int i = 0; i < n; ++i) {
    co_await Delay(sched, 1.0);
    queue.Push(i);
  }
}

Process Consumer(WaitQueue<int>& queue, int n, std::vector<int>* out,
                 Scheduler& sched, std::vector<double>* at) {
  for (int i = 0; i < n; ++i) {
    int v = co_await queue.Get();
    out->push_back(v);
    at->push_back(sched.now());
  }
}

TEST(ProcessTest, WaitQueueDeliversInOrderAcrossTime) {
  Scheduler sched;
  WaitQueue<int> queue(&sched);
  std::vector<int> got;
  std::vector<double> at;
  Spawn(sched, Consumer(queue, 3, &got, sched, &at));
  Spawn(sched, Producer(sched, queue, 3));
  sched.Run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(at, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(ProcessTest, WaitQueueBuffersWhenNoConsumer) {
  Scheduler sched;
  WaitQueue<int> queue(&sched);
  queue.Push(7);
  queue.Push(8);
  EXPECT_EQ(queue.size(), 2u);
  std::vector<int> got;
  std::vector<double> at;
  Spawn(sched, Consumer(queue, 2, &got, sched, &at));
  sched.Run();
  EXPECT_EQ(got, (std::vector<int>{7, 8}));
  EXPECT_EQ(queue.peak_depth(), 2u);
}

TEST(ProcessTest, WaitQueueMultipleConsumersFifo) {
  Scheduler sched;
  WaitQueue<int> queue(&sched);
  std::vector<int> got_a, got_b;
  std::vector<double> at;
  Spawn(sched, Consumer(queue, 1, &got_a, sched, &at));
  Spawn(sched, Consumer(queue, 1, &got_b, sched, &at));
  sched.ScheduleAt(1.0, [&] {
    queue.Push(100);
    queue.Push(200);
  });
  sched.Run();
  EXPECT_EQ(got_a, (std::vector<int>{100}));  // first waiter gets first item
  EXPECT_EQ(got_b, (std::vector<int>{200}));
}

TEST(ProcessTest, TryGetDoesNotBlock) {
  Scheduler sched;
  WaitQueue<int> queue(&sched);
  EXPECT_FALSE(queue.TryGet().has_value());
  queue.Push(1);
  auto v = queue.TryGet();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
}

}  // namespace
}  // namespace wimpy::sim
