#include "sim/semaphore.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/process.h"
#include "sim/scheduler.h"

namespace wimpy::sim {
namespace {

Process HoldFor(Scheduler& sched, Semaphore& sem, Duration hold, int id,
                std::vector<std::pair<int, double>>* acquired) {
  co_await sem.Acquire();
  acquired->emplace_back(id, sched.now());
  co_await Delay(sched, hold);
  sem.Release();
}

TEST(SemaphoreTest, TryAcquireCounts) {
  Scheduler sched;
  Semaphore sem(&sched, 2);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  EXPECT_EQ(sem.in_use(), 2);
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
}

TEST(SemaphoreTest, SerialisesBeyondPermitCount) {
  Scheduler sched;
  Semaphore sem(&sched, 2);
  std::vector<std::pair<int, double>> acquired;
  for (int i = 0; i < 4; ++i) {
    Spawn(sched, HoldFor(sched, sem, 1.0, i, &acquired));
  }
  sched.Run();
  ASSERT_EQ(acquired.size(), 4u);
  // Two run at t=0, two at t=1.
  EXPECT_EQ(acquired[0], (std::pair<int, double>{0, 0.0}));
  EXPECT_EQ(acquired[1], (std::pair<int, double>{1, 0.0}));
  EXPECT_EQ(acquired[2], (std::pair<int, double>{2, 1.0}));
  EXPECT_EQ(acquired[3], (std::pair<int, double>{3, 1.0}));
}

TEST(SemaphoreTest, FifoOrderUnderContention) {
  Scheduler sched;
  Semaphore sem(&sched, 1);
  std::vector<std::pair<int, double>> acquired;
  for (int i = 0; i < 5; ++i) {
    Spawn(sched, HoldFor(sched, sem, 2.0, i, &acquired));
  }
  sched.Run();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(acquired[i].first, i);
    EXPECT_EQ(acquired[i].second, i * 2.0);
  }
  EXPECT_EQ(sem.peak_queue_length(), 4u);
  EXPECT_EQ(sem.available(), 1);
  EXPECT_EQ(sem.in_use(), 0);
}

Process GuardedEarlyExit(Scheduler& sched, Semaphore& sem, bool bail,
                         int* completed) {
  SemaphoreGuard guard(sem);
  co_await guard.Acquired();
  co_await Delay(sched, 1.0);
  if (bail) co_return;  // guard releases on scope exit
  co_await Delay(sched, 1.0);
  ++*completed;
}

TEST(SemaphoreTest, GuardReleasesOnEarlyExit) {
  Scheduler sched;
  Semaphore sem(&sched, 1);
  int completed = 0;
  Spawn(sched, GuardedEarlyExit(sched, sem, /*bail=*/true, &completed));
  Spawn(sched, GuardedEarlyExit(sched, sem, /*bail=*/false, &completed));
  sched.Run();
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(sem.available(), 1);  // permit not leaked by the bailing holder
  EXPECT_EQ(sem.in_use(), 0);
}

Process GuardManualRelease(Scheduler& sched, Semaphore& sem,
                           double* released_at) {
  SemaphoreGuard guard(sem);
  co_await guard.Acquired();
  co_await Delay(sched, 1.0);
  guard.Release();
  *released_at = sched.now();
  co_await Delay(sched, 5.0);  // long tail without the permit
}

TEST(SemaphoreTest, GuardManualReleaseFreesPermitEarly) {
  Scheduler sched;
  Semaphore sem(&sched, 1);
  double released_at = -1;
  std::vector<std::pair<int, double>> acquired;
  Spawn(sched, GuardManualRelease(sched, sem, &released_at));
  Spawn(sched, HoldFor(sched, sem, 0.5, 7, &acquired));
  sched.Run();
  EXPECT_EQ(released_at, 1.0);
  ASSERT_EQ(acquired.size(), 1u);
  EXPECT_EQ(acquired[0].second, 1.0);  // waiter got it at release time
}

}  // namespace
}  // namespace wimpy::sim
