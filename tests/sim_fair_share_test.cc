#include "sim/fair_share.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/process.h"
#include "sim/scheduler.h"

namespace wimpy::sim {
namespace {

Process ServeOne(FairShareServer& server, double demand, Scheduler& sched,
                 double* done_at) {
  co_await server.Serve(demand);
  *done_at = sched.now();
}

TEST(FairShareTest, SingleJobRunsAtPerJobCap) {
  Scheduler sched;
  // Capacity 100/s but a single job can only use 10/s (one core of ten).
  FairShareServer server(&sched, 100.0, 10.0);
  double done_at = -1;
  Spawn(sched, ServeOne(server, 50.0, sched, &done_at));
  sched.Run();
  EXPECT_NEAR(done_at, 5.0, 1e-9);
}

TEST(FairShareTest, UncappedJobUsesFullCapacity) {
  Scheduler sched;
  FairShareServer server(&sched, 100.0);
  double done_at = -1;
  Spawn(sched, ServeOne(server, 50.0, sched, &done_at));
  sched.Run();
  EXPECT_NEAR(done_at, 0.5, 1e-9);
}

TEST(FairShareTest, EqualJobsShareEqually) {
  Scheduler sched;
  FairShareServer server(&sched, 10.0);
  std::vector<double> done(4, -1);
  for (int i = 0; i < 4; ++i) {
    Spawn(sched, ServeOne(server, 10.0, sched, &done[i]));
  }
  sched.Run();
  // 4 jobs × 10 units at 10 units/s total -> all finish at t=4.
  for (double t : done) EXPECT_NEAR(t, 4.0, 1e-9);
}

TEST(FairShareTest, ShortJobLeavesMoreRateForLongJob) {
  Scheduler sched;
  FairShareServer server(&sched, 10.0);
  double short_done = -1, long_done = -1;
  Spawn(sched, ServeOne(server, 10.0, sched, &short_done));
  Spawn(sched, ServeOne(server, 30.0, sched, &long_done));
  sched.Run();
  // Shared at 5/s until the short job finishes 10 units at t=2;
  // the long job then has 20 left at 10/s -> finishes at t=4.
  EXPECT_NEAR(short_done, 2.0, 1e-9);
  EXPECT_NEAR(long_done, 4.0, 1e-9);
}

TEST(FairShareTest, LateArrivalSlowsInFlightJob) {
  Scheduler sched;
  FairShareServer server(&sched, 10.0);
  double first_done = -1, second_done = -1;
  Spawn(sched, ServeOne(server, 20.0, sched, &first_done));
  sched.ScheduleAt(1.0, [&] {
    Spawn(sched, ServeOne(server, 5.0, sched, &second_done));
  });
  sched.Run();
  // First job: 10 units in [0,1) alone, then shares 5/s. It has 10 left.
  // Second job: 5 units at 5/s -> done at t=2. First finishes its remaining
  // 5 units at 10/s -> t=2.5.
  EXPECT_NEAR(second_done, 2.0, 1e-9);
  EXPECT_NEAR(first_done, 2.5, 1e-9);
}

TEST(FairShareTest, PerJobCapLimitsScalingUntilSaturation) {
  Scheduler sched;
  // 2 "cores" of 10/s each: capacity 20, cap 10.
  FairShareServer server(&sched, 20.0, 10.0);
  std::vector<double> done(2, -1);
  for (int i = 0; i < 2; ++i) {
    Spawn(sched, ServeOne(server, 10.0, sched, &done[i]));
  }
  sched.Run();
  // Both jobs get a full core: finish at t=1, not t=2.
  EXPECT_NEAR(done[0], 1.0, 1e-9);
  EXPECT_NEAR(done[1], 1.0, 1e-9);
}

TEST(FairShareTest, BusyFractionTracksSaturation) {
  Scheduler sched;
  FairShareServer server(&sched, 20.0, 10.0);
  EXPECT_DOUBLE_EQ(server.busy_fraction(), 0.0);
  std::vector<double> done(3, -1);
  std::vector<double> busy_samples;
  server.SetUsageListener(
      [&](double busy) { busy_samples.push_back(busy); });
  Spawn(sched, ServeOne(server, 10.0, sched, &done[0]));
  sched.Run();
  Spawn(sched, ServeOne(server, 10.0, sched, &done[1]));
  Spawn(sched, ServeOne(server, 10.0, sched, &done[2]));
  sched.Run();
  // 1 job -> 0.5 busy; 2 jobs -> 1.0; 3 jobs -> still 1.0 (saturated).
  EXPECT_EQ(busy_samples.front(), 0.5);
  EXPECT_EQ(busy_samples.back(), 0.0);  // idle again at the end
  double peak = 0;
  for (double b : busy_samples) peak = std::max(peak, b);
  EXPECT_DOUBLE_EQ(peak, 1.0);
}

TEST(FairShareTest, AverageBusyFractionIntegratesHistory) {
  Scheduler sched;
  FairShareServer server(&sched, 10.0);
  double done_at = -1;
  Spawn(sched, ServeOne(server, 10.0, sched, &done_at));
  sched.Run();
  ASSERT_NEAR(done_at, 1.0, 1e-9);
  // Busy for [0,1], idle afterwards; check the average at t=1 -> 1.0.
  EXPECT_NEAR(server.AverageBusyFraction(), 1.0, 1e-9);
  sched.ScheduleAt(3.0, [] {});
  sched.Run();
  EXPECT_NEAR(server.AverageBusyFraction(), 1.0 / 3.0, 1e-9);
}

TEST(FairShareTest, ZeroDemandCompletesWithoutSuspension) {
  Scheduler sched;
  FairShareServer server(&sched, 10.0);
  double done_at = -1;
  Spawn(sched, ServeOne(server, 0.0, sched, &done_at));
  sched.Run();
  EXPECT_EQ(done_at, 0.0);
  EXPECT_EQ(server.active_jobs(), 0u);
}

TEST(FairShareTest, SetRatesAffectsInFlightWork) {
  Scheduler sched;
  FairShareServer server(&sched, 10.0);
  double done_at = -1;
  Spawn(sched, ServeOne(server, 20.0, sched, &done_at));
  sched.ScheduleAt(1.0, [&] { server.SetRates(20.0, 20.0); });
  sched.Run();
  // 10 units in [0,1), remaining 10 at 20/s -> t=1.5.
  EXPECT_NEAR(done_at, 1.5, 1e-9);
}

TEST(FairShareTest, TotalWorkServedAccumulates) {
  Scheduler sched;
  FairShareServer server(&sched, 10.0);
  std::vector<double> done(3, -1);
  for (int i = 0; i < 3; ++i) {
    Spawn(sched, ServeOne(server, 7.0, sched, &done[i]));
  }
  sched.Run();
  EXPECT_NEAR(server.total_work_served(), 21.0, 1e-6);
}

TEST(FairShareTest, ManyStaggeredJobsAllComplete) {
  Scheduler sched;
  FairShareServer server(&sched, 3.0, 1.0);
  int completed = 0;
  auto job = [&](double demand) -> Process {
    co_await server.Serve(demand);
    ++completed;
  };
  for (int i = 0; i < 50; ++i) {
    const double demand = 1.0 + (i % 7);
    sched.ScheduleAt(0.1 * i, [&, demand] { Spawn(sched, job(demand)); });
  }
  sched.Run();
  EXPECT_EQ(completed, 50);
  EXPECT_EQ(server.active_jobs(), 0u);
  EXPECT_DOUBLE_EQ(server.busy_fraction(), 0.0);
}

// The rate setters run at build time and check in every build type: a
// zero, negative or NaN rate would schedule completions at +inf.
TEST(FairShareDeathTest, NonPositiveRatesAbortInEveryBuild) {
  Scheduler sched;
  EXPECT_DEATH(FairShareServer(&sched, 0.0), "capacity must be > 0");
  EXPECT_DEATH(FairShareServer(&sched, -5.0, 1.0), "capacity must be > 0");
  EXPECT_DEATH(FairShareServer(&sched, std::nan("")),
               "capacity must be > 0");
  FairShareServer server(&sched, 10.0, 2.0);
  EXPECT_DEATH(server.SetRates(0.0, 1.0), "capacity must be > 0");
  EXPECT_DEATH(server.SetRates(10.0, 0.0), "per_job_cap must be > 0");
  EXPECT_DEATH(server.SetRates(10.0, -1.0), "per_job_cap must be > 0");
  // A valid change still applies.
  server.SetRates(20.0, 4.0);
  EXPECT_EQ(server.capacity(), 20.0);
  EXPECT_EQ(server.per_job_cap(), 4.0);
}

TEST(FairShareDeathTest, NullSchedulerAbortsInEveryBuild) {
  EXPECT_DEATH(FairShareServer(nullptr, 10.0), "scheduler must not be null");
}

}  // namespace
}  // namespace wimpy::sim
