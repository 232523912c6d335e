#include "hw/power.h"

#include <gtest/gtest.h>

#include "hw/profiles.h"
#include "hw/server_node.h"
#include "sim/process.h"
#include "sim/scheduler.h"

namespace wimpy::hw {
namespace {

TEST(PowerTest, IdleNodeDrawsIdlePower) {
  sim::Scheduler sched;
  ServerNode node(&sched, EdisonProfile(), 0);
  sched.ScheduleAt(100.0, [] {});
  sched.Run();
  EXPECT_DOUBLE_EQ(node.power().current_watts(), 1.40);
  EXPECT_NEAR(node.power().CumulativeJoules(), 1.40 * 100.0, 1e-9);
}

sim::Process BusyLoop(ServerNode& node, double seconds) {
  // Saturate both cores for `seconds` of virtual time.
  const double minstr = node.cpu().total_dmips() * seconds;
  auto one = [](ServerNode& n, double w) -> sim::Process {
    co_await n.Compute(w);
  };
  auto a = sim::SpawnJoinable(node.scheduler(), one(node, minstr / 2));
  auto b = sim::SpawnJoinable(node.scheduler(), one(node, minstr / 2));
  co_await a.Join();
  co_await b.Join();
}

TEST(PowerTest, CpuSaturationRaisesPowerTowardBusy) {
  sim::Scheduler sched;
  ServerNode node(&sched, EdisonProfile(), 0);
  sim::Spawn(sched, BusyLoop(node, 10.0));
  sched.Run();
  const double runtime = sched.now();
  EXPECT_NEAR(runtime, 10.0, 1e-6);
  // CPU fully busy, other components idle: mix = cpu_weight.
  const auto& p = node.profile().power;
  const Joules expected =
      (p.idle + (p.busy - p.idle) * p.cpu_weight) * runtime;
  EXPECT_NEAR(node.power().CumulativeJoules(), expected, 1e-6);
  // After the job, power returns to idle.
  EXPECT_DOUBLE_EQ(node.power().current_watts(), p.idle);
}

TEST(PowerTest, EnergyNeverExceedsBusyEnvelope) {
  sim::Scheduler sched;
  ServerNode node(&sched, DellR620Profile(), 0);
  sim::Spawn(sched, BusyLoop(node, 5.0));
  sched.Run();
  const Joules j = node.power().CumulativeJoules();
  EXPECT_GT(j, node.profile().power.idle * sched.now() - 1e-9);
  EXPECT_LT(j, node.profile().power.busy * sched.now() + 1e-9);
}

TEST(PowerTest, AverageWattsBetweenIdleAndBusy) {
  sim::Scheduler sched;
  ServerNode node(&sched, EdisonProfile(), 0);
  sim::Spawn(sched, BusyLoop(node, 10.0));
  sched.ScheduleAt(20.0, [] {});  // 10 s busy + 10 s idle
  sched.Run();
  const Watts avg = node.power().CumulativeJoules() / sched.now();
  EXPECT_GT(avg, node.profile().power.idle);
  EXPECT_LT(avg, node.profile().power.busy);
}

TEST(PowerTest, MultipleComponentsStackUpToCap) {
  sim::Scheduler sched;
  ServerNode node(&sched, EdisonProfile(), 0);
  // Drive CPU, disk and both NIC directions simultaneously.
  auto drive = [&]() -> sim::Process {
    // One task per core so the CPU is fully busy, not half busy.
    auto cpu = [](ServerNode& n) -> sim::Process {
      co_await n.Compute(n.cpu().total_dmips() * 5.0 / 2.0);
    };
    auto disk = [](ServerNode& n) -> sim::Process {
      co_await n.storage().Read(
          static_cast<Bytes>(n.storage().spec().read_direct * 5.0), false);
    };
    auto net = [](ServerNode& n) -> sim::Process {
      co_await n.nic().tx().Serve(n.nic().bandwidth() * 5.0);
    };
    sim::Spawn(node.scheduler(), cpu(node));
    sim::Spawn(node.scheduler(), cpu(node));
    sim::Spawn(node.scheduler(), disk(node));
    sim::Spawn(node.scheduler(), net(node));
    co_return;
  };
  sim::Spawn(sched, drive());
  sched.Run(2.5);  // mid-flight
  const auto& p = node.profile().power;
  const double expected_mix =
      p.cpu_weight * 1.0 + p.storage_weight * 1.0 + p.nic_weight * 1.0;
  EXPECT_NEAR(node.power().current_watts(),
              p.idle + (p.busy - p.idle) * expected_mix, 1e-9);
  sched.Run();
}

TEST(ServerNodeTest, NamesAndIds) {
  sim::Scheduler sched;
  ServerNode node(&sched, EdisonProfile(), 7);
  EXPECT_EQ(node.id(), 7);
  EXPECT_EQ(node.name(), "edison-7");
  EXPECT_EQ(node.cpu().vcores(), 2);
}

}  // namespace
}  // namespace wimpy::hw
