#include <gtest/gtest.h>

#include <vector>

#include "hw/cpu.h"
#include "hw/memory.h"
#include "hw/nic.h"
#include "hw/profiles.h"
#include "hw/storage.h"
#include "sim/process.h"
#include "sim/scheduler.h"

namespace wimpy::hw {
namespace {

sim::Process RunCompute(CpuModel& cpu, double minstr, sim::Scheduler& sched,
                        double* done_at) {
  co_await cpu.Execute(minstr);
  *done_at = sched.now();
}

TEST(CpuModelTest, SingleThreadSpeedMatchesDmips) {
  sim::Scheduler sched;
  CpuModel cpu(&sched, EdisonProfile().cpu);
  double done_at = -1;
  // 632.3 Minstr at 632.3 DMIPS -> exactly 1 second.
  sim::Spawn(sched, RunCompute(cpu, 632.3, sched, &done_at));
  sched.Run();
  EXPECT_NEAR(done_at, 1.0, 1e-9);
}

TEST(CpuModelTest, TwoTasksUseBothCores) {
  sim::Scheduler sched;
  CpuModel cpu(&sched, EdisonProfile().cpu);
  std::vector<double> done(2, -1);
  for (int i = 0; i < 2; ++i) {
    sim::Spawn(sched, RunCompute(cpu, 632.3, sched, &done[i]));
  }
  sched.Run();
  // Two cores -> both finish in 1 s, not 2 s.
  EXPECT_NEAR(done[0], 1.0, 1e-9);
  EXPECT_NEAR(done[1], 1.0, 1e-9);
}

TEST(CpuModelTest, OversubscriptionSharesFairly) {
  sim::Scheduler sched;
  CpuModel cpu(&sched, EdisonProfile().cpu);
  std::vector<double> done(4, -1);
  for (int i = 0; i < 4; ++i) {
    sim::Spawn(sched, RunCompute(cpu, 632.3, sched, &done[i]));
  }
  sched.Run();
  // 4 tasks on 2 cores -> 2 s each.
  for (double t : done) EXPECT_NEAR(t, 2.0, 1e-9);
}

TEST(CpuModelTest, DellRunsSameWorkFaster) {
  sim::Scheduler schedE, schedD;
  CpuModel edison(&schedE, EdisonProfile().cpu);
  CpuModel dell(&schedD, DellR620Profile().cpu);
  double edison_done = -1, dell_done = -1;
  const double work = 10000.0;
  sim::Spawn(schedE, RunCompute(edison, work, schedE, &edison_done));
  sim::Spawn(schedD, RunCompute(dell, work, schedD, &dell_done));
  schedE.Run();
  schedD.Run();
  EXPECT_NEAR(edison_done / dell_done, 18.0, 0.1);  // single-thread gap
}

sim::Process RunTransfer(MemoryModel& mem, Bytes n, sim::Scheduler& sched,
                         double* done_at) {
  co_await mem.Transfer(n);
  *done_at = sched.now();
}

TEST(MemoryModelTest, SingleThreadBandwidthBelowPeak) {
  sim::Scheduler sched;
  MemoryModel mem(&sched, EdisonProfile().memory);
  double done_at = -1;
  sim::Spawn(sched, RunTransfer(mem, GB(1.1), sched, &done_at));
  sched.Run();
  // One stream is capped at 1.1 GB/s even though the bus can do 2.2.
  EXPECT_NEAR(done_at, GB(1.1) / GBps(1.1), 1e-6);
}

TEST(MemoryModelTest, TwoThreadsSaturateBus) {
  sim::Scheduler sched;
  MemoryModel mem(&sched, EdisonProfile().memory);
  std::vector<double> done(2, -1);
  for (int i = 0; i < 2; ++i) {
    sim::Spawn(sched, RunTransfer(mem, GB(1.1), sched, &done[i]));
  }
  sched.Run();
  // Two streams at 1.1 GB/s each = full 2.2 GB/s; same time as one stream.
  EXPECT_NEAR(done[0], GB(1.1) / GBps(1.1), 1e-6);
}

TEST(MemoryModelTest, CapacityReservations) {
  sim::Scheduler sched;
  MemoryModel mem(&sched, EdisonProfile().memory);
  EXPECT_TRUE(mem.TryReserve(MB(600)));
  EXPECT_NEAR(mem.used_fraction(), 0.6, 0.01);
  EXPECT_FALSE(mem.TryReserve(MB(600)));  // would exceed 1 GB
  mem.Free(MB(600));
  EXPECT_EQ(mem.used(), 0);
  EXPECT_TRUE(mem.TryReserve(MB(1000)));
}

sim::Process DoRead(StorageDevice& dev, Bytes n, bool buffered,
                    sim::Scheduler& sched, double* done_at) {
  co_await dev.Read(n, buffered);
  *done_at = sched.now();
}

TEST(StorageDeviceTest, DirectReadAtMeasuredRate) {
  sim::Scheduler sched;
  StorageDevice dev(&sched, EdisonProfile().storage);
  double done_at = -1;
  sim::Spawn(sched, DoRead(dev, MB(195), /*buffered=*/false, sched,
                           &done_at));
  sched.Run();
  EXPECT_NEAR(done_at, 10.0, 1e-6);  // 195 MB at 19.5 MB/s
}

TEST(StorageDeviceTest, BufferedReadMuchFaster) {
  sim::Scheduler sched;
  StorageDevice dev(&sched, EdisonProfile().storage);
  double direct = -1, buffered = -1;
  sim::Spawn(sched, DoRead(dev, MB(100), false, sched, &direct));
  sched.Run();
  sim::Scheduler sched2;
  StorageDevice dev2(&sched2, EdisonProfile().storage);
  sim::Spawn(sched2, DoRead(dev2, MB(100), true, sched2, &buffered));
  sched2.Run();
  EXPECT_NEAR(direct / buffered, 737.0 / 19.5, 0.01);
}

TEST(StorageDeviceTest, ConcurrentOpsShareChannel) {
  sim::Scheduler sched;
  StorageDevice dev(&sched, EdisonProfile().storage);
  std::vector<double> done(2, -1);
  for (int i = 0; i < 2; ++i) {
    sim::Spawn(sched, DoRead(dev, MB(195), false, sched, &done[i]));
  }
  sched.Run();
  // Two equal reads share the device -> each takes twice as long.
  EXPECT_NEAR(done[0], 20.0, 1e-6);
  EXPECT_NEAR(done[1], 20.0, 1e-6);
}

sim::Process DoRandomRead(StorageDevice& dev, sim::Scheduler& sched,
                          double* done_at) {
  co_await dev.RandomRead(KiB(4));
  *done_at = sched.now();
}

TEST(StorageDeviceTest, RandomReadPaysLatency) {
  sim::Scheduler sched;
  StorageDevice dev(&sched, EdisonProfile().storage);
  double done_at = -1;
  sim::Spawn(sched, DoRandomRead(dev, sched, &done_at));
  sched.Run();
  EXPECT_GT(done_at, Milliseconds(7.0));
  EXPECT_LT(done_at, Milliseconds(7.5));
}

TEST(StorageDeviceTest, ByteAccounting) {
  sim::Scheduler sched;
  StorageDevice dev(&sched, DellR620Profile().storage);
  double done_at = -1;
  sim::Spawn(sched, DoRead(dev, MB(10), true, sched, &done_at));
  sched.Run();
  EXPECT_EQ(dev.bytes_read(), MB(10));
  EXPECT_EQ(dev.bytes_written(), 0);
}

TEST(NicModelTest, DirectionsAreIndependent) {
  sim::Scheduler sched;
  NicModel nic(&sched, EdisonProfile().nic);
  double tx_done = -1, rx_done = -1;
  auto drive = [&](sim::FairShareServer& dir, double* done) -> sim::Process {
    co_await dir.Serve(static_cast<double>(MB(12.5)));
    *done = sched.now();
  };
  sim::Spawn(sched, drive(nic.tx(), &tx_done));
  sim::Spawn(sched, drive(nic.rx(), &rx_done));
  sched.Run();
  // 12.5 MB at 100 Mbps (12.5 MB/s) = 1 s in each direction concurrently.
  EXPECT_NEAR(tx_done, 1.0, 1e-6);
  EXPECT_NEAR(rx_done, 1.0, 1e-6);
}

}  // namespace
}  // namespace wimpy::hw
