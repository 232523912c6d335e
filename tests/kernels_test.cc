#include <gtest/gtest.h>

#include "hw/profiles.h"
#include "kernels/dhrystone.h"
#include "kernels/sysbench.h"

namespace wimpy::kernels {
namespace {

TEST(DhrystoneTest, RunsAndScores) {
  const auto result = RunDhrystone(200000);
  EXPECT_EQ(result.iterations, 200000);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_GT(result.dmips, 0.0);
  EXPECT_NE(result.checksum, 0u);
}

TEST(DhrystoneTest, ChecksumDeterministicPerCount) {
  const auto a = RunDhrystone(50000);
  const auto b = RunDhrystone(50000);
  EXPECT_EQ(a.checksum, b.checksum);
  const auto c = RunDhrystone(50001);
  EXPECT_NE(a.checksum, c.checksum);
}

TEST(DhrystoneTest, MinstrConversion) {
  // 100 million runs / 1757 = the paper's DMIPS formula denominator.
  EXPECT_NEAR(MinstrForIterations(100e6), 56915.0, 1.0);
  // One second of work on an Edison thread.
  EXPECT_NEAR(MinstrForIterations(632.3 * 1757.0), 632.3, 1e-9);
}

TEST(SysbenchCpuTest, CountPrimesIsCorrect) {
  EXPECT_EQ(CountPrimes(10), 4);     // 2 3 5 7
  EXPECT_EQ(CountPrimes(100), 25);
  EXPECT_EQ(CountPrimes(20000), 2262);
}

TEST(SysbenchCpuTest, CalibrationMatchesFigures2And3) {
  const double event = SysbenchCpuEventDemandMinstr(kSysbenchMaxPrime);
  const double total = kSysbenchEvents * event;
  // One Edison thread: ~570 s; one Dell thread: ~32 s (15-18x gap).
  const double edison_s = total / hw::EdisonProfile().cpu.dmips_per_thread;
  const double dell_s = total / hw::DellR620Profile().cpu.dmips_per_thread;
  EXPECT_NEAR(edison_s, 569.0, 5.0);
  EXPECT_NEAR(dell_s, 31.6, 0.5);
  EXPECT_NEAR(edison_s / dell_s, 18.0, 0.1);
  EXPECT_GT(event, 0);
}

TEST(SysbenchCpuTest, DemandScalesSuperlinearlyWithLimit) {
  const double d1 = SysbenchCpuEventDemandMinstr(20000);
  const double d2 = SysbenchCpuEventDemandMinstr(80000);
  EXPECT_NEAR(d2 / d1, 8.0, 1e-9);  // (4x)^1.5
}

TEST(SysbenchMemoryTest, HostBenchProducesRate) {
  const auto r = RunHostMemoryBench(KiB(64), MiB(64));
  EXPECT_GT(r.rate, 0.0);
}

TEST(SysbenchMemoryTest, ModelSaturatesWithThreads) {
  const auto spec = hw::EdisonProfile().memory;
  const auto r1 = ModelMemoryRate(spec, MiB(1), 1);
  const auto r2 = ModelMemoryRate(spec, MiB(1), 2);
  const auto r4 = ModelMemoryRate(spec, MiB(1), 4);
  EXPECT_NEAR(r2 / r1, 2.0, 1e-9);  // scales to 2 threads
  EXPECT_NEAR(r4, r2, 1e-9);        // then saturates (paper: beyond 2)
  EXPECT_NEAR(r2, GBps(2.2) * (1.0 / (1.0 + 16.0 / 1024.0)), 1e6);
}

TEST(SysbenchMemoryTest, ModelPenalisesSmallBlocks) {
  const auto spec = hw::DellR620Profile().memory;
  const auto small = ModelMemoryRate(spec, KiB(4), 16);
  const auto large = ModelMemoryRate(spec, MiB(1), 16);
  EXPECT_LT(small, 0.25 * large);
  // Plateau: 256 KiB within ~5% of 1 MiB.
  const auto mid = ModelMemoryRate(spec, KiB(256), 16);
  EXPECT_GT(mid, 0.95 * large);
}

TEST(SysbenchMemoryTest, DellSaturatesAtTwelveThreads) {
  const auto spec = hw::DellR620Profile().memory;
  EXPECT_LT(ModelMemoryRate(spec, MiB(1), 11),
            ModelMemoryRate(spec, MiB(1), 12));
  EXPECT_NEAR(ModelMemoryRate(spec, MiB(1), 12),
              ModelMemoryRate(spec, MiB(1), 16), 1e-9);
}

}  // namespace
}  // namespace wimpy::kernels
