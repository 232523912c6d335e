// Determinism and statistics tests for the parallel replication runner.
//
// The contract under test (docs/parallel.md): a sweep's results are a
// pure function of (base_seed, configs, replications) — worker count and
// completion order must never leak in. The replication body here is a
// real mini-simulation (Scheduler + FairShareServer + coroutine jobs +
// Rng draws), so a bit-identity failure would catch both runner bugs and
// hidden shared mutable state in the engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <vector>

#include "common/random.h"
#include "common/summary.h"
#include "hw/profiles.h"
#include "sim/fair_share.h"
#include "sim/process.h"
#include "sim/replication.h"
#include "sim/scheduler.h"

namespace wimpy::sim {
namespace {

struct MiniConfig {
  double capacity = 8.0;
  double per_job_cap = 2.0;
  int jobs = 40;
};

// Every field is produced by the simulation; comparing replications for
// bit-identity across thread counts compares all of them.
struct MiniResult {
  double finish_time = 0.0;
  double total_served = 0.0;
  double mean_busy = 0.0;
  std::uint64_t draw_hash = 0;
};

bool BitIdentical(const MiniResult& a, const MiniResult& b) {
  return std::memcmp(&a, &b, sizeof(MiniResult)) == 0;
}

Process ServeOne(Scheduler& sched, FairShareServer& server, double at,
                 double demand) {
  co_await Delay(sched, at);
  co_await server.Serve(demand);
}

MiniResult RunMiniSim(const MiniConfig& config, Rng& root) {
  Scheduler sched;
  FairShareServer server(&sched, config.capacity, config.per_job_cap);
  Rng arrivals = root.Fork();
  Rng demands = root.Fork();
  std::uint64_t hash = 1469598103934665603ull;
  std::vector<ProcessRef> refs;
  for (int i = 0; i < config.jobs; ++i) {
    const double at = arrivals.Uniform(0.0, 5.0);
    const double demand = demands.Uniform(0.5, 20.0);
    std::uint64_t bits;
    std::memcpy(&bits, &at, sizeof(bits));
    hash = (hash ^ bits) * 1099511628211ull;
    std::memcpy(&bits, &demand, sizeof(bits));
    hash = (hash ^ bits) * 1099511628211ull;
    refs.push_back(SpawnJoinable(sched, ServeOne(sched, server, at, demand)));
  }
  sched.Run();
  MiniResult r;
  r.finish_time = sched.now();
  r.total_served = server.total_work_served();
  r.mean_busy = server.AverageBusyFraction();
  r.draw_hash = hash;
  return r;
}

std::vector<MiniConfig> TwoConfigs() {
  return {MiniConfig{8.0, 2.0, 40}, MiniConfig{3.0, 3.0, 25}};
}

TEST(ReplicationSweepTest, ParallelBitIdenticalToSerial) {
  SweepPlan serial{/*replications=*/8, /*threads=*/1, /*base_seed=*/77};
  SweepPlan parallel{/*replications=*/8, /*threads=*/4, /*base_seed=*/77};
  const auto configs = TwoConfigs();
  const auto expected = RunSweep(configs, serial, RunMiniSim);
  const auto actual = RunSweep(configs, parallel, RunMiniSim);

  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t c = 0; c < expected.size(); ++c) {
    ASSERT_EQ(expected[c].size(), actual[c].size());
    for (std::size_t r = 0; r < expected[c].size(); ++r) {
      EXPECT_TRUE(BitIdentical(expected[c][r], actual[c][r]))
          << "config " << c << " replication " << r;
    }
  }
}

TEST(ReplicationSweepTest, EveryThreadCountAgrees) {
  const auto configs = TwoConfigs();
  SweepPlan base{/*replications=*/6, /*threads=*/1, /*base_seed=*/5};
  const auto expected = RunSweep(configs, base, RunMiniSim);
  for (int threads = 2; threads <= 8; ++threads) {
    SweepPlan plan{/*replications=*/6, threads, /*base_seed=*/5};
    const auto actual = RunSweep(configs, plan, RunMiniSim);
    for (std::size_t c = 0; c < expected.size(); ++c) {
      for (std::size_t r = 0; r < expected[c].size(); ++r) {
        EXPECT_TRUE(BitIdentical(expected[c][r], actual[c][r]))
            << "threads " << threads << " config " << c << " rep " << r;
      }
    }
  }
}

// Fork-tree property at sweep granularity: appending a configuration (or
// more replications) must not perturb the draws of existing cells.
TEST(ReplicationSweepTest, AppendingConfigDoesNotPerturbOthers) {
  SweepPlan plan{/*replications=*/4, /*threads=*/3, /*base_seed=*/11};
  std::vector<MiniConfig> one = {MiniConfig{8.0, 2.0, 40}};
  std::vector<MiniConfig> two = TwoConfigs();
  const auto narrow = RunSweep(one, plan, RunMiniSim);
  const auto wide = RunSweep(two, plan, RunMiniSim);
  for (std::size_t r = 0; r < narrow[0].size(); ++r) {
    EXPECT_TRUE(BitIdentical(narrow[0][r], wide[0][r])) << "rep " << r;
  }

  SweepPlan more{/*replications=*/9, /*threads=*/3, /*base_seed=*/11};
  const auto extended = RunSweep(two, more, RunMiniSim);
  for (std::size_t c = 0; c < wide.size(); ++c) {
    for (std::size_t r = 0; r < wide[c].size(); ++r) {
      EXPECT_TRUE(BitIdentical(wide[c][r], extended[c][r]))
          << "config " << c << " rep " << r;
    }
  }
}

TEST(ReplicationSweepTest, SeedsAreDistinctAcrossGrid) {
  std::set<std::uint64_t> seeds;
  for (int c = 0; c < 64; ++c) {
    for (int r = 0; r < 64; ++r) {
      seeds.insert(ReplicationSeed(123, c, r));
    }
  }
  EXPECT_EQ(seeds.size(), 64u * 64u);
  EXPECT_NE(ReplicationSeed(1, 0, 0), ReplicationSeed(2, 0, 0));
}

TEST(ReplicationSweepTest, EveryTaskRunsExactlyOnce) {
  std::vector<int> configs(7, 0);
  SweepPlan plan{/*replications=*/5, /*threads=*/4, /*base_seed=*/1};
  std::atomic<int> calls{0};
  const auto results = RunSweep(configs, plan, [&](const int&, Rng& root) {
    calls.fetch_add(1);
    return root.Next();
  });
  EXPECT_EQ(calls.load(), 35);
  ASSERT_EQ(results.size(), 7u);
  std::set<std::uint64_t> draws;
  for (const auto& per_config : results) {
    ASSERT_EQ(per_config.size(), 5u);
    for (std::uint64_t d : per_config) draws.insert(d);
  }
  EXPECT_EQ(draws.size(), 35u) << "per-cell root streams must differ";
}

TEST(ReplicationSweepTest, PropagatesTaskException) {
  std::vector<int> configs(4, 0);
  SweepPlan plan{/*replications=*/2, /*threads=*/3, /*base_seed=*/1};
  EXPECT_THROW(RunSweep(configs, plan,
                        [](const int&, Rng&) -> int {
                          throw std::runtime_error("replication failed");
                        }),
               std::runtime_error);
}

// The registry is exercised from replication bodies; hammer first access
// and steady-state reads from the pool (meaningful under TSan, see
// docs/parallel.md).
TEST(ReplicationSweepTest, ProfileRegistrySafeFromReplications) {
  std::vector<int> configs(16, 0);
  SweepPlan plan{/*replications=*/4, /*threads=*/8, /*base_seed=*/3};
  const auto results = RunSweep(configs, plan, [](const int&, Rng&) {
    const auto p = hw::ProfileRegistry::Get("edison");
    return p.ok() ? p.value().cpu.cores : -1;
  });
  for (const auto& per_config : results) {
    for (int cores : per_config) EXPECT_EQ(cores, 2);
  }
}

TEST(SummaryTest, KnownSamples) {
  // mean 10, sample stddev 2.582..., t_{0.975,3} = 3.182.
  const MetricSummary s = Summarize({7.0, 9.0, 11.0, 13.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 10.0);
  EXPECT_DOUBLE_EQ(s.min, 7.0);
  EXPECT_DOUBLE_EQ(s.max, 13.0);
  EXPECT_NEAR(s.stddev, 2.581988897, 1e-8);
  EXPECT_NEAR(s.ci95_half_width, 3.182 * 2.581988897 / 2.0, 1e-6);
}

TEST(SummaryTest, DegenerateCounts) {
  EXPECT_EQ(Summarize({}).count, 0u);
  const MetricSummary one = Summarize({42.0});
  EXPECT_DOUBLE_EQ(one.mean, 42.0);
  EXPECT_DOUBLE_EQ(one.ci95_half_width, 0.0);
  EXPECT_EQ(FormatMeanCI(one, 0), "42");
}

TEST(SummaryTest, StudentTQuantiles) {
  EXPECT_NEAR(StudentT95(1), 12.706, 1e-9);
  EXPECT_NEAR(StudentT95(4), 2.776, 1e-9);
  EXPECT_NEAR(StudentT95(30), 2.042, 1e-9);
  EXPECT_NEAR(StudentT95(40), 2.021, 0.005);
  EXPECT_NEAR(StudentT95(120), 1.980, 0.005);
  EXPECT_NEAR(StudentT95(1000000), 1.96, 0.001);
  // Monotone decreasing toward the normal quantile.
  for (std::size_t dof = 1; dof < 200; ++dof) {
    EXPECT_GE(StudentT95(dof), StudentT95(dof + 1)) << dof;
    EXPECT_GT(StudentT95(dof), 1.9599);
  }
}

TEST(SummaryTest, FormatMeanCIWithSpread) {
  const MetricSummary s = Summarize({9.0, 10.0, 11.0});
  EXPECT_EQ(FormatMeanCI(s, 1), "10.0±2.5");  // t_{0.975,2}*1/sqrt(3)=2.48
}

}  // namespace
}  // namespace wimpy::sim
