#include "mapreduce/jobs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "mapreduce/testbed.h"

namespace wimpy::mapreduce {
namespace {

// Small clusters + scaled-down inputs keep these integration tests quick
// while exercising the full allocate/read/map/shuffle/reduce pipeline.

JobSpec SmallWordCount(const MrClusterConfig& config) {
  JobSpec spec = WordCountJob(config);
  spec.input_files = 20;
  spec.input_bytes = MB(100);
  spec.reducers = 8;
  return spec;
}

TEST(MrTestbedTest, ClusterDefaultsMatchSection52) {
  const MrClusterConfig edison = EdisonMrCluster(35);
  EXPECT_EQ(edison.hdfs.block_size, MiB(16));
  EXPECT_EQ(edison.hdfs.replication, 2);
  EXPECT_EQ(edison.yarn.node_vcores, 2);
  EXPECT_EQ(TotalVcores(edison), 70);
  const MrClusterConfig dell = DellMrCluster(2);
  EXPECT_EQ(dell.hdfs.block_size, MiB(64));
  EXPECT_EQ(dell.hdfs.replication, 1);
  EXPECT_EQ(TotalVcores(dell), 24);
}

TEST(MrTestbedTest, JobCatalogShapes) {
  const MrClusterConfig edison = EdisonMrCluster(35);
  const JobSpec wc = WordCountJob(edison);
  EXPECT_FALSE(wc.combine_inputs);
  EXPECT_FALSE(wc.has_combiner);
  const JobSpec wc2 = WordCount2Job(edison);
  EXPECT_TRUE(wc2.combine_inputs);
  EXPECT_TRUE(wc2.has_combiner);
  // ~15 MB splits with 20% packing slack, as tuned in the paper.
  EXPECT_NEAR(static_cast<double>(wc2.max_split_size),
              1.2 * GB(1) / 70.0, 2e6);
  const JobSpec pi = PiJob(edison);
  EXPECT_EQ(pi.synthetic_map_tasks, 70);
  EXPECT_EQ(pi.reducers, 1);
  const JobSpec ts = TeraSortJob(edison);
  // One 64 MiB block per input file (paper: 168 files for its ~10 GB of
  // teragen output; 10^10 bytes / 64 MiB = 149 here).
  EXPECT_EQ(ts.input_files,
            static_cast<int>(kTeraInputBytes / MiB(64)));
  EXPECT_DOUBLE_EQ(ts.job_output_ratio, 1.0);
  // Dell efficiency calibration present.
  EXPECT_LT(wc.EfficiencyFor("dell-r620"), 1.0);
  EXPECT_DOUBLE_EQ(wc.EfficiencyFor("edison"), 1.0);
}

TEST(MrJobTest, WordCountRunsToCompletion) {
  MrTestbed testbed(EdisonMrCluster(4));
  JobSpec spec = SmallWordCount(testbed.config());
  LoadInputFor(spec, &testbed);
  const MrRunResult result = testbed.RunJob(spec);
  EXPECT_GT(result.job.elapsed, 10.0);
  EXPECT_LT(result.job.elapsed, 3000.0);
  EXPECT_EQ(result.job.map_tasks, 20);
  EXPECT_EQ(result.job.reduce_tasks, 8);
  EXPECT_GT(result.slave_joules, 0);
  EXPECT_GT(result.work_done_per_joule, 0);
  EXPECT_FALSE(result.timeline.times.empty());
}

TEST(MrJobTest, TimelineShowsUtilisationAndProgress) {
  MrTestbed testbed(EdisonMrCluster(4));
  JobSpec spec = SmallWordCount(testbed.config());
  LoadInputFor(spec, &testbed);
  const MrRunResult result = testbed.RunJob(spec);
  const std::vector<double> map = result.timeline.Column("job.map_pct");
  const std::vector<double> cpu = result.timeline.Column("slaves.cpu_pct");
  const std::vector<double> mem = result.timeline.Column("slaves.mem_pct");
  ASSERT_FALSE(map.empty());
  // Map progress is monotone and ends at 100; CPU shows real activity.
  EXPECT_TRUE(std::is_sorted(map.begin(), map.end()));
  EXPECT_NEAR(map.back(), 100.0, 1e-9);
  EXPECT_GT(*std::max_element(cpu.begin(), cpu.end()), 50.0);
  // Memory telemetry includes the daemon baseline (~37% on Edison).
  EXPECT_GT(mem.front(), 30.0);
}

// One line per timeline sample: the time and every column, at %.17g.
std::vector<std::string> TimelineRows(const MrRunResult& result) {
  const obs::MetricsSeries& t = result.timeline;
  const std::vector<double> cpu = t.Column("slaves.cpu_pct");
  const std::vector<double> mem = t.Column("slaves.mem_pct");
  const std::vector<double> power = t.Column("slaves.power_w");
  const std::vector<double> map = t.Column("job.map_pct");
  const std::vector<double> reduce = t.Column("job.reduce_pct");
  std::vector<std::string> rows;
  for (std::size_t i = 0; i < t.times.size(); ++i) {
    char line[256];
    std::snprintf(line, sizeof(line), "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g",
                  t.times[i], cpu[i], mem[i], power[i], map[i], reduce[i]);
    rows.emplace_back(line);
  }
  return rows;
}

// Every column of every sample of one word-count timeline (time, CPU%,
// memory%, power, map%, reduce%): the sample count, the first and last
// rows in full, and a 64-bit FNV-1a digest over all rows.
TEST(MrJobTest, TimelineIsPinnedBitForBit) {
  MrTestbed testbed(EdisonMrCluster(4));
  JobSpec spec = SmallWordCount(testbed.config());
  LoadInputFor(spec, &testbed);
  const std::vector<std::string> rows = TimelineRows(testbed.RunJob(spec));
  std::uint64_t digest = 14695981039346656037ull;
  for (const std::string& row : rows) {
    for (const char c : row + "\n") {
      digest = (digest ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
  }
  ASSERT_EQ(rows.size(), 286u);
  EXPECT_EQ(rows.front(), "0,0,36,5.5999999999999996,0,0");
  EXPECT_EQ(rows.back(), "285,0,66,5.6840000000000002,100,83.500000000000014");
  EXPECT_EQ(digest, 948824458137097591ull);
}

TEST(MrJobTest, CombinerCutsShuffleBytes) {
  MrTestbed testbed1(EdisonMrCluster(4));
  JobSpec wc = SmallWordCount(testbed1.config());
  LoadInputFor(wc, &testbed1);
  const MrRunResult r1 = testbed1.RunJob(wc);

  MrTestbed testbed2(EdisonMrCluster(4));
  JobSpec wc2 = wc;
  wc2.name = "wordcount2";
  wc2.combine_inputs = true;
  wc2.max_split_size = MiB(12);
  wc2.has_combiner = true;
  wc2.combiner_survival = 0.05;
  wc2.combiner_minstr_per_mb = 500;
  LoadInputFor(wc2, &testbed2);
  const MrRunResult r2 = testbed2.RunJob(wc2);

  EXPECT_LT(r2.job.map_output_bytes, r1.job.map_output_bytes / 10);
  EXPECT_LT(r2.job.map_tasks, r1.job.map_tasks);
  EXPECT_LT(r2.job.elapsed, r1.job.elapsed);
  EXPECT_LT(r2.slave_joules, r1.slave_joules);
}

TEST(MrJobTest, DataLocalityIsHighWithReplication) {
  MrTestbed testbed(EdisonMrCluster(8));
  JobSpec spec = SmallWordCount(testbed.config());
  LoadInputFor(spec, &testbed);
  const MrRunResult result = testbed.RunJob(spec);
  // Paper tunes replication so ~95% of maps are data-local.
  EXPECT_GT(result.job.data_local_fraction, 0.7);
}

TEST(MrJobTest, PiJobComputeBound) {
  MrTestbed testbed(EdisonMrCluster(4));
  const JobSpec pi = PiJob(testbed.config(), 100'000'000LL);
  const MrRunResult result = testbed.RunJob(pi);
  EXPECT_EQ(result.job.map_tasks, 8);  // one per vcore
  EXPECT_GT(result.job.elapsed, 5.0);
  // Compute-only: no HDFS input -> no work-done-per-joule metric.
  EXPECT_EQ(result.work_done_per_joule, 0);
}

TEST(MrJobTest, ReduceSlowstartDelaysReducers) {
  MrTestbed testbed(EdisonMrCluster(4));
  JobSpec spec = SmallWordCount(testbed.config());
  LoadInputFor(spec, &testbed);
  const MrRunResult result = testbed.RunJob(spec);
  EXPECT_GT(result.job.first_reduce_launch, result.job.first_map_launch);
  EXPECT_LT(result.job.first_reduce_launch, result.job.finished);
}

TEST(MrJobTest, DellClusterRunsSameJobFaster) {
  MrTestbed edison(EdisonMrCluster(4));
  JobSpec e_spec = SmallWordCount(edison.config());
  LoadInputFor(e_spec, &edison);
  const MrRunResult e = edison.RunJob(e_spec);

  MrTestbed dell(DellMrCluster(2));
  JobSpec d_spec = SmallWordCount(dell.config());
  LoadInputFor(d_spec, &dell);
  const MrRunResult d = dell.RunJob(d_spec);

  EXPECT_LT(d.job.elapsed, e.job.elapsed);
  // ...but at far higher power.
  EXPECT_GT(d.mean_slave_power, 20 * e.mean_slave_power);
}

}  // namespace
}  // namespace wimpy::mapreduce
