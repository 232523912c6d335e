// MapReduce testbed: 1 Dell master + N slaves, HDFS + YARN + telemetry.
//
// Mirrors the paper's hybrid deployment (§5.2): the namenode and resource
// manager always run on a Dell R620 master (an Edison master cannot hold
// the global state), the slaves run datanode + nodemanager. Energy
// accounting EXCLUDES the master on both platforms, exactly as the paper
// computes its joules (the master idles at ~1% CPU either way).
#ifndef WIMPY_MAPREDUCE_TESTBED_H_
#define WIMPY_MAPREDUCE_TESTBED_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "mapreduce/hdfs.h"
#include "mapreduce/job.h"
#include "mapreduce/yarn.h"
#include "obs/metrics.h"

namespace wimpy::obs {
class Tracer;
}  // namespace wimpy::obs

namespace wimpy::mapreduce {

struct MrClusterConfig {
  hw::HardwareProfile slave_profile;
  int slave_count = 35;
  std::string slave_group = "edison-room";
  HdfsConfig hdfs;
  YarnConfig yarn;
  // OS + datanode + nodemanager resident memory per slave (360 MB Edison,
  // 4 GB Dell per §5.2).
  Bytes slave_baseline_memory = MB(360);
  // Heterogeneity/straggler injection: the first `throttled_slaves` nodes
  // run their CPU at `throttle_factor` of nominal (e.g. thermal
  // throttling, a weak card, a failing breakout board — §7 reliability).
  int throttled_slaves = 0;
  double throttle_factor = 0.5;
  std::uint64_t seed = 20160501;
  // Optional observability sinks (docs/observability.md); borrowed, may
  // be null. With `tracer`, RunJob wraps the job in a span and every
  // map/reduce attempt gets its own. With `metrics`, the testbed
  // publishes per-slave utilisation/power, YARN, HDFS and link probes
  // sampled at 1 s of simulated time for the duration of each job.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

// §5.2 tunings: block 16 MB / replication 2 / 600 MB usable / 2 vcores on
// Edison; block 64 MB / replication 1 / 12 GB / 12 vcores on Dell.
MrClusterConfig EdisonMrCluster(int slaves);
MrClusterConfig DellMrCluster(int slaves);

struct MrRunResult {
  JobResult job;
  Joules slave_joules = 0;  // master excluded
  Watts mean_slave_power = 0;
  // 1 Hz, slaves only: `slaves.cpu_pct|mem_pct|power_w` (see
  // Cluster::PublishMetrics), then `job.map_pct` and `job.reduce_pct`.
  obs::MetricsSeries timeline;
  double work_done_per_joule = 0;  // input MB per joule (0 for pi)
};

class MrTestbed {
 public:
  explicit MrTestbed(const MrClusterConfig& config);

  MrTestbed(const MrTestbed&) = delete;
  MrTestbed& operator=(const MrTestbed&) = delete;

  Hdfs& hdfs() { return *hdfs_; }
  Yarn& yarn() { return *yarn_; }
  cluster::Cluster& cluster() { return cluster_; }
  sim::Scheduler& scheduler() { return sched_; }
  const MrClusterConfig& config() const { return config_; }

  // Registers input files (metadata + placement only, like pre-loaded
  // HDFS data).
  void LoadInput(const std::string& prefix, int files, Bytes total_bytes);

  // Runs one job to completion on this testbed and reports runtime,
  // energy, and the 1 Hz telemetry timeline.
  MrRunResult RunJob(const JobSpec& spec);

 private:
  MrClusterConfig config_;
  sim::Scheduler sched_;
  net::Fabric fabric_;
  cluster::Cluster cluster_;
  std::vector<hw::ServerNode*> slaves_;
  std::unique_ptr<Hdfs> hdfs_;
  std::unique_ptr<Yarn> yarn_;
  std::uint64_t job_seed_ = 1;
};

}  // namespace wimpy::mapreduce

#endif  // WIMPY_MAPREDUCE_TESTBED_H_
