#include "mapreduce/testbed.h"

#include <vector>

#include "hw/profiles.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/process.h"

namespace wimpy::mapreduce {

MrClusterConfig EdisonMrCluster(int slaves) {
  MrClusterConfig cfg;
  cfg.slave_profile = hw::EdisonProfile();
  cfg.slave_count = slaves;
  cfg.slave_group = "edison-room";
  cfg.hdfs.block_size = MiB(16);
  cfg.hdfs.replication = slaves >= 2 ? 2 : 1;
  cfg.yarn.node_usable_memory = MB(600);
  cfg.yarn.node_vcores = 2;
  cfg.yarn.am_memory = MB(100);
  cfg.slave_baseline_memory = MB(360);
  return cfg;
}

MrClusterConfig DellMrCluster(int slaves) {
  MrClusterConfig cfg;
  cfg.slave_profile = hw::DellR620Profile();
  cfg.slave_count = slaves;
  cfg.slave_group = "dell-room";
  cfg.hdfs.block_size = MiB(64);
  cfg.hdfs.replication = 1;
  cfg.yarn.node_usable_memory = GB(12);
  cfg.yarn.node_vcores = 12;
  cfg.yarn.am_memory = MB(500);
  cfg.slave_baseline_memory = GB(4);
  return cfg;
}

MrTestbed::MrTestbed(const MrClusterConfig& config)
    : config_(config), fabric_(&sched_), cluster_(&sched_, &fabric_) {
  // The hybrid deployment: a Dell master holds namenode + RM (excluded
  // from energy accounting); the slaves run the data/compute planes.
  cluster_.AddNodes(hw::DellR620Profile(), 1, "master", "dell-room");
  if (config_.throttled_slaves > 0) {
    // Heterogeneous fleet: the first K slaves run degraded CPUs.
    hw::HardwareProfile slow = config_.slave_profile;
    slow.name = config_.slave_profile.name + "-throttled";
    slow.cpu.dmips_per_thread *= config_.throttle_factor;
    const int k = std::min(config_.throttled_slaves, config_.slave_count);
    slaves_ = cluster_.AddNodes(slow, k, "mr-slave", config_.slave_group);
    auto healthy = cluster_.AddNodes(config_.slave_profile,
                                     config_.slave_count - k, "mr-slave",
                                     config_.slave_group);
    slaves_.insert(slaves_.end(), healthy.begin(), healthy.end());
  } else {
    slaves_ = cluster_.AddNodes(config_.slave_profile, config_.slave_count,
                                "mr-slave", config_.slave_group);
  }
  // A one-rack tree, the slaves' room, with the master's Dell room
  // attached (paper §5.1.2); a Dell cluster is one room with no link.
  net::HierarchicalTopology rooms(
      &fabric_, {.racks = 1, .rack_name = config_.slave_group});
  if (config_.slave_group != "dell-room") {
    rooms.AttachToCore("dell-room", net::kEdisonDellLink);
  }

  // OS + datanode + nodemanager resident baselines, so memory telemetry
  // starts where the paper's does (~37% on Edison).
  for (auto* node : slaves_) {
    node->memory().TryReserve(config_.slave_baseline_memory);
  }

  Rng seeder(config_.seed);
  hdfs_ = std::make_unique<Hdfs>(&fabric_, slaves_, config_.hdfs,
                                 seeder.Next());
  yarn_ = std::make_unique<Yarn>(slaves_, config_.yarn);
  job_seed_ = seeder.Next();

  if (config_.metrics != nullptr) {
    for (std::size_t i = 0; i < slaves_.size(); ++i) {
      slaves_[i]->PublishMetrics(config_.metrics,
                                 "slave" + std::to_string(i));
    }
    yarn_->PublishMetrics(config_.metrics, "yarn");
    hdfs_->PublishMetrics(config_.metrics, "hdfs");
    fabric_.PublishMetrics(config_.metrics, "net");
  }
}

void MrTestbed::LoadInput(const std::string& prefix, int files,
                          Bytes total_bytes) {
  hdfs_->LoadFiles(prefix, files, total_bytes);
}

MrRunResult MrTestbed::RunJob(const JobSpec& spec) {
  MapReduceJob job(&fabric_, hdfs_.get(), yarn_.get(), spec,
                   config_.slave_profile.name, job_seed_++);

  // Root of the job's causal trace tree: a span on track 0 named after
  // the job itself (dynamic name, interned for tracer lifetime); task
  // attempts become cross-track children, so Perfetto draws flow arrows
  // job -> attempt.
  std::unique_ptr<obs::CausalSpan> job_span;
  if (config_.tracer != nullptr) {
    job_span = std::make_unique<obs::CausalSpan>(
        obs::RootTrace(config_.tracer, &sched_, /*track=*/0),
        config_.tracer->Intern(spec.name), obs::Category::kApp);
  }
  job.set_trace(job_span != nullptr ? job_span->handle()
                                    : obs::TraceHandle{});

  obs::MetricsRegistry timeline;
  cluster_.PublishMetrics(&timeline, {"mr-slave"}, "slaves");
  timeline.Add("job.map_pct", [&job] { return job.MapProgressPct(); });
  timeline.Add("job.reduce_pct", [&job] { return job.ReduceProgressPct(); });

  const Joules joules_before = cluster_.CumulativeJoules({"mr-slave"});
  timeline.Start(&sched_);
  if (config_.metrics != nullptr) {
    config_.metrics->Start(&sched_);
  }
  sim::ProcessRef ref = job.Start();

  // Stop telemetry the moment the job driver finishes so the event queue
  // can drain, after one last timeline row at the job's end instant (the
  // 1 Hz ticks alone stop up to a second short of it).
  auto watcher = [this](sim::ProcessRef target,
                        obs::MetricsRegistry* t) -> sim::Process {
    co_await target.Join();
    const std::vector<SimTime>& times = t->series().times;
    if (times.empty() || times.back() != sched_.now()) t->SampleNow();
    t->Stop();
    if (config_.metrics != nullptr) config_.metrics->Stop();
  };
  sim::Spawn(sched_, watcher(ref, &timeline));
  sched_.Run();
  job_span.reset();  // closes the "job" span at the drained end time
  if (config_.metrics != nullptr) config_.metrics->SampleNow();

  MrRunResult result;
  result.job = job.result();
  result.slave_joules =
      cluster_.CumulativeJoules({"mr-slave"}) - joules_before;
  result.mean_slave_power =
      result.job.elapsed > 0 ? result.slave_joules / result.job.elapsed : 0;
  result.timeline = timeline.TakeSeries();
  if (spec.input_bytes > 0 && result.slave_joules > 0) {
    result.work_done_per_joule =
        static_cast<double>(spec.input_bytes) / 1e6 / result.slave_joules;
  }
  return result;
}

}  // namespace wimpy::mapreduce
