// MapReduce job engine: splits, map tasks, shuffle, reduce tasks.
//
// The execution model mirrors Hadoop 2.x on YARN at the fidelity the paper
// measures:
//   * an application master initialises the job (split computation scales
//     with the number of input files — the overhead that penalises the
//     original wordcount/logcount with 200-500 tiny files);
//   * each map task costs a container allocation + JVM spin-up, an HDFS
//     split read (local or remote), CPU proportional to input, an optional
//     combiner, and a spill write of its output;
//   * reducers launch after a slow-start fraction of maps complete, fetch
//     every map's partition over the fabric, and write replicated output;
//   * all CPU work is derated by a per-platform efficiency factor
//     (JVM/data-path IPC differs from Dhrystone IPC; see DESIGN.md).
#ifndef WIMPY_MAPREDUCE_JOB_H_
#define WIMPY_MAPREDUCE_JOB_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "mapreduce/hdfs.h"
#include "mapreduce/yarn.h"
#include "net/fabric.h"
#include "obs/context.h"
#include "sim/process.h"
#include "sim/wait_queue.h"

namespace wimpy::mapreduce {

struct JobSpec {
  std::string name;

  // ---- input ----
  std::string input_prefix = "input";
  int input_files = 0;       // 0 -> synthetic (no HDFS input, e.g. pi)
  Bytes input_bytes = 0;
  bool combine_inputs = false;  // CombineFileInputFormat (wordcount2)
  Bytes max_split_size = 0;     // only with combine_inputs

  // Synthetic jobs: fixed task count, each costing map_fixed_minstr.
  int synthetic_map_tasks = 0;

  // ---- map ----
  Bytes map_container_mem = MB(150);
  double map_minstr_per_mb = 0;   // CPU per MB of input
  double map_fixed_minstr = 200;  // per-task setup/teardown (or full cost
                                  // of a synthetic task)
  double map_output_ratio = 1.0;  // map output bytes / input bytes

  // ---- combiner ----
  bool has_combiner = false;
  double combiner_survival = 1.0;   // output fraction surviving combine
  double combiner_minstr_per_mb = 0;

  // ---- reduce ----
  int reducers = 1;
  Bytes reduce_container_mem = MB(300);
  double reduce_fixed_minstr = 300;  // per-reduce-task setup/teardown
  double reduce_minstr_per_mb = 0;   // CPU per MB of shuffled data
  double reduce_slowstart = 0.5;    // map fraction before reducers launch
  double job_output_ratio = 0.0;    // final output bytes / input bytes

  // ---- speculative execution (Hadoop's straggler remedy) ----
  // When enabled, map tasks that run `speculation_slowdown` times longer
  // than the median completed map — once `speculation_phase_threshold` of
  // maps have finished — get a duplicate attempt on another node; the
  // first finisher wins and the loser aborts at its next preemption
  // point. Off by default (the paper's clusters were homogeneous).
  bool speculative_execution = false;
  double speculation_slowdown = 2.0;
  double speculation_phase_threshold = 0.6;

  // Per-platform CPU efficiency relative to Dhrystone throughput,
  // calibrated from the paper's measured runtimes (profile name -> eff).
  std::map<std::string, double> efficiency_by_profile;

  double EfficiencyFor(const std::string& profile_name) const {
    auto it = efficiency_by_profile.find(profile_name);
    return it == efficiency_by_profile.end() ? 1.0 : it->second;
  }
};

struct JobResult {
  std::string job_name;
  Duration elapsed = 0;
  SimTime started = 0;
  SimTime finished = 0;
  SimTime first_map_launch = 0;  // first map container running (CPU rise)
  SimTime map_phase_end = 0;
  SimTime first_reduce_launch = 0;
  int map_tasks = 0;
  int reduce_tasks = 0;
  double data_local_fraction = 0;
  Bytes map_output_bytes = 0;   // after combiner; equals shuffled bytes
  Bytes job_output_bytes = 0;
};

class MapReduceJob {
 public:
  MapReduceJob(net::Fabric* fabric, Hdfs* hdfs, Yarn* yarn, JobSpec spec,
               std::string platform_profile, std::uint64_t seed);

  MapReduceJob(const MapReduceJob&) = delete;
  MapReduceJob& operator=(const MapReduceJob&) = delete;

  // Spawns the job driver; join the returned ref (or poll done()).
  sim::ProcessRef Start();

  bool done() const { return done_; }
  const JobResult& result() const { return result_; }

  // Progress probes for the timeline figures, in [0, 100].
  double MapProgressPct() const;
  double ReduceProgressPct() const;

  // Duplicate map attempts launched by speculation (0 when disabled).
  int speculative_attempts() const { return speculative_launched_; }

  // Optional causal tracing (docs/observability.md): `trace` is the
  // job's root span handle (normally the testbed's "job" span). Every
  // map/reduce attempt becomes a child span on its own track
  // (speculative duplicates get a distinct track, so spans never
  // interleave within a track), which the exporter renders as Perfetto
  // flow arrows job -> attempt. Set before Start(); a null handle
  // disables tracing. The tracer must outlive the job.
  void set_trace(const obs::TraceHandle& trace) { trace_ = trace; }

 private:
  struct Split {
    Bytes bytes = 0;
    std::vector<HdfsBlock> blocks;
    std::vector<int> preferred_nodes;
  };
  struct MapOutputPart {
    int source_node = 0;
    Bytes bytes = 0;
  };

  std::vector<Split> ComputeSplits() const;
  sim::Process Driver();
  sim::Process MapTask(Split split, int task_index);
  sim::Process ReduceTask(int reduce_index);
  // Watches for straggling maps and launches duplicates.
  sim::Process SpeculationMonitor();

  double Derated(double minstr) const { return minstr / efficiency_; }

  net::Fabric* fabric_;
  Hdfs* hdfs_;
  Yarn* yarn_;
  JobSpec spec_;
  double efficiency_;
  Rng rng_;
  obs::TraceHandle trace_;
  std::int32_t next_span_track_ = 1;

  int total_maps_ = 0;
  int completed_maps_ = 0;
  int completed_reducers_ = 0;
  std::int64_t fetches_done_ = 0;
  Bytes map_output_bytes_ = 0;
  bool done_ = false;
  JobResult result_;
  // Per-reducer shuffle inbox; map tasks push their partition on finish.
  std::vector<std::unique_ptr<sim::WaitQueue<MapOutputPart>>> shuffle_;
  std::vector<sim::ProcessRef> map_refs_;
  std::vector<sim::ProcessRef> reduce_refs_;
  // Speculation bookkeeping (one entry per map task).
  std::vector<Split> splits_;
  std::vector<bool> map_committed_;   // first finisher already published
  std::vector<bool> map_speculated_;  // duplicate already launched
  std::vector<SimTime> map_started_;  // container-acquired time (0 = not)
  std::vector<double> map_durations_;
  int speculative_launched_ = 0;
};

}  // namespace wimpy::mapreduce

#endif  // WIMPY_MAPREDUCE_JOB_H_
