#include "mapreduce/job.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/tracer.h"

namespace wimpy::mapreduce {

namespace {

void Check(bool ok, const char* what) {
  wimpy::Check(ok, "mapreduce::MapReduceJob", what);
}

// Framework-level costs, independent of the particular job.
// JVM + task bootstrap per container, million instructions.
constexpr double kJvmStartMinstr = 8000;
// AM startup and per-input-file split computation.
constexpr Duration kAmInitBase = Seconds(4);
constexpr Duration kAmInitPerFile = Seconds(0.05);

}  // namespace

MapReduceJob::MapReduceJob(net::Fabric* fabric, Hdfs* hdfs, Yarn* yarn,
                           JobSpec spec, std::string platform_profile,
                           std::uint64_t seed)
    : fabric_(fabric),
      hdfs_(hdfs),
      yarn_(yarn),
      spec_(std::move(spec)),
      efficiency_(spec_.EfficiencyFor(platform_profile)),
      rng_(seed) {
  Check(efficiency_ > 0, "platform efficiency must be > 0");
  for (int r = 0; r < spec_.reducers; ++r) {
    shuffle_.push_back(std::make_unique<sim::WaitQueue<MapOutputPart>>(
        &fabric_->scheduler()));
  }
}

std::vector<MapReduceJob::Split> MapReduceJob::ComputeSplits() const {
  std::vector<Split> splits;

  if (spec_.synthetic_map_tasks > 0) {
    // Input-less job (pi): equal synthetic tasks, no blocks.
    splits.resize(spec_.synthetic_map_tasks);
    return splits;
  }

  // Gather all blocks of all input files in file order.
  std::vector<HdfsBlock> blocks;
  for (int i = 0; i < spec_.input_files; ++i) {
    auto file = hdfs_->GetFile(spec_.input_prefix + "-" + std::to_string(i));
    Check(file.ok(), "input file missing from HDFS");
    for (const auto& b : file->blocks) blocks.push_back(b);
  }

  if (!spec_.combine_inputs) {
    // One split per block; small files therefore cost one container each.
    for (const auto& block : blocks) {
      Split split;
      split.bytes = block.size;
      split.blocks.push_back(block);
      split.preferred_nodes = block.replica_nodes;
      splits.push_back(std::move(split));
    }
    return splits;
  }

  // CombineFileInputFormat packs blocks into splits up to max_split_size,
  // grouping by replica holder first — like the real implementation's
  // node-local pass — so a combined split stays data-local (the paper
  // observes ~95% locality for the tuned jobs).
  Check(spec_.max_split_size > 0,
        "max_split_size must be > 0 when combining inputs");
  std::map<int, std::vector<HdfsBlock>> by_node;
  for (const auto& block : blocks) {
    by_node[block.replica_nodes.front()].push_back(block);
  }
  for (auto& [node, node_blocks] : by_node) {
    // Balance the group's bytes across ceil(bytes/max) splits so waves
    // stay even (one oversized straggler split would double the phase).
    Bytes group_bytes = 0;
    for (const auto& block : node_blocks) group_bytes += block.size;
    const int group_splits = static_cast<int>(
        (group_bytes + spec_.max_split_size - 1) / spec_.max_split_size);
    const Bytes target =
        (group_bytes + group_splits - 1) / std::max(1, group_splits);

    Split current;
    for (const auto& block : node_blocks) {
      if (current.bytes > 0 &&
          current.bytes + block.size > spec_.max_split_size) {
        splits.push_back(std::move(current));
        current = Split{};
      }
      if (current.blocks.empty()) {
        current.preferred_nodes = block.replica_nodes;
      }
      current.bytes += block.size;
      current.blocks.push_back(block);
      // Close the split once it reaches the balanced target (it may
      // exceed the target by part of one block but never max_split).
      if (current.bytes >= target) {
        splits.push_back(std::move(current));
        current = Split{};
      }
    }
    if (current.bytes > 0) splits.push_back(std::move(current));
  }
  return splits;
}

sim::ProcessRef MapReduceJob::Start() {
  return sim::SpawnJoinable(fabric_->scheduler(), Driver());
}

sim::Process MapReduceJob::Driver() {
  sim::Scheduler& sched = fabric_->scheduler();
  result_.job_name = spec_.name;
  result_.started = sched.now();

  // Application master: initialisation time scales with the input file
  // count (split computation). The AM itself is hosted next to the
  // resource manager on the Dell master — keeping every slave's container
  // memory for tasks reproduces the paper's stated concurrency (e.g. all
  // 70 pi containers running at once on 35 Edisons).
  co_await sim::Delay(sched, kAmInitBase +
                                 kAmInitPerFile *
                                     static_cast<double>(spec_.input_files));

  splits_ = ComputeSplits();
  total_maps_ = static_cast<int>(splits_.size());
  result_.map_tasks = total_maps_;
  result_.reduce_tasks = spec_.reducers;
  map_committed_.assign(total_maps_, false);
  map_speculated_.assign(total_maps_, false);
  map_started_.assign(total_maps_, 0.0);

  for (int i = 0; i < total_maps_; ++i) {
    map_refs_.push_back(sim::SpawnJoinable(sched, MapTask(splits_[i], i)));
  }
  if (spec_.speculative_execution) {
    sim::Spawn(sched, SpeculationMonitor());
  }

  // Reduce slow start: wait for the configured map fraction.
  const int threshold = std::max(
      1, static_cast<int>(std::ceil(spec_.reduce_slowstart * total_maps_)));
  while (completed_maps_ < threshold) {
    co_await sim::Delay(sched, 0.5);  // AM progress poll
  }
  result_.first_reduce_launch = sched.now();
  for (int r = 0; r < spec_.reducers; ++r) {
    reduce_refs_.push_back(sim::SpawnJoinable(sched, ReduceTask(r)));
  }

  // Index loop: the speculation monitor may append duplicate attempts
  // while we wait.
  for (std::size_t i = 0; i < map_refs_.size(); ++i) {
    co_await map_refs_[i].Join();
  }
  result_.map_phase_end = sched.now();
  for (std::size_t i = 0; i < reduce_refs_.size(); ++i) {
    co_await reduce_refs_[i].Join();
  }

  result_.finished = sched.now();
  result_.elapsed = result_.finished - result_.started;
  result_.data_local_fraction = hdfs_->DataLocalFraction();
  result_.map_output_bytes = map_output_bytes_;
  result_.job_output_bytes = static_cast<Bytes>(
      spec_.job_output_ratio * static_cast<double>(spec_.input_bytes));
  done_ = true;
}

sim::Process MapReduceJob::MapTask(Split split, int task_index) {
  sim::Scheduler& sched = fabric_->scheduler();
  const std::int32_t track = next_span_track_++;
  obs::CausalSpan task_span(trace_, track, "map", obs::Category::kTask,
                            task_index);
  Container container =
      co_await yarn_->Allocate(spec_.map_container_mem,
                               split.preferred_nodes);
  hw::ServerNode* node = container.node;
  if (result_.first_map_launch == 0) result_.first_map_launch = sched.now();
  // A speculative duplicate may already have finished this task while we
  // waited for a container.
  if (map_committed_[task_index]) {
    yarn_->Release(container);
    co_return;
  }
  const SimTime attempt_start = sched.now();
  if (map_started_[task_index] == 0) {
    map_started_[task_index] = attempt_start;
  }

  // JVM + task bootstrap.
  co_await node->cpu().Execute(Derated(kJvmStartMinstr));

  // Read the split from HDFS.
  for (const auto& block : split.blocks) {
    if (map_committed_[task_index]) {  // superseded: abort (Hadoop kill)
      yarn_->Release(container);
      co_return;
    }
    hdfs_->RecordMapLocality(hdfs_->HasLocalReplica(block, node->id()));
    co_await hdfs_->ReadBlock(block, node->id());
  }

  // Map computation: CPU plus streaming the input through the memory bus.
  // Executed in slices so a superseded attempt can abort promptly.
  const double input_mb = static_cast<double>(split.bytes) / 1e6;
  if (split.bytes > 0) {
    co_await node->memory().Transfer(split.bytes);
  }
  const double map_minstr =
      spec_.map_fixed_minstr + spec_.map_minstr_per_mb * input_mb;
  constexpr int kSlices = 8;
  for (int slice = 0; slice < kSlices; ++slice) {
    if (map_committed_[task_index]) {
      yarn_->Release(container);
      co_return;
    }
    co_await node->cpu().Execute(Derated(map_minstr / kSlices));
  }

  // Map output, optionally combined, spilled to local disk. The combine +
  // spill write is the map-side "spill" phase: a child span nested inside
  // this attempt's "map" span (same track).
  Bytes output = static_cast<Bytes>(spec_.map_output_ratio *
                                    static_cast<double>(split.bytes));
  if (output > 0) {
    obs::CausalSpan spill_span(task_span.handle(), "spill",
                               obs::Category::kTask, task_index);
    if (spec_.has_combiner) {
      const double output_mb = static_cast<double>(output) / 1e6;
      co_await node->cpu().Execute(
          Derated(spec_.combiner_minstr_per_mb * output_mb));
      output = static_cast<Bytes>(spec_.combiner_survival *
                                  static_cast<double>(output));
    }
    if (output > 0) {
      co_await node->storage().Write(output, /*buffered=*/true);
    }
  }

  // First finisher publishes; a losing duplicate discards its work.
  if (map_committed_[task_index]) {
    yarn_->Release(container);
    co_return;
  }
  map_committed_[task_index] = true;
  map_output_bytes_ += output;
  map_durations_.push_back(sched.now() - attempt_start);

  // Publish one partition per reducer.
  const Bytes partition =
      spec_.reducers > 0 ? output / spec_.reducers : 0;
  for (auto& queue : shuffle_) {
    queue->Push(MapOutputPart{node->id(), partition});
  }

  ++completed_maps_;
  yarn_->Release(container);
}

sim::Process MapReduceJob::SpeculationMonitor() {
  sim::Scheduler& sched = fabric_->scheduler();
  while (completed_maps_ < total_maps_) {
    co_await sim::Delay(sched, 5.0);
    const double done_fraction =
        static_cast<double>(completed_maps_) /
        std::max(1, total_maps_);
    if (done_fraction < spec_.speculation_phase_threshold ||
        map_durations_.empty()) {
      continue;
    }
    std::vector<double> durations = map_durations_;
    std::nth_element(durations.begin(),
                     durations.begin() + durations.size() / 2,
                     durations.end());
    const double median = durations[durations.size() / 2];
    for (int i = 0; i < total_maps_; ++i) {
      if (map_committed_[i] || map_speculated_[i] ||
          map_started_[i] <= 0) {
        continue;
      }
      if (sched.now() - map_started_[i] >
          spec_.speculation_slowdown * median) {
        map_speculated_[i] = true;
        ++speculative_launched_;
        map_refs_.push_back(sim::SpawnJoinable(sched, MapTask(splits_[i], i)));
      }
    }
  }
}

sim::Process MapReduceJob::ReduceTask(int reduce_index) {
  sim::Scheduler& sched = fabric_->scheduler();
  const std::int32_t track = next_span_track_++;
  obs::CausalSpan task_span(trace_, track, "reduce", obs::Category::kTask,
                            reduce_index);
  // Guard against the classic slow-start deadlock: reducers hold their
  // containers until every map output arrives, so if they occupied every
  // slot while maps were still pending the job would stall forever. Like
  // Hadoop's reducer-preemption/limits, bound early reducers to half the
  // cluster's container memory until the map phase completes.
  const int max_early_reducers = std::max<int>(
      1, static_cast<int>(yarn_->TotalUsableMemory() / 2 /
                          spec_.reduce_container_mem));
  while (reduce_index >= max_early_reducers &&
         completed_maps_ < total_maps_) {
    co_await sim::Delay(sched, 1.0);
  }
  Container container =
      co_await yarn_->Allocate(spec_.reduce_container_mem, {});
  hw::ServerNode* node = container.node;

  co_await node->cpu().Execute(Derated(kJvmStartMinstr));

  // Shuffle: fetch this reducer's partition from every map output as they
  // become available — the "shuffle" phase, a child span nested inside
  // this attempt's "reduce" span (same track).
  Bytes shuffled = 0;
  {
    obs::CausalSpan shuffle_span(task_span.handle(), "shuffle",
                                 obs::Category::kTask, reduce_index);
    for (int m = 0; m < total_maps_; ++m) {
      MapOutputPart part = co_await shuffle_[reduce_index]->Get();
      ++fetches_done_;
      if (part.bytes <= 0) continue;
      shuffled += part.bytes;
      // Source-side read of the spilled segment, then the wire for remote
      // fetches.
      hw::ServerNode* source = yarn_->NodeById(part.source_node);
      Check(source != nullptr, "shuffle source is not a YARN slave");
      co_await source->storage().Read(part.bytes, /*buffered=*/true);
      if (part.source_node != node->id()) {
        co_await fabric_->Transfer(part.source_node, node->id(),
                                   part.bytes);
      }
    }
  }

  // Merge pass: buffered write+read of the shuffled data on local disk —
  // the reduce-side "spill" when the merge overflows the container.
  if (shuffled > spec_.reduce_container_mem) {
    obs::CausalSpan spill_span(task_span.handle(), "spill",
                               obs::Category::kTask, reduce_index);
    co_await node->storage().Write(shuffled, /*buffered=*/true);
    co_await node->storage().Read(shuffled, /*buffered=*/true);
  } else if (shuffled > 0) {
    co_await node->memory().Transfer(shuffled);
  }

  // Reduce computation.
  const double shuffled_mb = static_cast<double>(shuffled) / 1e6;
  co_await node->cpu().Execute(
      Derated(spec_.reduce_fixed_minstr +
              spec_.reduce_minstr_per_mb * shuffled_mb));

  // Write this reducer's share of the job output to HDFS (replicated).
  const Bytes output_share = static_cast<Bytes>(
      spec_.job_output_ratio * static_cast<double>(spec_.input_bytes) /
      std::max(1, spec_.reducers));
  if (output_share > 0) {
    co_await hdfs_->WriteFile(
        spec_.name + "-out-" + std::to_string(reduce_index), output_share,
        node->id());
  }

  ++completed_reducers_;
  yarn_->Release(container);
}

double MapReduceJob::MapProgressPct() const {
  if (total_maps_ == 0) return done_ ? 100.0 : 0.0;
  return 100.0 * static_cast<double>(completed_maps_) /
         static_cast<double>(total_maps_);
}

double MapReduceJob::ReduceProgressPct() const {
  if (spec_.reducers == 0) return done_ ? 100.0 : 0.0;
  const double total_fetches =
      static_cast<double>(total_maps_) * spec_.reducers;
  const double fetch_part =
      total_fetches == 0
          ? 0.0
          : static_cast<double>(fetches_done_) / total_fetches;
  const double reduce_part = static_cast<double>(completed_reducers_) /
                             static_cast<double>(spec_.reducers);
  return 100.0 * (0.67 * fetch_part + 0.33 * reduce_part);
}

}  // namespace wimpy::mapreduce
