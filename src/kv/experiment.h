// Key-value cluster experiment: queries-per-joule on any hardware profile
// (the FAWN comparison, reproduced on this library's substrate).
//
// A thin adapter over the one store harness (shard/experiment.h): the
// FAWN rig is its one-rack case with no spares and no churn, where the
// client room links straight to the store rack (net/topology.h). The
// tier keeps its names: role `kv-store`, metrics and telemetry probes
// `kv<i>.*`.
#ifndef WIMPY_KV_EXPERIMENT_H_
#define WIMPY_KV_EXPERIMENT_H_

#include <cstdint>

#include "common/units.h"
#include "hw/profile.h"
#include "kv/store.h"
#include "load/openloop.h"
#include "shard/experiment.h"

namespace wimpy::kv {

struct KvExperimentConfig {
  hw::HardwareProfile node_profile;
  int node_count = 8;
  int client_machines = 4;  // Dell-class load generators
  KvConfig store;
  double get_fraction = 0.90;
  // FAWN-style chain replication across ring successors (1 = none).
  // Stores crashed mid-run by MeasureWithFailover are skipped: reads and
  // writes route to the next healthy successor.
  int replication = 1;
  std::uint64_t seed = 20090101;  // FAWN's year
  // Observability sinks, telemetry plane and open-loop shape, passed
  // through to the harness (ShardExperimentConfig and obs/sinks.h
  // document them; null = zero overhead, identical simulated behaviour).
  // Sampled queries carry a "query" span tree, the registry samples the
  // `kv<i>.*` node probes and the link probes, and the energy ledger's
  // window subtotal equals the store-tier energy the report divides by
  // for queries_per_joule. `openloop.arrival.rate` is overridden by the
  // per-run target qps; the default shape reproduces the legacy
  // generator draw for draw, so the seed-77 trace golden stays valid.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  int trace_sample_every = 64;
  obs::Telemetry* telemetry = nullptr;
  obs::EnergyAttributor* energy = nullptr;
  load::OpenLoopConfig openloop;
};

struct KvReport {
  double target_qps = 0;
  double achieved_qps = 0;
  double error_rate = 0;       // only overload drops in this model: ~0
  Duration mean_latency = 0;
  Duration p99_latency = 0;
  Watts store_power = 0;       // storage-node tier only, like FAWN
  double queries_per_joule = 0;
  // Engine events the whole replication executed (scheduler counter at
  // drain); bench_scale_macro divides by wall-clock for events/s.
  std::uint64_t executed_events = 0;
  // Coordinated-omission-free measurement (docs/openloop.md): latency
  // from the intended arrival rather than dispatch, client-side sheds,
  // and SLO-conditioned efficiency. Zero when config.openloop leaves the
  // defaults (no gate, no SLO).
  Duration p99_intended_latency = 0;
  std::int64_t shed = 0;
  double slo_good_fraction = 0;      // under-SLO completions / offered
  double slo_goodput_per_joule = 0;  // under-SLO completions / window ∫P dt
};

class KvExperiment {
 public:
  // The harness checks the config in every build type: node_count and
  // client_machines >= 1, get_fraction in [0, 1].
  explicit KvExperiment(KvExperimentConfig config);

  // Open-loop Poisson load at `target_qps` for `measure` seconds (after a
  // short warm-up); keys route over a ketama consistent-hash ring
  // (shard/ring.h) with chain replication down each shard's preference
  // list.
  KvReport Measure(double target_qps, Duration measure = Seconds(20));

  // Ramps the offered load until latency knees or throughput saturates;
  // returns the report at the best stable point.
  KvReport FindPeak(double start_qps, double max_qps);

  // Failover run: `failed_nodes` stores crash halfway through the window;
  // the ring routes requests to the next healthy successor (replication
  // must be >= 2 for failed primaries' data to remain readable). Returns
  // the report for the full window.
  KvReport MeasureWithFailover(double target_qps, int failed_nodes,
                               Duration measure = Seconds(20));

  const KvExperimentConfig& config() const { return config_; }

 private:
  KvExperimentConfig config_;
  shard::ShardExperiment harness_;
};

}  // namespace wimpy::kv

#endif  // WIMPY_KV_EXPERIMENT_H_
