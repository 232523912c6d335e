// Key-value cluster experiment: queries-per-joule on any hardware profile
// (the FAWN comparison, reproduced on this library's substrate).
#ifndef WIMPY_KV_EXPERIMENT_H_
#define WIMPY_KV_EXPERIMENT_H_

#include <cstdint>
#include <string>

#include "common/stats.h"
#include "common/units.h"
#include "hw/profile.h"
#include "kv/store.h"
#include "load/openloop.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace wimpy::obs {
class EnergyAttributor;
class Telemetry;
}  // namespace wimpy::obs

namespace wimpy::kv {

struct KvExperimentConfig {
  hw::HardwareProfile node_profile;
  int node_count = 8;
  int client_machines = 4;  // Dell-class load generators
  KvConfig store;
  double get_fraction = 0.90;
  // FAWN-style chain replication across ring successors (1 = none).
  int replication = 1;
  // Nodes failed mid-run by FailNodes(); reads/writes route to the next
  // healthy successor.
  std::uint64_t seed = 20090101;  // FAWN's year
  // Observability sinks (optional; null = zero overhead, identical
  // simulated behaviour). The tracer records a "query" span for
  // 1-in-`trace_sample_every` queries; the registry samples per-store
  // node probes (`kv<i>.*`) and fabric link probes once per simulated
  // second for the duration of the measurement window.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  int trace_sample_every = 64;
  // Online telemetry plane (obs/telemetry.h; null = zero overhead). When
  // set, a Measure call wires: per-store `kv<i>.cpu_busy|power_w` probes,
  // the recorder's SLO stream into `slo.*` instruments, a
  // `gate.queue_depth` probe, default alert rules (SLO burn rate over
  // 2 s/8 s windows, shed-rate spike, p99-over-SLO — installed only when
  // `openloop.slo > 0`), and an obs::NodeHealth scorer whose per-node
  // gauges land in `metrics` under `health.*` and on the trace as
  // kHealth instants. One Telemetry per Measure call (instrument names
  // are registered fresh each run). Borrowed; must outlive the call.
  obs::Telemetry* telemetry = nullptr;
  // Optional span-energy attribution over the store tier (obs/energy.h):
  // sampled query trees carry joules-per-span, and the ledger's window
  // subtotal equals the store-tier energy the report divides by for
  // queries_per_joule (the golden test re-derives that quotient from the
  // trace + ledger alone). Borrowed; may be null.
  obs::EnergyAttributor* energy = nullptr;
  // Open-loop load shape (docs/openloop.md): arrival model/burstiness,
  // client-side admission gate, SLO bound. `openloop.arrival.rate` is
  // overridden by the per-run target qps. The default (Poisson, unbounded,
  // no SLO) reproduces the legacy generator draw-for-draw, so the seed-77
  // trace golden stays valid.
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
  explicit KvExperiment(KvExperimentConfig config)
      : config_(std::move(config)) {}

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
  // The one run body: Measure is MeasureWithFailover with no failures.
  KvReport Run(double target_qps, int failed_nodes, Duration measure);

  KvExperimentConfig config_;
};

}  // namespace wimpy::kv

#endif  // WIMPY_KV_EXPERIMENT_H_
