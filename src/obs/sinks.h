// One experiment run's observation plumbing (docs/observability.md).
//
// The store harness (shard::ShardExperiment, which also runs
// kv::KvExperiment) and web::WebExperiment build a fresh testbed per
// measurement and attach the same four optional, borrowed sinks to it:
// tracer, metrics registry, energy attributor and telemetry plane.
// `RunSinks` holds them for the run and is the one place that
//   * samples 1 in `trace_sample_every` requests as trace roots;
//   * wires a server tier into the sinks and scores its health;
//   * arms an open-loop run's default SLO telemetry;
//   * marks the measurement window (`measure_start` / `measure_end`
//     instants, the energy ledger window, stopping the sampling clock);
//   * runs the one sampling clock that drives both the metrics registry
//     and the telemetry plane, and takes the final metrics sample;
//   * settles the energy ledger when the testbed goes away.
// A null sink makes its calls no-ops and changes no simulated event.
#ifndef WIMPY_OBS_SINKS_H_
#define WIMPY_OBS_SINKS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "load/openloop.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "sim/scheduler.h"

namespace wimpy::obs {

class EnergyAttributor;

class RunSinks {
 public:
  RunSinks(sim::Scheduler* sched, Tracer* tracer, MetricsRegistry* metrics,
           EnergyAttributor* energy, Telemetry* telemetry,
           int trace_sample_every);
  // Settles the energy ledger while the observed nodes still exist, so a
  // testbed declares its RunSinks after its nodes.
  ~RunSinks();

  RunSinks(const RunSinks&) = delete;
  RunSinks& operator=(const RunSinks&) = delete;

  Tracer* tracer() const { return tracer_; }
  MetricsRegistry* metrics() const { return metrics_; }
  EnergyAttributor* energy() const { return energy_; }
  Telemetry* telemetry() const { return telemetry_; }

  // 1-in-N request sampling: every `trace_sample_every`-th call returns a
  // root handle (fresh trace id, track = the request's ordinal), the rest
  // the null handle. The counter lives here, outside the random streams,
  // so tracing on or off never changes simulated behaviour.
  TraceHandle SampleTrace() {
    const std::uint64_t request = requests_++;
    if (tracer_ == nullptr || request % sample_every_ != 0) {
      return kNullTraceHandle;
    }
    return RootTrace(tracer_, sched_,
                     static_cast<std::int32_t>(request & 0x7fffffff));
  }

  // Wires one server node (hw::ServerNode, a template parameter so obs
  // does not link hw) under `name`: its power meter into the energy
  // ledger and its `<name>.*` probes into the metrics registry. Call in
  // a fixed node order: it fixes ledger rows and metrics columns.
  template <typename Node>
  void Observe(Node& node, const std::string& name) {
    node.ObserveEnergy(energy_);
    if (metrics_ != nullptr) node.PublishMetrics(metrics_, name);
  }

  // Scores a server tier's health (telemetry only): node i of `nodes`
  // publishes `<prefix><i>.cpu_busy|power_w` telemetry probes and is
  // scored on them, the open-loop `gate.queue_depth` and `slo.shed`, and
  // `lag` when named. Scores land in metrics as `health.node<i>` columns
  // (call after every other metrics probe) and on the trace as kHealth
  // instants.
  template <typename Node>
  void ScoreHealth(const std::vector<Node*>& nodes, const std::string& prefix,
                   const NodeHealthConfig& config,
                   const std::string& lag = "") {
    if (telemetry_ == nullptr) return;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i]->PublishTelemetry(telemetry_, prefix + std::to_string(i));
    }
    AddHealth(prefix, static_cast<int>(nodes.size()), config, lag);
  }

  // Telemetry only: streams `recorder` into the `slo.*` instruments,
  // probes the gate as `gate.queue_depth`, and, when `slo` > 0, arms the
  // default rules slo_burn, latency_p99_high and shed_spike. Thresholds
  // are pure functions of the config, so alert instants stay
  // deterministic. `recorder` and `gate` must outlive the run.
  void ArmSloRules(load::OpenLoopRecorder& recorder,
                   const load::OpenLoopGate& gate, Duration slo);

  // Window edges, called from the experiment's own window callbacks
  // after its report bookkeeping. Open: the `measure_start` instant and
  // the energy window. Close: a telemetry bucket due exactly now is
  // closed (the window-end callback runs before the tick scheduled for
  // the same instant, which it cancels), the sampling clock stops, then
  // the `measure_end` instant and the energy window's end. Metrics take
  // no row at the window end.
  void OpenWindow();
  void CloseWindow();

  // Starts the run's one sampling clock: the metrics registry, or a
  // probe-less registry of this run's own when only telemetry is
  // attached. A metrics row is taken now; every kMetricsPeriod after,
  // the telemetry step runs (alerts and health go onto the trace), then
  // the metrics row. No sink, no clock.
  void StartSampling();
  // After the run drains: a final metrics sample (cumulative counters now
  // match the report), then detach, since the registry outlives the
  // testbed its probes read.
  void FinishMetrics();

 private:
  void AddHealth(const std::string& prefix, int nodes,
                 const NodeHealthConfig& config, const std::string& lag);

  sim::Scheduler* sched_;
  Tracer* tracer_;
  MetricsRegistry* metrics_;
  EnergyAttributor* energy_;
  Telemetry* telemetry_;
  std::uint64_t sample_every_;
  std::uint64_t requests_ = 0;
  std::unique_ptr<NodeHealth> health_;
  // Drives telemetry when no metrics registry is attached.
  MetricsRegistry telemetry_clock_;
  // `metrics_`, else `&telemetry_clock_` when telemetry is attached.
  MetricsRegistry* clock_;
};

}  // namespace wimpy::obs

#endif  // WIMPY_OBS_SINKS_H_
