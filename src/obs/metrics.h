// Named time-series probes sampled on a simulated-time clock (see
// docs/observability.md).
//
// A `MetricsRegistry` owns a set of named probes — closures reading live
// simulation state (per-node utilisation, queue depths, per-component
// power/energy) — and samples every probe every kMetricsPeriod (1 s),
// appending one row per tick. Components publish probes through their
// `PublishMetrics(registry, prefix)` members (hw::ServerNode,
// net::TcpHost/Fabric, mapreduce::Yarn/Hdfs, the web testbed).
//
// The registry's tick is also the telemetry plane's clock: a registry
// started with a `Telemetry` runs its step (obs/telemetry.h) on every
// periodic tick, just before sampling the row, so a run has one sampling
// event per simulated second whichever planes are attached.
//
// Lifetime contract: probes borrow the component they read. Register all
// probes before Start(); never sample (Start/SampleNow) after any probed
// component has been destroyed. Owners that outlive their probed
// components (the experiment idiom: a caller-owned registry, probes into
// a function-local testbed) call `Detach()` when the components go away;
// a detached registry refuses to sample — a checked, fatal error instead
// of a read through dangling probe closures. The extracted
// `MetricsSeries` is plain data and outlives everything.
//
// Determinism: rows are a pure function of the simulation — sampled at
// deterministic instants, in registration order — so a sweep's merged
// series are byte-identical at any worker-thread count when merged in
// index order.
#ifndef WIMPY_OBS_METRICS_H_
#define WIMPY_OBS_METRICS_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "sim/scheduler.h"

namespace wimpy::obs {

class Telemetry;

// Simulated time between two samples of a running registry.
inline constexpr Duration kMetricsPeriod = 1.0;

// The extracted time series: what a replication returns from a sweep.
// `rows[i]` aligns with `times[i]`; row width equals `names.size()`.
struct MetricsSeries {
  std::vector<std::string> names;
  std::vector<SimTime> times;
  std::vector<std::vector<double>> rows;

  // The values of the column called `name`, one per row; aborts when no
  // column has that name.
  std::vector<double> Column(std::string_view name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registers a probe: an instantaneous level (utilisation, queue depth,
  // watts) or a cumulative monotonic value (joules, drops), exported
  // as-is so post-processing can difference it. Must be called before
  // the first sample is taken.
  void Add(std::string name, std::function<double()> probe);

  // Begins periodic sampling: one sample immediately, then every
  // kMetricsPeriod of simulated time until Stop(). Each periodic tick
  // first runs `telemetry`'s step when it is non-null, then samples, so
  // probes that read telemetry (NodeHealth's scores) see the buckets the
  // step just closed. The pending tick is a cancellable scheduler event,
  // so a stopped registry never prevents the event queue from draining.
  void Start(sim::Scheduler* sched, Telemetry* telemetry = nullptr);
  void Stop();
  // True when the pending tick is due at the scheduler's current instant:
  // a callback scheduled earlier for that instant runs before it.
  bool TickDueNow() const;

  // Takes one sample at the scheduler's current time, outside the
  // periodic clock (e.g. a final sample after the run drains so
  // cumulative counters capture the full simulation).
  void SampleNow();

  // Severs the probes: Stop(), drop every probe closure, and mark the
  // registry detached. Call when the probed components are about to be
  // destroyed (end of an experiment's Measure). After this, sampling
  // (Start/SampleNow) aborts with a diagnostic instead of invoking
  // dangling closures; TakeSeries/series() remain valid. Registering a
  // fresh (live) probe re-arms the registry.
  void Detach();
  bool detached() const { return detached_; }

  bool running() const { return pending_ != 0; }
  std::size_t probe_count() const { return probes_.size(); }
  const MetricsSeries& series() const { return series_; }

  // Moves the collected series out (e.g. into a sweep result); the
  // registry keeps its probes and may keep sampling into a fresh series.
  MetricsSeries TakeSeries();

 private:
  struct Probe {
    std::string name;
    std::function<double()> fn;
  };

  void Tick();

  std::vector<Probe> probes_;
  sim::Scheduler* sched_ = nullptr;
  Telemetry* telemetry_ = nullptr;
  bool detached_ = false;
  sim::EventId pending_ = 0;
  SimTime next_tick_ = 0.0;
  MetricsSeries series_;
};

}  // namespace wimpy::obs

#endif  // WIMPY_OBS_METRICS_H_
