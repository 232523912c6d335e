// Online telemetry plane: streaming rollups, declarative alert rules,
// and a composite node-health model on the simulated clock
// (docs/telemetry.md).
//
// Where `MetricsRegistry` samples raw probe values for post-hoc
// analysis, `Telemetry` aggregates *online*: push instruments
// (`Counter`, `Histogram`) and pull probes (gauges) feed per-instrument
// `Rollup` state — a ring of tumbling buckets, one per `slide` of
// simulated time — so any window that is a multiple of the slide can be
// answered mid-run in O(window/slide) via `Telemetry::Query`. That live
// query surface is what the ROADMAP's autoscaling/power-management
// controller consumes; alert rules (thresholds and multi-window SLO
// burn rates) and the `NodeHealth` score are the first consumers,
// firing deterministic instants onto the trace.
//
// The plane has no clock of its own. `Tick(now)` is its step: in a run
// the metrics registry's 1 s tick calls it (`MetricsRegistry::Start`
// with this plane), and `RunSinks::CloseWindow` calls it once more when
// a bucket is due exactly at the window end (obs/sinks.h).
//
// Determinism contract (same as the rest of src/obs): every bucket
// boundary, query result, alert instant, and exported row is a pure
// function of the simulation. Sweeps keep one `Telemetry` per
// replication and merge the extracted series/alert logs in index order,
// so exports are byte-identical at any `--threads`.
//
// Overhead contract: the null `Telemetry*` in a config is the one off
// switch, and it means no calls at all; a default-constructed `Counter`
// or `Histogram` handle is a no-op.
#ifndef WIMPY_OBS_TELEMETRY_H_
#define WIMPY_OBS_TELEMETRY_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "load/openloop.h"
#include "obs/metrics.h"
#include "obs/sketch.h"
#include "obs/tracer.h"

namespace wimpy::obs {

class Telemetry;

// Width of one rollup bucket: the period of the sampling tick that
// drives the plane.
inline constexpr Duration kTelemetrySlide = kMetricsPeriod;
// Closed buckets each rollup keeps: the deepest queryable window is
// kTelemetrySlide times this.
inline constexpr std::size_t kRollupRingBuckets = 120;

// Scalar aggregations over a window; what alert rules reference.
enum class Agg : std::uint8_t {
  kRate,      // count / window
  kMean,      // sum / count
  kMin,
  kMax,
  kIntegral,  // sum over buckets of bucket-mean * slide (gauge area)
  kP50,       // histogram instruments only (0 otherwise)
  kP90,
  kP99,
};

// Everything `Query` knows about a window. `window` is the covered
// span: n * slide where n = min(requested / slide, closed buckets) —
// early in a run it is smaller than asked. Quantiles are only
// meaningful when `has_sketch` (histogram instruments).
struct RollupResult {
  Duration window = 0.0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // valid when count > 0
  double max = 0.0;  // valid when count > 0
  double rate = 0.0;
  double mean = 0.0;
  double integral = 0.0;
  bool has_sketch = false;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

// One instrument's windowed state: an accumulating open bucket plus a
// ring of up to kRollupRingBuckets closed ones, tumbled every
// kTelemetrySlide by the owning Telemetry's step. Histogram rollups carry
// an HdrSketch per bucket; closed sketches are recycled through the ring,
// so steady-state tumbling allocates nothing.
class Rollup {
 public:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  const std::string& name() const { return name_; }
  Kind kind() const { return kind_; }
  std::uint64_t closed_buckets() const { return closed_total_; }

  // Aggregates the most recent `window / slide` *closed* buckets (the
  // open bucket is excluded, so a query result never changes until the
  // next tick — and matches post-hoc recomputation from exported rows).
  RollupResult Query(Duration window) const;
  double QueryAgg(Agg agg, Duration window) const;

 private:
  friend class Telemetry;
  friend class Counter;
  friend class Histogram;

  struct Bucket {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  Rollup(std::string name, Kind kind);

  void Observe(double value);           // counter delta / histogram sample
  void Close();                         // tumble open bucket into the ring

  std::string name_;
  Kind kind_;
  std::function<double()> probe_;       // gauges only
  double total_ = 0.0;                  // counters: cumulative sum
  Bucket open_;
  HdrSketch open_sketch_;               // histograms only (empty otherwise)
  std::deque<Bucket> ring_;             // closed buckets, oldest first
  std::deque<HdrSketch> ring_sketch_;   // parallel to ring_ for histograms
  std::uint64_t closed_total_ = 0;
};

// Value handles onto a Telemetry-owned Rollup; copyable, cheap, and a
// no-op when default-constructed. Valid as long as the Telemetry lives.
class Counter {
 public:
  Counter() = default;
  void Add(double delta = 1.0) {
    if (rollup_ != nullptr) rollup_->Observe(delta);
  }
  double total() const;
  bool valid() const { return rollup_ != nullptr; }

 private:
  friend class Telemetry;
  explicit Counter(Rollup* rollup) : rollup_(rollup) {}
  Rollup* rollup_ = nullptr;
};

class Histogram {
 public:
  Histogram() = default;
  void Record(double value) {
    if (rollup_ != nullptr) rollup_->Observe(value);
  }
  bool valid() const { return rollup_ != nullptr; }

 private:
  friend class Telemetry;
  explicit Histogram(Rollup* rollup) : rollup_(rollup) {}
  Rollup* rollup_ = nullptr;
};

// --- alert rules ----------------------------------------------------------

// Fires (rising edge) when `agg` of `metric` over `window` crosses
// `threshold`: above=true means value > threshold, false means <.
struct ThresholdRule {
  std::string name;
  std::string metric;
  Agg agg = Agg::kMean;
  double threshold = 0.0;
  bool above = true;
  Duration window = 5.0;
};

// Multi-window SLO burn rate (the SRE alerting idiom): with error
// budget 1 - slo_target, burn = (1 - good/total) / (1 - slo_target)
// computed from the two counters' window sums. Fires (rising edge) when
// burn exceeds `burn_threshold` on BOTH windows — the short window makes
// it responsive, the long window keeps a transient blip from paging.
struct BurnRateRule {
  std::string name;
  std::string good_metric;   // counter: in-SLO completions
  std::string total_metric;  // counter: everything offered
  double slo_target = 0.99;
  double burn_threshold = 1.0;
  Duration short_window = 5.0;
  Duration long_window = 60.0;
};

// One fired alert. `value` is the observed aggregate (short-window burn
// for burn rules); `window` the short window. Plain data, mergeable
// across replications in index order.
struct Alert {
  SimTime time = 0.0;
  std::string rule;
  std::string metric;
  double value = 0.0;
  double threshold = 0.0;
  Duration window = 0.0;
};

struct AlertLog {
  std::vector<Alert> alerts;
};

// One exported rollup row (long format, same shape as the metrics CSV):
// per closed non-empty bucket, `<name>.count/.sum/.min/.max` rows plus
// sparse `<name>.b<idx>` sketch-bucket rows for histograms. `time` is
// the bucket's closing edge.
struct TelemetryRow {
  SimTime time = 0.0;
  std::string metric;
  double value = 0.0;
};

struct TelemetrySeries {
  std::vector<TelemetryRow> rows;
};

class Telemetry {
 public:
  Telemetry() = default;

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  // --- instruments (register before the first step) ---------------------
  // Names are unique; registering a duplicate is a programming error.
  Counter AddCounter(std::string name);
  Histogram AddHistogram(std::string name);
  // Pull gauge: sampled once per tick into the closing bucket. The probe
  // borrows the component it reads — same lifetime contract as
  // MetricsRegistry probes.
  void AddProbe(std::string name, std::function<double()> probe);

  // --- rules ------------------------------------------------------------
  void AddThresholdRule(ThresholdRule rule);
  void AddBurnRateRule(BurnRateRule rule);

  // --- step -------------------------------------------------------------
  // Closes the bucket ending at `now`: samples gauges, tumbles every
  // rollup, appends export rows, evaluates rules (alerts go to the alert
  // log and onto the TraceAlertsTo tracer as kAlert instants), then runs
  // tick hooks. The caller keeps the period (kTelemetrySlide).
  void Tick(SimTime now);
  std::uint64_t ticks() const { return ticks_; }
  // Where fired alerts land as trace instants; null (the default) keeps
  // them in the alert log only.
  void TraceAlertsTo(Tracer* tracer) { tracer_ = tracer; }

  // Runs after rule evaluation on every tick — how NodeHealth (or a
  // future controller) gets a deterministic periodic callback.
  void AddTickHook(std::function<void(SimTime)> hook);

  // --- live queries -----------------------------------------------------
  const Rollup* Find(std::string_view name) const;
  // Unknown names return an empty result / 0 — callers (rules wired from
  // config strings) should not crash the sim.
  RollupResult Query(std::string_view name, Duration window) const;
  double QueryAgg(std::string_view name, Agg agg, Duration window) const;

  // --- extraction (sweep idiom) -----------------------------------------
  const std::vector<Alert>& alerts() const { return alerts_; }
  const TelemetrySeries& series() const { return series_; }
  AlertLog TakeAlerts();
  TelemetrySeries TakeSeries();

 private:
  Rollup* AddInstrument(std::string name, Rollup::Kind kind);
  void EvaluateRules(SimTime now);
  void Fire(SimTime now, const std::string& rule, const std::string& metric,
            double value, double threshold, Duration window);

  struct ThresholdState {
    ThresholdRule rule;
    bool firing = false;
  };
  struct BurnState {
    BurnRateRule rule;
    bool firing = false;
  };

  std::vector<std::unique_ptr<Rollup>> instruments_;  // registration order
  std::map<std::string, Rollup*, std::less<>> by_name_;
  std::vector<ThresholdState> threshold_rules_;
  std::vector<BurnState> burn_rules_;
  std::vector<std::function<void(SimTime)>> tick_hooks_;
  Tracer* tracer_ = nullptr;
  std::uint64_t ticks_ = 0;
  std::vector<Alert> alerts_;
  TelemetrySeries series_;
};

// --- node health ----------------------------------------------------------

// Instrument names feeding one node's score; empty names drop the term
// and its weight is renormalised away, so heterogeneous tiers (a web
// node has no migration lag) share one config.
struct NodeHealthInputs {
  std::string utilization;  // gauge in [0, 1]
  std::string power;        // gauge, watts
  std::string queue_depth;  // gauge
  std::string shed;         // counter; contributes via rate
  std::string lag;          // gauge (e.g. migration catch-up backlog)
};

struct NodeHealthConfig {
  Duration window = 8.0;
  // Caps map raw aggregates to a [0, 1] penalty (value/cap, clamped).
  double shed_rate_cap = 100.0;  // sheds/s that saturate the shed term
  double power_cap_w = 0.0;      // <= 0 drops the power term
  double lag_cap = 8.0;
};

// Composite per-node health in [0, 1] (1 = healthy): one minus the
// weighted, capped penalty over queue depth, shed rate, utilisation,
// power draw, and lag, each aggregated over `window`. Live via
// `Score`; exported as metrics-CSV columns via `PublishMetrics`; on the
// trace as per-tick kHealth instants via `EmitTraceInstants`.
class NodeHealth {
 public:
  // Queue depth that saturates the queue term.
  static constexpr double kQueueCap = 64.0;
  // Term weights, renormalised over the terms a node actually has.
  static constexpr double kUtilWeight = 0.25;
  static constexpr double kPowerWeight = 0.10;
  static constexpr double kQueueWeight = 0.25;
  static constexpr double kShedWeight = 0.30;
  static constexpr double kLagWeight = 0.10;

  explicit NodeHealth(Telemetry* telemetry,
                      NodeHealthConfig config = NodeHealthConfig{});

  void AddNode(int node_id, NodeHealthInputs inputs);
  double Score(int node_id) const;  // 1.0 for unknown nodes
  std::size_t node_count() const { return nodes_.size(); }

  // Registers one gauge per node — `<prefix>.node<id>` — so health lands
  // in the standard metrics CSV next to the raw signals it summarises.
  void PublishMetrics(MetricsRegistry* registry, const std::string& prefix);

  // Emits a kHealth instant per node per telemetry tick: name "health",
  // track = node id, arg = round(score * 1000). Registers a tick hook,
  // so call at most once, before the run; `this` must outlive the ticks.
  void EmitTraceInstants(Tracer* tracer);

 private:
  struct Node {
    int id;
    NodeHealthInputs inputs;
  };

  double ScoreOf(const Node& node) const;

  Telemetry* telemetry_;
  NodeHealthConfig config_;
  std::vector<Node> nodes_;  // registration order
};

// --- glue -----------------------------------------------------------------

// Builds OpenLoopRecorder stream hooks feeding five instruments:
// `<prefix>.offered` / `.good` / `.shed` / `.errors` counters and a
// `<prefix>.latency` histogram of honest (intended-arrival) latency for
// OK completions. `.good` counts under-SLO OK completions, `.offered`
// counts completions + sheds — exactly the SloGoodFraction numerator and
// denominator, so a BurnRateRule over {prefix}.good / {prefix}.offered
// alerts on the same quantity the post-hoc report prints.
load::SloStreamHooks SloStreamInto(Telemetry* telemetry,
                                   const std::string& prefix);

}  // namespace wimpy::obs

#endif  // WIMPY_OBS_TELEMETRY_H_
