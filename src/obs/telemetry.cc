#include "obs/telemetry.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace wimpy::obs {

namespace {
double Clamp01(double v) { return v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v); }
}  // namespace

// --- Rollup ---------------------------------------------------------------

Rollup::Rollup(std::string name, Kind kind)
    : name_(std::move(name)), kind_(kind) {}

void Rollup::Observe(double value) {
  if (open_.count == 0) {
    open_.min = value;
    open_.max = value;
  } else {
    if (value < open_.min) open_.min = value;
    if (value > open_.max) open_.max = value;
  }
  ++open_.count;
  open_.sum += value;
  if (kind_ == Kind::kCounter) {
    total_ += value;
  } else if (kind_ == Kind::kHistogram) {
    open_sketch_.Record(value);
  }
}

void Rollup::Close() {
  ring_.push_back(open_);
  open_ = Bucket{};
  if (kind_ == Kind::kHistogram) {
    ring_sketch_.push_back(std::move(open_sketch_));
    if (ring_sketch_.size() > kRollupRingBuckets) {
      // Recycle the evicted sketch's count array into the fresh open
      // bucket: steady-state tumbling allocates nothing.
      HdrSketch recycled = std::move(ring_sketch_.front());
      ring_sketch_.pop_front();
      recycled.Reset();
      open_sketch_ = std::move(recycled);
    } else {
      open_sketch_ = HdrSketch{};
    }
  }
  if (ring_.size() > kRollupRingBuckets) ring_.pop_front();
  ++closed_total_;
}

RollupResult Rollup::Query(Duration window) const {
  RollupResult r;
  r.has_sketch = kind_ == Kind::kHistogram;
  long k = std::lround(window / kTelemetrySlide);
  if (k < 1) k = 1;
  const std::size_t n =
      std::min(static_cast<std::size_t>(k), ring_.size());
  r.window = static_cast<double>(n) * kTelemetrySlide;
  if (n == 0) return r;
  HdrSketch merged;
  bool first = true;
  for (std::size_t i = ring_.size() - n; i < ring_.size(); ++i) {
    const Bucket& b = ring_[i];
    if (r.has_sketch) merged.Merge(ring_sketch_[i]);
    if (b.count == 0) continue;
    if (first) {
      r.min = b.min;
      r.max = b.max;
      first = false;
    } else {
      if (b.min < r.min) r.min = b.min;
      if (b.max > r.max) r.max = b.max;
    }
    r.count += b.count;
    r.sum += b.sum;
    r.integral += (b.sum / static_cast<double>(b.count)) * kTelemetrySlide;
  }
  if (r.window > 0.0) r.rate = static_cast<double>(r.count) / r.window;
  if (r.count > 0) r.mean = r.sum / static_cast<double>(r.count);
  if (r.has_sketch && merged.count() > 0) {
    r.p50 = merged.Quantile(0.50);
    r.p90 = merged.Quantile(0.90);
    r.p99 = merged.Quantile(0.99);
  }
  return r;
}

double Rollup::QueryAgg(Agg agg, Duration window) const {
  const RollupResult r = Query(window);
  switch (agg) {
    case Agg::kRate: return r.rate;
    case Agg::kMean: return r.mean;
    case Agg::kMin: return r.min;
    case Agg::kMax: return r.max;
    case Agg::kIntegral: return r.integral;
    case Agg::kP50: return r.p50;
    case Agg::kP90: return r.p90;
    case Agg::kP99: return r.p99;
  }
  return 0.0;
}

double Counter::total() const {
  return rollup_ == nullptr ? 0.0 : rollup_->total_;
}

// --- Telemetry ------------------------------------------------------------

Telemetry::~Telemetry() {
  running_ = false;
  if (pending_ != 0 && sched_ != nullptr) {
    sched_->Cancel(pending_);
    pending_ = 0;
  }
}

Rollup* Telemetry::AddInstrument(std::string name, Rollup::Kind kind) {
  // by_name_ keeps the first of two equal names, so a duplicate's rollup
  // would be orphaned: recorded into, but never found or exported by name.
  Check(by_name_.find(name) == by_name_.end(), "obs::Telemetry",
        "duplicate instrument name");
  instruments_.push_back(std::unique_ptr<Rollup>(
      new Rollup(std::move(name), kind)));
  Rollup* rollup = instruments_.back().get();
  by_name_.emplace(rollup->name_, rollup);
  return rollup;
}

Counter Telemetry::AddCounter(std::string name) {
  return Counter(AddInstrument(std::move(name), Rollup::Kind::kCounter));
}

Histogram Telemetry::AddHistogram(std::string name) {
  return Histogram(AddInstrument(std::move(name), Rollup::Kind::kHistogram));
}

void Telemetry::AddProbe(std::string name, std::function<double()> probe) {
  Rollup* rollup = AddInstrument(std::move(name), Rollup::Kind::kGauge);
  rollup->probe_ = std::move(probe);
}

void Telemetry::AddThresholdRule(ThresholdRule rule) {
  threshold_rules_.push_back(ThresholdState{std::move(rule), false});
}

void Telemetry::AddBurnRateRule(BurnRateRule rule) {
  burn_rules_.push_back(BurnState{std::move(rule), false});
}

void Telemetry::AddTickHook(std::function<void(SimTime)> hook) {
  tick_hooks_.push_back(std::move(hook));
}

void Telemetry::Start(sim::Scheduler* sched, Tracer* tracer) {
  Stop();
  sched_ = sched;
  tracer_ = tracer;
  running_ = true;
  open_start_ = sched_->now();
  pending_ = sched_->ScheduleAfter(kTelemetrySlide, [this] {
    pending_ = 0;
    Tick();
  });
}

void Telemetry::Stop() {
  if (!running_) return;
  // A window-end ScheduleAt callback carries an older sequence number
  // than the tick scheduled for the same instant, so it runs first and
  // cancels that tick below. If a full bucket is due exactly now, close
  // it here so the run's last bucket is not lost.
  if (sched_ != nullptr && sched_->now() == open_start_ + kTelemetrySlide) {
    CloseBuckets(sched_->now());
  }
  running_ = false;
  if (pending_ != 0 && sched_ != nullptr) {
    sched_->Cancel(pending_);
    pending_ = 0;
  }
}

void Telemetry::Tick() {
  if (!running_) return;
  CloseBuckets(sched_->now());
  pending_ = sched_->ScheduleAfter(kTelemetrySlide, [this] {
    pending_ = 0;
    Tick();
  });
}

void Telemetry::CloseBuckets(SimTime bucket_end) {
  for (auto& instrument : instruments_) {
    if (instrument->kind_ == Rollup::Kind::kGauge && instrument->probe_) {
      instrument->Observe(instrument->probe_());
    }
  }
  for (auto& instrument : instruments_) {
    const Rollup::Bucket& bucket = instrument->open_;
    if (bucket.count != 0) {
      const std::string& name = instrument->name_;
      series_.rows.push_back(
          {bucket_end, name + ".count", static_cast<double>(bucket.count)});
      series_.rows.push_back({bucket_end, name + ".sum", bucket.sum});
      series_.rows.push_back({bucket_end, name + ".min", bucket.min});
      series_.rows.push_back({bucket_end, name + ".max", bucket.max});
      if (instrument->kind_ == Rollup::Kind::kHistogram) {
        instrument->open_sketch_.ForEachNonZero(
            [&](int index, std::uint64_t count) {
              series_.rows.push_back({bucket_end,
                                      name + ".b" + std::to_string(index),
                                      static_cast<double>(count)});
            });
      }
    }
    instrument->Close();
  }
  ++ticks_;
  open_start_ = bucket_end;
  EvaluateRules(bucket_end);
  for (auto& hook : tick_hooks_) hook(bucket_end);
}

void Telemetry::EvaluateRules(SimTime now) {
  for (ThresholdState& state : threshold_rules_) {
    const ThresholdRule& rule = state.rule;
    const double value = QueryAgg(rule.metric, rule.agg, rule.window);
    const bool hot =
        rule.above ? value > rule.threshold : value < rule.threshold;
    if (hot && !state.firing) {
      Fire(now, rule.name, rule.metric, value, rule.threshold, rule.window);
    }
    state.firing = hot;
  }
  for (BurnState& state : burn_rules_) {
    const BurnRateRule& rule = state.rule;
    const double budget = 1.0 - rule.slo_target;
    if (budget <= 0.0) continue;
    const auto burn = [&](Duration window) {
      const double total = Query(rule.total_metric, window).sum;
      if (total <= 0.0) return 0.0;
      const double good = Query(rule.good_metric, window).sum;
      return (1.0 - good / total) / budget;
    };
    const double short_burn = burn(rule.short_window);
    const bool hot = short_burn > rule.burn_threshold &&
                     burn(rule.long_window) > rule.burn_threshold;
    if (hot && !state.firing) {
      Fire(now, rule.name, rule.good_metric, short_burn, rule.burn_threshold,
           rule.short_window);
    }
    state.firing = hot;
  }
}

void Telemetry::Fire(SimTime now, const std::string& rule,
                     const std::string& metric, double value, double threshold,
                     Duration window) {
  alerts_.push_back(Alert{now, rule, metric, value, threshold, window});
  if (tracer_ != nullptr) {
    tracer_->InstantAt(now, tracer_->Intern(rule), Category::kAlert,
                       /*track=*/0, std::llround(value * 1e6));
  }
}

const Rollup* Telemetry::Find(std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

RollupResult Telemetry::Query(std::string_view name, Duration window) const {
  const Rollup* rollup = Find(name);
  return rollup == nullptr ? RollupResult{} : rollup->Query(window);
}

double Telemetry::QueryAgg(std::string_view name, Agg agg,
                           Duration window) const {
  const Rollup* rollup = Find(name);
  return rollup == nullptr ? 0.0 : rollup->QueryAgg(agg, window);
}

AlertLog Telemetry::TakeAlerts() {
  AlertLog out;
  out.alerts = std::move(alerts_);
  alerts_.clear();
  return out;
}

TelemetrySeries Telemetry::TakeSeries() {
  TelemetrySeries out = std::move(series_);
  series_ = TelemetrySeries{};
  return out;
}

// --- NodeHealth -----------------------------------------------------------

NodeHealth::NodeHealth(Telemetry* telemetry, NodeHealthConfig config)
    : telemetry_(telemetry), config_(config) {}

void NodeHealth::AddNode(int node_id, NodeHealthInputs inputs) {
  nodes_.push_back(Node{node_id, std::move(inputs)});
}

double NodeHealth::ScoreOf(const Node& node) const {
  double weight_sum = 0.0;
  double penalty = 0.0;
  const auto term = [&](const std::string& metric, double weight, Agg agg,
                        double cap) {
    if (metric.empty() || cap <= 0.0) return;
    const double value = telemetry_->QueryAgg(metric, agg, config_.window);
    weight_sum += weight;
    penalty += weight * Clamp01(value / cap);
  };
  term(node.inputs.utilization, kUtilWeight, Agg::kMean, 1.0);
  term(node.inputs.power, kPowerWeight, Agg::kMean, config_.power_cap_w);
  term(node.inputs.queue_depth, kQueueWeight, Agg::kMean, kQueueCap);
  term(node.inputs.shed, kShedWeight, Agg::kRate, config_.shed_rate_cap);
  term(node.inputs.lag, kLagWeight, Agg::kMean, config_.lag_cap);
  if (weight_sum <= 0.0) return 1.0;
  return Clamp01(1.0 - penalty / weight_sum);
}

double NodeHealth::Score(int node_id) const {
  for (const Node& node : nodes_) {
    if (node.id == node_id) return ScoreOf(node);
  }
  return 1.0;
}

void NodeHealth::PublishMetrics(MetricsRegistry* registry,
                                const std::string& prefix) {
  for (const Node& node : nodes_) {
    registry->AddGauge(prefix + ".node" + std::to_string(node.id),
                       [this, id = node.id] { return Score(id); });
  }
}

void NodeHealth::EmitTraceInstants(Tracer* tracer) {
  telemetry_->AddTickHook([this, tracer](SimTime now) {
    for (const Node& node : nodes_) {
      tracer->InstantAt(now, "health", Category::kHealth, node.id,
                        std::llround(ScoreOf(node) * 1000.0));
    }
  });
}

// --- glue -----------------------------------------------------------------

load::SloStreamHooks SloStreamInto(Telemetry* telemetry,
                                   const std::string& prefix) {
  Counter offered = telemetry->AddCounter(prefix + ".offered");
  Counter good = telemetry->AddCounter(prefix + ".good");
  Counter shed = telemetry->AddCounter(prefix + ".shed");
  Counter errors = telemetry->AddCounter(prefix + ".errors");
  Histogram latency = telemetry->AddHistogram(prefix + ".latency");
  load::SloStreamHooks hooks;
  hooks.on_complete = [offered, good, errors, latency](
                          SimTime /*intended*/, Duration honest, bool ok,
                          bool under_slo) mutable {
    offered.Add();
    if (!ok) {
      errors.Add();
      return;
    }
    latency.Record(honest);
    if (under_slo) good.Add();
  };
  hooks.on_shed = [offered, shed](SimTime /*intended*/) mutable {
    offered.Add();
    shed.Add();
  };
  return hooks;
}

}  // namespace wimpy::obs
