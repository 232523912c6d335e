#include "obs/sinks.h"

#include <algorithm>

#include "obs/energy.h"

namespace wimpy::obs {

RunSinks::RunSinks(sim::Scheduler* sched, Tracer* tracer,
                   MetricsRegistry* metrics, EnergyAttributor* energy,
                   Telemetry* telemetry, int trace_sample_every)
    : sched_(sched),
      tracer_(tracer),
      metrics_(metrics),
      energy_(energy),
      telemetry_(telemetry),
      sample_every_(
          static_cast<std::uint64_t>(std::max(1, trace_sample_every))),
      clock_(metrics != nullptr     ? metrics
             : telemetry != nullptr ? &telemetry_clock_
                                    : nullptr) {
  if (telemetry_ != nullptr) telemetry_->TraceAlertsTo(tracer_);
}

RunSinks::~RunSinks() {
  if (energy_ != nullptr) energy_->UnobserveAll();
}

void RunSinks::AddHealth(const std::string& prefix, int nodes,
                         const NodeHealthConfig& config,
                         const std::string& lag) {
  health_ = std::make_unique<NodeHealth>(telemetry_, config);
  for (int i = 0; i < nodes; ++i) {
    const std::string node = prefix + std::to_string(i);
    health_->AddNode(i, {.utilization = node + ".cpu_busy",
                         .power = node + ".power_w",
                         .queue_depth = "gate.queue_depth",
                         .shed = "slo.shed",
                         .lag = lag});
  }
  if (metrics_ != nullptr) health_->PublishMetrics(metrics_, "health");
  if (tracer_ != nullptr) health_->EmitTraceInstants(tracer_);
}

void RunSinks::ArmSloRules(load::OpenLoopRecorder& recorder,
                           const load::OpenLoopGate& gate, Duration slo) {
  if (telemetry_ == nullptr) return;
  recorder.set_stream(SloStreamInto(telemetry_, "slo"));
  telemetry_->AddProbe("gate.queue_depth", [&gate] {
    return static_cast<double>(gate.queue_depth());
  });
  if (slo <= 0.0) return;
  telemetry_->AddBurnRateRule({.name = "slo_burn",
                               .good_metric = "slo.good",
                               .total_metric = "slo.offered",
                               .slo_target = 0.9,  // 10% error budget
                               .burn_threshold = 1.0,  // faster than budget
                               .short_window = Seconds(2),
                               .long_window = Seconds(8)});
  telemetry_->AddThresholdRule({.name = "latency_p99_high",
                                .metric = "slo.latency",
                                .agg = Agg::kP99,
                                .threshold = slo,
                                .window = Seconds(2)});
  telemetry_->AddThresholdRule({.name = "shed_spike",
                                .metric = "slo.shed",
                                .agg = Agg::kRate,
                                .threshold = 1.0,  // sheds/s
                                .window = Seconds(2)});
}

void RunSinks::OpenWindow() {
  if (tracer_ != nullptr) {
    tracer_->InstantAt(sched_->now(), "measure_start", Category::kApp, 0);
  }
  if (energy_ != nullptr) energy_->BeginWindow();
}

void RunSinks::CloseWindow() {
  if (clock_ != nullptr) {
    if (telemetry_ != nullptr && clock_->TickDueNow()) {
      telemetry_->Tick(sched_->now());  // the run's last full bucket
    }
    clock_->Stop();
  }
  if (tracer_ != nullptr) {
    tracer_->InstantAt(sched_->now(), "measure_end", Category::kApp, 0);
  }
  if (energy_ != nullptr) energy_->EndWindow();
}

void RunSinks::StartSampling() {
  if (clock_ != nullptr) clock_->Start(sched_, telemetry_);
}

void RunSinks::FinishMetrics() {
  if (metrics_ == nullptr) return;
  metrics_->SampleNow();
  metrics_->Detach();
}

}  // namespace wimpy::obs
