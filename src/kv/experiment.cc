#include "kv/experiment.h"

namespace wimpy::kv {

namespace {

// The FAWN rig as the harness's one-rack case: every store on one rack,
// no spares, no churn, keys on a ketama ring (shard/ring.h) with chain
// replication down each shard's preference list.
shard::ShardExperimentConfig HarnessConfig(const KvExperimentConfig& kv) {
  shard::ShardExperimentConfig config;
  config.node_profile = kv.node_profile;
  config.name = "kv";
  config.racks = 1;
  config.nodes_per_rack = kv.node_count;
  config.spare_nodes = 0;
  config.client_machines = kv.client_machines;
  config.ring.replication = kv.replication;
  config.store = kv.store;
  config.get_fraction = kv.get_fraction;
  config.seed = kv.seed;
  config.tracer = kv.tracer;
  config.metrics = kv.metrics;
  config.energy = kv.energy;
  config.trace_sample_every = kv.trace_sample_every;
  config.telemetry = kv.telemetry;
  config.openloop = kv.openloop;
  return config;
}

KvReport ToKvReport(const shard::ShardReport& r) {
  KvReport report;
  report.target_qps = r.target_qps;
  report.achieved_qps = r.achieved_qps;
  report.error_rate = r.error_rate;
  report.mean_latency = r.mean_latency;
  report.p99_latency = r.p99_latency;
  report.store_power = r.store_power;
  report.queries_per_joule = r.queries_per_joule;
  report.executed_events = r.executed_events;
  report.p99_intended_latency = r.p99_intended_latency;
  report.shed = r.shed;
  report.slo_good_fraction = r.slo_good_fraction;
  report.slo_goodput_per_joule = r.slo_goodput_per_joule;
  return report;
}

}  // namespace

KvExperiment::KvExperiment(KvExperimentConfig config)
    : config_(std::move(config)), harness_(HarnessConfig(config_)) {}

KvReport KvExperiment::Measure(double target_qps, Duration measure) {
  return ToKvReport(harness_.Measure(target_qps, measure));
}

KvReport KvExperiment::MeasureWithFailover(double target_qps,
                                           int failed_nodes,
                                           Duration measure) {
  return ToKvReport(
      harness_.MeasureWithFailover(target_qps, failed_nodes, measure));
}

KvReport KvExperiment::FindPeak(double start_qps, double max_qps) {
  KvReport best;
  Duration baseline_latency = 0;
  for (double qps = start_qps; qps <= max_qps; qps *= 2.0) {
    const KvReport report = Measure(qps, Seconds(10));
    if (baseline_latency == 0) baseline_latency = report.mean_latency;
    // Knee detection: stop once the system can no longer keep up or the
    // latency has blown out by an order of magnitude.
    if (report.achieved_qps < 0.85 * qps ||
        report.mean_latency > 10 * baseline_latency) {
      break;
    }
    best = report;
  }
  return best;
}

}  // namespace wimpy::kv
