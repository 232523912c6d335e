// Sharded KV store-tier experiment (docs/sharding.md): the one store
// harness.
//
// A store tier spread over a rack → aggregation → core hierarchy
// (net/topology.h) with configurable oversubscription, fronted by the
// consistent-hash shard router, with optional mid-run membership churn
// (a node joining or gracefully leaving) driving live migration and
// optional mid-run node failures, while the open-loop load keeps
// flowing. The report carries the throughput / p99 / queries-per-joule
// triple plus the rebalance cost and the link-utilisation evidence for
// the cross-rack bandwidth cliffs. One rack with no spares is the
// paper's FAWN rig: kv::KvExperiment is that case, under the tier name
// "kv".
#ifndef WIMPY_SHARD_EXPERIMENT_H_
#define WIMPY_SHARD_EXPERIMENT_H_

#include <cstdint>
#include <string>

#include "common/units.h"
#include "hw/profile.h"
#include "kv/store.h"
#include "load/openloop.h"
#include "shard/migrator.h"
#include "shard/ring.h"

namespace wimpy::obs {
class EnergyAttributor;
class MetricsRegistry;
class Telemetry;
class Tracer;
}  // namespace wimpy::obs

namespace wimpy::shard {

// Mid-run membership scenario. kJoin brings the provisioned spare node
// into the ring at the window midpoint; kLeave gracefully drains the
// highest-numbered ring member (it serves until every shard hands off).
enum class Churn { kNone, kJoin, kLeave };

struct ShardExperimentConfig {
  hw::HardwareProfile node_profile;  // defaulted to Edison in the ctor
  // Tier name: store role `<name>-store`, metrics and telemetry node
  // probes `<name><i>.*`.
  std::string name = "shard";
  int racks = 3;
  int nodes_per_rack = 4;
  // Provisioned-but-idle nodes outside the ring (round-robin across
  // racks, after the members); the join scenario's target.
  int spare_nodes = 1;
  int client_machines = 4;  // Dell-class generators in a core-attached room
  // Topology knob (net/topology.h): rack uplink =
  // nodes_per_rack * NIC / rack_oversubscription. Two racks share a pod,
  // and the core adds no thinning of its own.
  double rack_oversubscription = 4.0;
  RingConfig ring;  // shards, vnodes, chain replication factor
  MigratorConfig migration;
  kv::KvConfig store;
  double get_fraction = 0.90;
  Churn churn = Churn::kNone;
  std::uint64_t seed = 20260808;
  // Observability sinks (borrowed, may be null; see obs/sinks.h for
  // the sampling contract).
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::EnergyAttributor* energy = nullptr;
  int trace_sample_every = 64;
  // Online telemetry plane (obs/telemetry.h; null = zero overhead).
  // Beyond the shared wiring (SLO stream, queue probe, burn-rate/shed/p99
  // rules, NodeHealth; obs/sinks.h), a Measure adds migration-lag probes
  // (`migration.inflight|shards_moved|catchup_bytes` over the live
  // MigrationStats — the NodeHealth lag term) and a
  // `net.max_uplink_busy` probe with a hottest-uplink saturation rule.
  // One Telemetry per Measure call; borrowed, must outlive it.
  obs::Telemetry* telemetry = nullptr;
  // Open-loop load shape (docs/openloop.md): arrival model/burstiness,
  // client-side admission gate, SLO bound. `openloop.arrival.rate` is
  // overridden by Measure's target_qps. The default (Poisson, unbounded,
  // no SLO) reproduces the legacy generator draw-for-draw, so golden
  // traces and BENCH_shard.json stay valid.
  load::OpenLoopConfig openloop;

  ShardExperimentConfig();
  int ring_nodes() const { return racks * nodes_per_rack; }
};

struct ShardReport {
  double target_qps = 0;
  // Queries that *arrived* in the window (all eventually complete in an
  // open-loop sim, so this tracks the offered load).
  double achieved_qps = 0;
  // Queries that arrived AND completed inside the window — the number
  // that actually bends when oversubscribed uplinks saturate and the
  // backlog grows.
  double goodput_qps = 0;
  std::int64_t done = 0;
  std::int64_t failed = 0;  // routing found no healthy owner
  double error_rate = 0;
  Duration mean_latency = 0;
  Duration p99_latency = 0;
  Watts store_power = 0;  // ring members + spares (the provisioned tier)
  double queries_per_joule = 0;
  // Chain-replication hops that crossed a rack boundary / all such hops.
  double cross_rack_replica_fraction = 0;
  // Time-averaged busy fraction of the hottest rack uplink and pod->core
  // link — where the oversubscription cliff shows up.
  double max_rack_uplink_busy = 0;
  double max_core_link_busy = 0;
  MigrationStats migration;  // zeroed when churn == kNone
  std::uint64_t executed_events = 0;
  // Coordinated-omission-free measurement (docs/openloop.md): latency from
  // the intended arrival rather than dispatch, client-side sheds, and
  // SLO-conditioned efficiency. Zero when config.openloop leaves the
  // defaults (no gate, no SLO).
  Duration p99_intended_latency = 0;
  std::int64_t shed = 0;
  double slo_good_fraction = 0;      // under-SLO completions / offered
  double slo_goodput_per_joule = 0;  // under-SLO completions / window ∫P dt
};

class ShardExperiment {
 public:
  // Checks the geometry in every build type: racks, nodes_per_rack and
  // client_machines >= 1, spare_nodes >= 0 (>= 1 for kJoin), and
  // get_fraction in [0, 1]; a bad config aborts with a message.
  explicit ShardExperiment(ShardExperimentConfig config);

  // Open-loop Poisson load at `target_qps` for `measure` seconds after a
  // 2 s warm-up; churn (if any) fires at the window midpoint.
  ShardReport Measure(double target_qps, Duration measure = Seconds(12));

  // Measure, plus a crash of the first `failed_nodes` stores (at most all
  // but one) at the window midpoint, before any churn. Requests route to
  // the first healthy store down the serving chain, then down the target
  // ring's preference list; replication must be >= 2 for failed
  // primaries' data to remain readable.
  ShardReport MeasureWithFailover(double target_qps, int failed_nodes,
                                  Duration measure = Seconds(12));

  const ShardExperimentConfig& config() const { return config_; }

 private:
  // The one run body: Measure is MeasureWithFailover with no failures.
  ShardReport Run(double target_qps, int failed_nodes, Duration measure);

  ShardExperimentConfig config_;
};

}  // namespace wimpy::shard

#endif  // WIMPY_SHARD_EXPERIMENT_H_
