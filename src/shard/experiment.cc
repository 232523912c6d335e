#include "shard/experiment.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/stats.h"
#include "hw/profiles.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "obs/energy.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "shard/router.h"
#include "sim/process.h"

namespace wimpy::shard {

namespace {

net::HierarchicalTopologyConfig TopologyConfig(
    const ShardExperimentConfig& config) {
  net::HierarchicalTopologyConfig topo;
  topo.racks = config.racks;
  topo.racks_per_pod = config.racks_per_pod;
  topo.nodes_per_rack = config.nodes_per_rack;
  topo.node_bandwidth = config.node_profile.nic.bandwidth;
  topo.rack_oversubscription = config.rack_oversubscription;
  topo.core_oversubscription = config.core_oversubscription;
  return topo;
}

struct ShardTestbed {
  explicit ShardTestbed(const ShardExperimentConfig& config)
      : fabric(&sched),
        topo(&fabric, TopologyConfig(config)),
        clstr(&sched, &fabric),
        rng(config.seed) {
    // Clients live in their own room hanging off the core switch, like
    // the kv testbed's client room — only now the path to any store
    // crosses core → agg → rack, so client traffic and replication
    // traffic contend for the same oversubscribed uplinks.
    topo.AttachToCore("client-room", Gbps(10), Milliseconds(0.02));

    // Ring members rack by rack (store index == fabric node id because
    // stores are created first), then the provisioned spares round-robin
    // across racks, then the load generators.
    std::vector<hw::ServerNode*> store_nodes;
    for (int r = 0; r < config.racks; ++r) {
      auto rack_nodes = clstr.AddNodes(config.node_profile,
                                       config.nodes_per_rack, "shard-store",
                                       topo.RackGroup(r));
      store_nodes.insert(store_nodes.end(), rack_nodes.begin(),
                         rack_nodes.end());
    }
    for (int s = 0; s < config.spare_nodes; ++s) {
      auto spare = clstr.AddNodes(config.node_profile, 1, "shard-store",
                                  topo.RackGroup(s % config.racks));
      store_nodes.push_back(spare[0]);
    }
    auto client_nodes = clstr.AddNodes(hw::DellR620Profile(),
                                       config.client_machines, "client",
                                       "client-room");

    for (auto* node : store_nodes) {
      stores.push_back(std::make_unique<kv::KvNode>(node, &fabric,
                                                    config.store,
                                                    rng.Next()));
    }
    for (auto* node : client_nodes) client_ids.push_back(node->id());

    std::vector<int> members;
    for (int i = 0; i < config.ring_nodes(); ++i) members.push_back(i);
    router = std::make_unique<Router>(config.ring, members);
    migrator = std::make_unique<Migrator>(&clstr, router.get(),
                                          config.migration);

    tracer = config.tracer;
    metrics = config.metrics;
    energy = config.energy;
    trace_sample_every = std::max(1, config.trace_sample_every);
    if (energy != nullptr) {
      // The whole provisioned store tier is observed (members + spares):
      // an idle spare still burns idle watts, which is exactly the
      // provisioning cost the scale-out bench wants visible.
      for (auto& store : stores) store->node().ObserveEnergy(energy);
    }
    if (metrics != nullptr) {
      for (std::size_t i = 0; i < stores.size(); ++i) {
        stores[i]->node().PublishMetrics(metrics,
                                         "shard" + std::to_string(i));
      }
      fabric.PublishMetrics(metrics, "net");
    }
    telemetry = config.telemetry;
    if (telemetry != nullptr) {
      for (std::size_t i = 0; i < stores.size(); ++i) {
        stores[i]->node().PublishTelemetry(telemetry,
                                           "shard" + std::to_string(i));
      }
      obs::NodeHealthConfig health_config;
      health_config.power_cap_w = config.node_profile.power.busy +
                                  config.node_profile.power.constant_adapter;
      // The lag input is a 0/1 in-migration flag: an active churn
      // handoff costs the full lag weight.
      health_config.lag_cap = 1.0;
      health = std::make_unique<obs::NodeHealth>(telemetry, health_config);
      for (std::size_t i = 0; i < stores.size(); ++i) {
        const std::string node = "shard" + std::to_string(i);
        obs::NodeHealthInputs inputs;
        inputs.utilization = node + ".cpu_busy";
        inputs.power = node + ".power_w";
        inputs.queue_depth = "gate.queue_depth";
        inputs.shed = "slo.shed";
        // Churn hurts every member's score while handoffs are in
        // flight: catch-up lag is a cluster-wide signal here.
        inputs.lag = "migration.inflight";
        health->AddNode(static_cast<int>(i), std::move(inputs));
      }
      if (metrics != nullptr) health->PublishMetrics(metrics, "health");
      if (tracer != nullptr) health->EmitTraceInstants(tracer);
    }
  }

  int StoreNodeId(int store_index) const {
    return stores[static_cast<std::size_t>(store_index)]->node().id();
  }

  // 1-in-N query trace sampling (same contract as the kv/web testbeds:
  // the counter lives outside the random streams, so tracing on/off
  // never changes simulated behaviour).
  obs::TraceHandle StartTrace() {
    const std::uint64_t query = query_counter_++;
    if (tracer == nullptr ||
        query % static_cast<std::uint64_t>(trace_sample_every) != 0) {
      return {};
    }
    obs::TraceHandle handle;
    handle.tracer = tracer;
    handle.sched = &sched;
    handle.track = static_cast<std::int32_t>(query & 0x7fffffff);
    handle.ctx.trace_id = tracer->NewTraceId();
    return handle;
  }

  // Settle the attributor while the scheduler and nodes still exist: the
  // caller may take its ledger after this testbed is gone.
  ~ShardTestbed() {
    if (energy != nullptr) energy->UnobserveAll();
  }

  sim::Scheduler sched;
  net::Fabric fabric;
  net::HierarchicalTopology topo;
  cluster::Cluster clstr;
  Rng rng;
  std::vector<std::unique_ptr<kv::KvNode>> stores;
  std::vector<int> client_ids;
  std::unique_ptr<Router> router;
  std::unique_ptr<Migrator> migrator;
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::EnergyAttributor* energy = nullptr;
  obs::Telemetry* telemetry = nullptr;
  std::unique_ptr<obs::NodeHealth> health;
  int trace_sample_every = 64;
  std::uint64_t query_counter_ = 0;
};

struct ShardWindow {
  SimTime start = 0;
  SimTime end = 0;
  std::int64_t done = 0;
  std::int64_t completed_in_window = 0;
  std::int64_t failed = 0;
  std::int64_t replica_hops = 0;
  std::int64_t cross_rack_replica_hops = 0;
  OnlineStats latency;
  PercentileTracker percentiles;
};

// First healthy member of the shard's serving chain; when the whole
// chain is down, fall back to the target ring's preference order (the
// same walk the kv experiment does). -1 when every store is down.
int RouteToHealthy(ShardTestbed& tb, int shard) {
  const Router::Chain chain = tb.router->ServingChain(shard);
  for (int member : chain) {
    if (!tb.stores[static_cast<std::size_t>(member)]->failed()) {
      return member;
    }
  }
  for (int member : tb.router->Preference(shard)) {
    if (!tb.stores[static_cast<std::size_t>(member)]->failed()) {
      return member;
    }
  }
  return -1;
}

using ShardGate = load::AdmissionGate<Rng>;

sim::Process OneQuery(ShardTestbed& tb, const ShardExperimentConfig& config,
                      ShardWindow& window, load::OpenLoopRecorder& recorder,
                      ShardGate& gate, SimTime intended, Rng rng) {
  const SimTime started = tb.sched.now();
  const int shard = tb.router->ShardOf(rng.Next());
  const int serving = RouteToHealthy(tb, shard);
  // Root span of the query's trace tree (arg = shard); the "shard_hop"
  // child brackets the whole routed interaction with the owner chain, so
  // trace_analyze decomposes time spent inside each shard — and, via the
  // nested req/reply/repl net hops, across racks — without changes.
  obs::CausalSpan query_span(tb.StartTrace(), "query",
                             obs::Category::kRequest, shard);
  if (serving < 0) query_span.Instant("route_failed");
  const int client = tb.client_ids[rng.NextBelow(tb.client_ids.size())];
  const Bytes value = DrawnBytes(
      rng.LogNormalMeanStd(
          static_cast<double>(config.store.value_size_mean),
          static_cast<double>(config.store.value_size_stddev)),
      64);
  const bool ok = serving >= 0;
  if (ok) {
    kv::KvNode* store = tb.stores[static_cast<std::size_t>(serving)].get();
    obs::CausalSpan hop(query_span.handle(), "shard_hop",
                        obs::Category::kNet, store->node().id());
    if (rng.Bernoulli(config.get_fraction)) {
      obs::CausalSpan op(hop.handle(), "get", obs::Category::kRequest,
                         store->node().id());
      obs::ScopedResidency res(tb.energy, store->node().id(), op.handle(),
                               "get");
      co_await store->Get(client, value, op.handle());
    } else {
      // Writes to a migrating shard are counted at routing time so the
      // migrator can size its catch-up passes.
      tb.router->OnWrite(shard);
      {
        obs::CausalSpan op(hop.handle(), "put", obs::Category::kRequest,
                           store->node().id());
        obs::ScopedResidency res(tb.energy, store->node().id(),
                                 op.handle(), "put");
        co_await store->Put(client, value, op.handle());
      }
      // Chain replication along the healthy remainder of the serving
      // chain, counting rack-boundary crossings for the report.
      const Router::Chain chain = tb.router->ServingChain(shard);
      int upstream = serving;
      for (int member : chain) {
        if (member == serving) continue;
        kv::KvNode* replica =
            tb.stores[static_cast<std::size_t>(member)].get();
        if (replica->failed()) continue;
        ++window.replica_hops;
        if (tb.fabric.GroupIdOf(tb.StoreNodeId(upstream)) !=
            tb.fabric.GroupIdOf(replica->node().id())) {
          ++window.cross_rack_replica_hops;
        }
        {
          obs::CausalSpan op(hop.handle(), "replicate",
                             obs::Category::kRequest, replica->node().id());
          obs::ScopedResidency res(tb.energy, replica->node().id(),
                                   op.handle(), "replicate");
          co_await replica->ApplyReplicatedWrite(tb.StoreNodeId(upstream),
                                                 value, op.handle());
        }
        upstream = member;
      }
    }
  }
  const SimTime finished = tb.sched.now();
  if (started >= window.start && started < window.end) {
    if (ok) {
      ++window.done;
      // Goodput: the backlog from saturated uplinks pushes completions
      // past the window edge, so this is the counter that bends.
      if (finished < window.end) ++window.completed_in_window;
      window.latency.Add(finished - started);
      window.percentiles.Add(finished - started);
    } else {
      ++window.failed;
    }
  }
  // Honest accounting: windowed by intended arrival, latency from it too.
  recorder.OnComplete(intended, started, finished, ok);
  // A completion frees a dispatch slot; the queue head (if any) inherits
  // it and still measures from its own intended arrival.
  if (auto next = gate.OnComplete()) {
    sim::Spawn(tb.sched, OneQuery(tb, config, window, recorder, gate,
                                  next->intended, std::move(next->payload)));
  }
}

sim::Process Arrivals(ShardTestbed& tb, const ShardExperimentConfig& config,
                      ShardWindow& window, load::OpenLoopRecorder& recorder,
                      ShardGate& gate, double qps, Rng rng) {
  load::ArrivalConfig shape = config.openloop.arrival;
  shape.rate = qps;
  load::ArrivalProcess arrivals(shape);
  while (tb.sched.now() < window.end) {
    co_await sim::Delay(tb.sched, arrivals.NextGap(rng));
    if (tb.sched.now() >= window.end) break;
    const SimTime intended = tb.sched.now();
    Rng child = rng.Fork();
    switch (gate.Admit()) {
      case load::Admission::kDispatch:
        sim::Spawn(tb.sched, OneQuery(tb, config, window, recorder, gate,
                                      intended, std::move(child)));
        break;
      case load::Admission::kQueue:
        gate.Enqueue(intended, std::move(child));
        break;
      case load::Admission::kShed:
        recorder.OnShed(intended);
        break;
    }
  }
}

}  // namespace

ShardExperimentConfig::ShardExperimentConfig()
    : node_profile(hw::EdisonProfile()) {}

ShardReport ShardExperiment::Measure(double target_qps, Duration measure) {
  ShardTestbed tb(config_);
  ShardWindow window;
  window.start = Seconds(2);
  window.end = window.start + measure;

  MigrationStats migration;
  if (config_.churn != Churn::kNone) {
    tb.sched.ScheduleAt(window.start + measure / 2, [this, &tb,
                                                     &migration] {
      std::vector<Router::ShardMove> moves;
      if (config_.churn == Churn::kJoin) {
        // The first provisioned spare joins the ring.
        moves = tb.router->Join(config_.ring_nodes());
      } else {
        // Graceful drain of the highest-numbered member: it keeps
        // serving its shards until each one commits its handoff.
        moves = tb.router->Leave(tb.router->ring().members().back());
      }
      if (tb.tracer != nullptr) {
        tb.tracer->InstantAt(tb.sched.now(),
                             config_.churn == Churn::kJoin ? "churn_join"
                                                           : "churn_leave",
                             obs::Category::kApp,
                             static_cast<std::int64_t>(moves.size()));
      }
      sim::Spawn(tb.sched, tb.migrator->Run(std::move(moves), tb.tracer,
                                            &migration));
    });
  }

  Joules epoch = 0;
  tb.sched.ScheduleAt(window.start, [&] {
    epoch = tb.clstr.CumulativeJoules({"shard-store"});
    if (tb.tracer != nullptr) {
      tb.tracer->InstantAt(tb.sched.now(), "measure_start",
                           obs::Category::kApp, 0);
    }
    if (tb.energy != nullptr) tb.energy->BeginWindow();
  });
  Joules spent = 0;
  tb.sched.ScheduleAt(window.end, [&] {
    spent = tb.clstr.CumulativeJoules({"shard-store"}) - epoch;
    if (tb.metrics != nullptr) tb.metrics->Stop();
    if (tb.telemetry != nullptr) tb.telemetry->Stop();
    if (tb.tracer != nullptr) {
      tb.tracer->InstantAt(tb.sched.now(), "measure_end",
                           obs::Category::kApp, 0);
    }
    if (tb.energy != nullptr) tb.energy->EndWindow();
  });

  load::OpenLoopRecorder recorder(window.start, window.end,
                                  config_.openloop.slo);
  ShardGate gate(config_.openloop);
  if (tb.telemetry != nullptr) {
    obs::Telemetry* telemetry = tb.telemetry;
    recorder.set_stream(obs::SloStreamInto(telemetry, "slo"));
    telemetry->AddProbe("gate.queue_depth", [&gate] {
      return static_cast<double>(gate.queue_depth());
    });
    // Live migration-lag probes over the stats the migrator fills
    // in-place during churn; `inflight` (1 while a started migration has
    // not committed its last cutover) is the NodeHealth lag term.
    telemetry->AddProbe("migration.inflight", [&migration] {
      return migration.started > 0.0 && !migration.done ? 1.0 : 0.0;
    });
    telemetry->AddProbe("migration.shards_moved", [&migration] {
      return static_cast<double>(migration.shards_moved);
    });
    telemetry->AddProbe("migration.catchup_bytes", [&migration] {
      return static_cast<double>(migration.catchup_bytes);
    });
    telemetry->AddProbe("net.max_uplink_busy", [&tb] {
      double busy = 0.0;
      for (int r = 0; r < tb.topo.racks(); ++r) {
        busy = std::max(busy, tb.fabric.GroupLinkAverageBusyFraction(
                                  tb.topo.RackGroup(r),
                                  tb.topo.AggGroup(tb.topo.PodOfRack(r))));
      }
      return busy;
    });
    obs::ThresholdRule uplink;
    uplink.name = "uplink_saturated";
    uplink.metric = "net.max_uplink_busy";
    uplink.agg = obs::Agg::kMax;
    uplink.threshold = 0.90;
    uplink.window = Seconds(4);
    telemetry->AddThresholdRule(uplink);
    if (config_.openloop.slo > 0.0) {
      obs::BurnRateRule burn;
      burn.name = "slo_burn";
      burn.good_metric = "slo.good";
      burn.total_metric = "slo.offered";
      burn.slo_target = 0.9;
      burn.burn_threshold = 1.0;
      burn.short_window = Seconds(2);
      burn.long_window = Seconds(8);
      telemetry->AddBurnRateRule(burn);
      obs::ThresholdRule sheds;
      sheds.name = "shed_spike";
      sheds.metric = "slo.shed";
      sheds.agg = obs::Agg::kRate;
      sheds.threshold = 1.0;
      sheds.window = Seconds(2);
      telemetry->AddThresholdRule(sheds);
    }
    telemetry->Start(&tb.sched, tb.tracer);
  }
  if (tb.metrics != nullptr) tb.metrics->Start(&tb.sched, Seconds(1));
  sim::Spawn(tb.sched, Arrivals(tb, config_, window, recorder, gate,
                                target_qps, tb.rng.Fork()));
  tb.sched.Run();
  if (tb.metrics != nullptr) {
    tb.metrics->SampleNow();
    tb.metrics->Detach();
  }

  ShardReport report;
  report.target_qps = target_qps;
  report.achieved_qps = static_cast<double>(window.done) / measure;
  report.goodput_qps =
      static_cast<double>(window.completed_in_window) / measure;
  report.done = window.done;
  report.failed = window.failed;
  report.error_rate =
      window.done + window.failed == 0
          ? 0.0
          : static_cast<double>(window.failed) /
                static_cast<double>(window.done + window.failed);
  report.mean_latency = window.latency.mean();
  report.p99_latency =
      window.percentiles.empty() ? 0.0 : window.percentiles.Percentile(0.99);
  report.store_power = spent / measure;
  report.queries_per_joule =
      spent > 0 ? static_cast<double>(window.done) / spent : 0;
  report.cross_rack_replica_fraction =
      window.replica_hops == 0
          ? 0.0
          : static_cast<double>(window.cross_rack_replica_hops) /
                static_cast<double>(window.replica_hops);
  for (int r = 0; r < tb.topo.racks(); ++r) {
    report.max_rack_uplink_busy =
        std::max(report.max_rack_uplink_busy,
                 tb.fabric.GroupLinkAverageBusyFraction(
                     tb.topo.RackGroup(r),
                     tb.topo.AggGroup(tb.topo.PodOfRack(r))));
  }
  for (int p = 0; p < tb.topo.pods(); ++p) {
    report.max_core_link_busy =
        std::max(report.max_core_link_busy,
                 tb.fabric.GroupLinkAverageBusyFraction(
                     tb.topo.AggGroup(p),
                     net::HierarchicalTopology::CoreGroup()));
  }
  report.migration = migration;
  report.executed_events = tb.sched.executed_events();
  report.p99_intended_latency =
      recorder.intended_percentiles().empty()
          ? 0.0
          : recorder.intended_percentiles().Percentile(0.99);
  report.shed = recorder.shed();
  report.slo_good_fraction = recorder.SloGoodFraction();
  report.slo_goodput_per_joule = recorder.SloGoodputPerJoule(spent);
  return report;
}

}  // namespace wimpy::shard
