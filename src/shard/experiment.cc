#include "shard/experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/check.h"
#include "common/stats.h"
#include "hw/profiles.h"
#include "load/driver.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "obs/energy.h"
#include "obs/sinks.h"
#include "shard/router.h"
#include "sim/process.h"

namespace wimpy::shard {

namespace {

// Stored value sizes: lognormal, mean 1 KiB, standard deviation 256 B.
constexpr double kValueSizeMean = 1024;
constexpr double kValueSizeStddev = 256;

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
      : role(config.name + "-store"),
        fabric(&sched),
        topo(&fabric, TopologyConfig(config)),
        clstr(&sched, &fabric),
        rng(config.seed),
        sinks(&sched, config.tracer, config.metrics, config.energy,
              config.telemetry, config.trace_sample_every) {
    // Clients live in their own room hanging off the core switch, so the
    // path to any store crosses core → agg → rack, and client traffic
    // and replication traffic contend for the same oversubscribed
    // uplinks. With one rack the room links straight to it: the FAWN
    // rig's single client↔store hop.
    topo.AttachToCore("client-room", Gbps(10), Milliseconds(0.02));

    // Ring members rack by rack (store index == fabric node id because
    // stores are created first), then the provisioned spares round-robin
    // across racks, then the load generators.
    std::vector<hw::ServerNode*> store_nodes;
    for (int r = 0; r < config.racks; ++r) {
      auto rack_nodes = clstr.AddNodes(config.node_profile,
                                       config.nodes_per_rack, role,
                                       topo.RackGroup(r));
      store_nodes.insert(store_nodes.end(), rack_nodes.begin(),
                         rack_nodes.end());
    }
    for (int s = 0; s < config.spare_nodes; ++s) {
      auto spare = clstr.AddNodes(config.node_profile, 1, role,
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

    router = std::make_unique<Router>(config.ring,
                                      DenseIds(config.ring_nodes()));
    migrator = std::make_unique<Migrator>(&clstr, router.get(),
                                          config.migration);

    // The whole provisioned store tier is observed (members + spares):
    // an idle spare still burns idle watts, which is exactly the
    // provisioning cost the scale-out bench wants visible.
    for (std::size_t i = 0; i < store_nodes.size(); ++i) {
      sinks.Observe(*store_nodes[i], config.name + std::to_string(i));
    }
    if (sinks.metrics() != nullptr) {
      fabric.PublishMetrics(sinks.metrics(), "net");
    }
    // Churn hurts every member's score while handoffs are in flight:
    // catch-up lag is a cluster-wide signal here, a 0/1 in-migration
    // flag that costs the full lag weight.
    const hw::PowerSpec& power = config.node_profile.power;
    sinks.ScoreHealth(store_nodes, config.name,
                      {.power_cap_w = power.busy + power.constant_adapter,
                       .lag_cap = 1.0},
                      "migration.inflight");
  }

  int StoreNodeId(int store_index) const {
    return stores[static_cast<std::size_t>(store_index)]->node().id();
  }

  // Time-averaged busy fraction of the hottest rack uplink (0 on one
  // rack, which has none).
  double MaxRackUplinkBusy() const {
    double busy = 0.0;
    for (int r = 0; r < topo.racks(); ++r) {
      busy = std::max(busy, fabric.GroupLinkAverageBusyFraction(
                                topo.RackGroup(r),
                                topo.AggGroup(topo.PodOfRack(r))));
    }
    return busy;
  }

  std::string role;  // the store tier's cluster role
  sim::Scheduler sched;
  net::Fabric fabric;
  net::HierarchicalTopology topo;
  cluster::Cluster clstr;
  Rng rng;
  std::vector<std::unique_ptr<kv::KvNode>> stores;
  std::vector<int> client_ids;
  std::unique_ptr<Router> router;
  std::unique_ptr<Migrator> migrator;
  obs::RunSinks sinks;  // after the nodes: settles the ledger first
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
// chain is down, fall back to the target ring's preference order
// (FAWN's consistent-hashing failover). -1 when every store is down.
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

// The replication walk: the next store after `*cursor` in the serving
// chain followed by the target ring's preference list, skipping the
// serving store, failed stores and chain members already passed; -1 when
// none is left. In steady state the preference list starts with the
// chain, so this is FAWN's walk down the ring successors. During a
// migration without failures it stays in the serving chain unless the
// target ring wants more copies than that chain holds. Both lists are
// read afresh at each step: a commit or a failure may land while the
// previous copy is in flight.
int NextReplica(ShardTestbed& tb, int shard, const Router::Chain& chain,
                int serving, int* cursor) {
  const std::vector<int>& pref = tb.router->Preference(shard);
  const int walk = chain.length + static_cast<int>(pref.size());
  while (*cursor < walk) {
    const int i = (*cursor)++;
    const bool in_chain = i < chain.length;
    const int member = in_chain
                           ? chain.nodes[i]
                           : pref[static_cast<std::size_t>(i - chain.length)];
    if (member == serving ||
        tb.stores[static_cast<std::size_t>(member)]->failed() ||
        (!in_chain &&
         std::find(chain.begin(), chain.end(), member) != chain.end())) {
      continue;
    }
    return member;
  }
  return -1;
}

sim::Process OneQuery(ShardTestbed& tb, const ShardExperimentConfig& config,
                      ShardWindow& window, load::OpenLoopRecorder& recorder,
                      load::OpenLoopGate& gate, SimTime intended, Rng rng) {
  const SimTime started = tb.sched.now();
  const int shard = tb.router->ShardOf(rng.Next());
  const int serving = RouteToHealthy(tb, shard);
  // Root span of the query's trace tree (arg = shard); the "shard_hop"
  // child brackets the whole routed interaction with the owner chain, so
  // trace_analyze decomposes time spent inside each shard — and, via the
  // nested req/reply/repl net hops, across racks — without changes.
  obs::CausalSpan query_span(tb.sinks.SampleTrace(), "query",
                             obs::Category::kRequest, shard);
  if (serving < 0) query_span.Instant("route_failed");
  const int client = tb.client_ids[rng.NextBelow(tb.client_ids.size())];
  const Bytes value = DrawnBytes(
      rng.LogNormalMeanStd(kValueSizeMean, kValueSizeStddev), 64);
  const bool ok = serving >= 0;
  if (ok) {
    kv::KvNode* store = tb.stores[static_cast<std::size_t>(serving)].get();
    obs::CausalSpan hop(query_span.handle(), "shard_hop",
                        obs::Category::kNet, store->node().id());
    if (rng.Bernoulli(config.get_fraction)) {
      obs::CausalSpan op(hop.handle(), "get", obs::Category::kRequest,
                         store->node().id());
      obs::ScopedResidency res(tb.sinks.energy(), store->node().id(),
                               op.handle(), "get");
      co_await store->Get(client, value, op.handle());
    } else {
      // Writes to a migrating shard are counted at routing time so the
      // migrator can size its catch-up passes.
      tb.router->OnWrite(shard);
      {
        obs::CausalSpan op(hop.handle(), "put", obs::Category::kRequest,
                           store->node().id());
        obs::ScopedResidency res(tb.sinks.energy(), store->node().id(),
                                 op.handle(), "put");
        co_await store->Put(client, value, op.handle());
      }
      // Chain replication until the target ring's chain length of copies
      // is written (NextReplica), counting rack-boundary crossings for
      // the report.
      const Router::Chain chain = tb.router->ServingChain(shard);
      const int copies = tb.router->ring().chain_length();
      int upstream = serving;
      int cursor = 0;
      for (int written = 1; written < copies; ++written) {
        const int member = NextReplica(tb, shard, chain, serving, &cursor);
        if (member < 0) break;
        kv::KvNode* replica =
            tb.stores[static_cast<std::size_t>(member)].get();
        ++window.replica_hops;
        if (tb.fabric.GroupIdOf(tb.StoreNodeId(upstream)) !=
            tb.fabric.GroupIdOf(replica->node().id())) {
          ++window.cross_rack_replica_hops;
        }
        {
          obs::CausalSpan op(hop.handle(), "replicate",
                             obs::Category::kRequest, replica->node().id());
          obs::ScopedResidency res(tb.sinks.energy(), replica->node().id(),
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
  recorder.OnComplete(intended, finished, ok);
  // A completion frees a dispatch slot; the queue head (if any) inherits
  // it and still measures from its own intended arrival.
  if (auto next = gate.OnComplete()) {
    sim::Spawn(tb.sched, OneQuery(tb, config, window, recorder, gate,
                                  next->intended, std::move(next->payload)));
  }
}

}  // namespace

ShardExperimentConfig::ShardExperimentConfig()
    : node_profile(hw::EdisonProfile()) {}

ShardExperiment::ShardExperiment(ShardExperimentConfig config)
    : config_(std::move(config)) {
  // A zero-sized tier indexes an empty vector (client_machines = 0 draws
  // NextBelow(0)), and a join with no spare adds a store that does not
  // exist.
  const char* where = "shard::ShardExperiment";
  Check(config_.racks >= 1, where, "racks must be >= 1");
  Check(config_.nodes_per_rack >= 1, where, "nodes_per_rack must be >= 1");
  Check(config_.spare_nodes >= 0, where, "spare_nodes must be >= 0");
  Check(config_.client_machines >= 1, where, "client_machines must be >= 1");
  Check(config_.get_fraction >= 0.0 && config_.get_fraction <= 1.0, where,
        "get_fraction must be in [0, 1]");
  Check(config_.churn != Churn::kJoin || config_.spare_nodes >= 1, where,
        "a join needs spare_nodes >= 1");
}

ShardReport ShardExperiment::Measure(double target_qps, Duration measure) {
  return Run(target_qps, /*failed_nodes=*/0, measure);
}

ShardReport ShardExperiment::MeasureWithFailover(double target_qps,
                                                 int failed_nodes,
                                                 Duration measure) {
  return Run(target_qps, failed_nodes, measure);
}

ShardReport ShardExperiment::Run(double target_qps, int failed_nodes,
                                 Duration measure) {
  // Checked before the testbed is built. A load that is not positive
  // draws gaps that DriveOpenLoop clamps to zero, admitting requests
  // forever at one instant; an infinite load or window never ends. A
  // zero window stays legal (setup-only probes use it).
  const char* where = "shard::ShardExperiment";
  Check(target_qps > 0 && std::isfinite(target_qps), where,
        "target qps must be > 0 and finite");
  Check(measure >= 0 && std::isfinite(measure), where,
        "measure must be >= 0 and finite");
  Check(failed_nodes >= 0, where, "failed_nodes must be >= 0");
  ShardTestbed tb(config_);
  ShardWindow window;
  window.start = Seconds(2);
  window.end = window.start + measure;

  // Scheduled before the churn and the window edges: same-instant events
  // run in scheduling order, so a zero-length window still fails first.
  const int to_fail = std::min<int>(
      failed_nodes, static_cast<int>(tb.stores.size()) - 1);
  if (to_fail > 0) {
    tb.sched.ScheduleAt(window.start + measure / 2, [&tb, to_fail] {
      for (int i = 0; i < to_fail; ++i) tb.stores[i]->set_failed(true);
      if (obs::Tracer* tracer = tb.sinks.tracer()) {
        tracer->InstantAt(tb.sched.now(), "nodes_failed", obs::Category::kNet,
                          /*track=*/0, to_fail);
      }
    });
  }

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
      if (obs::Tracer* tracer = tb.sinks.tracer()) {
        tracer->InstantAt(tb.sched.now(),
                          config_.churn == Churn::kJoin ? "churn_join"
                                                        : "churn_leave",
                          obs::Category::kApp,
                          static_cast<std::int64_t>(moves.size()));
      }
      sim::Spawn(tb.sched, tb.migrator->Run(std::move(moves),
                                            tb.sinks.tracer(), &migration));
    });
  }

  // The energy epoch is captured at the window marks, so the ledger's
  // window subtotal equals `spent` below.
  Joules epoch = 0;
  tb.sched.ScheduleAt(window.start, [&] {
    epoch = tb.clstr.CumulativeJoules({tb.role});
    tb.sinks.OpenWindow();
  });
  Joules spent = 0;
  tb.sched.ScheduleAt(window.end, [&] {
    spent = tb.clstr.CumulativeJoules({tb.role}) - epoch;
    tb.sinks.CloseWindow();
  });

  load::OpenLoopRecorder recorder(window.start, window.end,
                                  config_.openloop.slo);
  load::OpenLoopGate gate(config_.openloop);
  tb.sinks.ArmSloRules(recorder, gate, config_.openloop.slo);
  if (obs::Telemetry* telemetry = tb.sinks.telemetry()) {
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
    telemetry->AddProbe("net.max_uplink_busy",
                        [&tb] { return tb.MaxRackUplinkBusy(); });
    telemetry->AddThresholdRule({.name = "uplink_saturated",
                                 .metric = "net.max_uplink_busy",
                                 .agg = obs::Agg::kMax,
                                 .threshold = 0.90,
                                 .window = Seconds(4)});
  }
  tb.sinks.StartSampling();
  load::ArrivalConfig shape = config_.openloop.arrival;
  shape.rate = target_qps;
  sim::Spawn(tb.sched,
             load::DriveOpenLoop(
                 tb.sched, shape, window.end, gate, recorder, tb.rng.Fork(),
                 [&](SimTime intended, Rng rng) {
                   sim::Spawn(tb.sched,
                              OneQuery(tb, config_, window, recorder, gate,
                                       intended, std::move(rng)));
                 }));
  tb.sched.Run();
  tb.sinks.FinishMetrics();

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
  report.max_rack_uplink_busy = tb.MaxRackUplinkBusy();
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
