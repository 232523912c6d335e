#include "kv/experiment.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "hw/profiles.h"
#include "load/driver.h"
#include "obs/energy.h"
#include "obs/sinks.h"
#include "shard/ring.h"
#include "sim/process.h"

namespace wimpy::kv {

namespace {

// The store tier's consistent-hash map (shard/ring.h): keys hash to
// shards, shards to owner chains over store indices. Replaces the old
// flat `position % n` partitioning — routing is now the same ketama map
// the sharded scale-out experiment uses, so node churn there and
// failover here agree on who owns what.
shard::RingConfig StoreRingConfig(const KvExperimentConfig& config) {
  shard::RingConfig ring;
  ring.replication = config.replication;
  return ring;
}

struct KvTestbed {
  explicit KvTestbed(const KvExperimentConfig& config)
      : fabric(&sched),
        clstr(&sched, &fabric),
        rng(config.seed),
        ring(StoreRingConfig(config), shard::DenseIds(config.node_count)),
        sinks(&sched, config.tracer, config.metrics, config.energy,
              config.telemetry, config.trace_sample_every) {
    fabric.SetGroupLink("client-room", "store-room", Gbps(10),
                        Milliseconds(0.02));
    auto store_nodes = clstr.AddNodes(config.node_profile,
                                      config.node_count, "kv-store",
                                      "store-room");
    auto client_nodes = clstr.AddNodes(hw::DellR620Profile(),
                                       config.client_machines, "client",
                                       "client-room");
    for (auto* node : store_nodes) {
      stores.push_back(std::make_unique<KvNode>(node, &fabric,
                                                config.store, rng.Next()));
    }
    for (auto* node : client_nodes) client_ids.push_back(node->id());

    // Only the store tier is observed, mirroring the report's
    // CumulativeJoules({"kv-store"}) scope; its probes come before the
    // link probes.
    for (std::size_t i = 0; i < store_nodes.size(); ++i) {
      sinks.Observe(*store_nodes[i], "kv" + std::to_string(i));
    }
    if (sinks.metrics() != nullptr) {
      fabric.PublishMetrics(sinks.metrics(), "net");
    }
    const hw::PowerSpec& power = config.node_profile.power;
    sinks.ScoreHealth(store_nodes, "kv",
                      {.power_cap_w = power.busy + power.constant_adapter});
  }

  sim::Scheduler sched;
  net::Fabric fabric;
  cluster::Cluster clstr;
  Rng rng;
  shard::Ring ring;  // over store indices, not fabric node ids
  std::vector<std::unique_ptr<KvNode>> stores;
  std::vector<int> client_ids;
  obs::RunSinks sinks;  // after the nodes: settles the ledger first
};

struct KvWindow {
  SimTime start = 0;
  SimTime end = 0;
  std::int64_t done = 0;
  std::int64_t failed = 0;
  OnlineStats latency;
  PercentileTracker percentiles;
};

// Ring routing with failover: keys hash to a shard, the shard's
// preference list orders every store from its ring position, and the
// first healthy entry serves the request (FAWN's consistent-hashing
// failover, now on a real ketama map). Returns the preference index, or
// -1 when every store is down. Allocation-free: the preference list is a
// precomputed flat table.
int RouteToHealthy(KvTestbed& tb, const std::vector<int>& pref) {
  for (std::size_t i = 0; i < pref.size(); ++i) {
    if (!tb.stores[static_cast<std::size_t>(pref[i])]->failed()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

sim::Process OneQuery(KvTestbed& tb, const KvExperimentConfig& config,
                      KvWindow& window, load::OpenLoopRecorder& recorder,
                      load::OpenLoopGate& gate, SimTime intended, Rng rng) {
  const SimTime started = tb.sched.now();
  const int shard = tb.ring.ShardOf(rng.Next());
  const std::vector<int>& pref = tb.ring.Preference(shard);
  const int serving = RouteToHealthy(tb, pref);
  KvNode* store =
      serving < 0
          ? nullptr
          : tb.stores[static_cast<std::size_t>(pref[serving])].get();
  // Root span of the query's trace tree (arg = serving node, -1 when
  // routing found no healthy node); begins exactly at `started`, so the
  // trace re-derives the report's latency and in-window query count.
  obs::CausalSpan query_span(tb.sinks.SampleTrace(), "query",
                             obs::Category::kRequest,
                             store != nullptr ? store->node().id() : -1);
  if (store == nullptr) query_span.Instant("route_failed");
  const int client =
      tb.client_ids[rng.NextBelow(tb.client_ids.size())];
  const Bytes value = DrawnBytes(
      rng.LogNormalMeanStd(
          static_cast<double>(config.store.value_size_mean),
          static_cast<double>(config.store.value_size_stddev)),
      64);
  bool ok = store != nullptr;
  if (ok && rng.Bernoulli(config.get_fraction)) {
    obs::CausalSpan op(query_span.handle(), "get", obs::Category::kRequest,
                       store->node().id());
    obs::ScopedResidency res(tb.sinks.energy(), store->node().id(),
                             op.handle(), "get");
    co_await store->Get(client, value, op.handle());
  } else if (ok) {
    {
      obs::CausalSpan op(query_span.handle(), "put",
                         obs::Category::kRequest, store->node().id());
      obs::ScopedResidency res(tb.sinks.energy(), store->node().id(),
                               op.handle(), "put");
      co_await store->Put(client, value, op.handle());
    }
    // Chain replication down the preference list: the healthy successors
    // after the serving store.
    int upstream = store->node().id();
    int replicated = 1;
    for (std::size_t i = static_cast<std::size_t>(serving) + 1;
         i < pref.size() && replicated < config.replication; ++i) {
      KvNode* replica = tb.stores[static_cast<std::size_t>(pref[i])].get();
      if (replica->failed()) continue;
      {
        obs::CausalSpan op(query_span.handle(), "replicate",
                           obs::Category::kRequest, replica->node().id());
        obs::ScopedResidency res(tb.sinks.energy(), replica->node().id(),
                                 op.handle(), "replicate");
        co_await replica->ApplyReplicatedWrite(upstream, value,
                                               op.handle());
      }
      upstream = replica->node().id();
      ++replicated;
    }
  }
  const SimTime finished = tb.sched.now();
  if (started >= window.start && started < window.end) {
    if (ok) {
      ++window.done;
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

}  // namespace

KvReport KvExperiment::Measure(double target_qps, Duration measure) {
  return Run(target_qps, /*failed_nodes=*/0, measure);
}

KvReport KvExperiment::MeasureWithFailover(double target_qps,
                                           int failed_nodes,
                                           Duration measure) {
  return Run(target_qps, failed_nodes, measure);
}

KvReport KvExperiment::Run(double target_qps, int failed_nodes,
                           Duration measure) {
  KvTestbed tb(config_);
  KvWindow window;
  window.start = Seconds(2);
  window.end = window.start + measure;

  // Scheduled before the window edges: same-instant events run in
  // scheduling order, so a zero-length window still fails first.
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

  // The energy epoch is captured at the window marks, so the ledger's
  // window subtotal equals `spent` below.
  Joules epoch = 0;
  tb.sched.ScheduleAt(window.start, [&] {
    epoch = tb.clstr.CumulativeJoules({"kv-store"});
    tb.sinks.OpenWindow();
  });
  Joules spent = 0;
  tb.sched.ScheduleAt(window.end, [&] {
    spent = tb.clstr.CumulativeJoules({"kv-store"}) - epoch;
    tb.sinks.CloseWindow();
  });

  load::OpenLoopRecorder recorder(window.start, window.end,
                                  config_.openloop.slo);
  load::OpenLoopGate gate(config_.openloop);
  tb.sinks.ArmSloRules(recorder, gate, config_.openloop.slo);
  tb.sinks.StartTelemetry();
  tb.sinks.StartMetrics();
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

  KvReport report;
  report.target_qps = target_qps;
  report.achieved_qps = static_cast<double>(window.done) / measure;
  report.mean_latency = window.latency.mean();
  // Explicit empty() check: Percentile() on an empty tracker is NaN by
  // design, and this field feeds bench tables/JSON.
  report.p99_latency =
      window.percentiles.empty() ? 0.0 : window.percentiles.Percentile(0.99);
  report.error_rate =
      window.done + window.failed == 0
          ? 0.0
          : static_cast<double>(window.failed) /
                static_cast<double>(window.done + window.failed);
  report.store_power = spent / measure;
  report.queries_per_joule =
      spent > 0 ? static_cast<double>(window.done) / spent : 0;
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
