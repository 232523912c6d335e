#include "web/service.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/check.h"
#include "hw/profiles.h"
#include "load/driver.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/sinks.h"
#include "shard/ring.h"
#include "sim/process.h"
#include "sim/task.h"

namespace wimpy::web {

WebServerConfig EdisonWebConfig() {
  WebServerConfig cfg;
  cfg.php_workers = 8;
  cfg.queue_factor = 16;
  cfg.service_efficiency = 1.0;
  cfg.tcp.max_connections = 8192;   // fd limit on the 1 GB node
  cfg.tcp.listen_backlog = 256;
  cfg.tcp.time_wait = Seconds(30);
  return cfg;
}

WebServerConfig DellWebConfig() {
  WebServerConfig cfg;
  cfg.php_workers = 128;
  cfg.queue_factor = 16;
  // §4.1/§7: the Xeon's ~18x Dhrystone advantage collapses on branchy
  // interpreted serving; 0.22 reproduces the measured 45% CPU at the
  // shared ~7.2k rps peak.
  cfg.service_efficiency = 0.22;
  // Accept-loop work per connection: ~1 ms on the Xeon at this efficiency
  // (kernel + lighttpd fd setup + FastCGI hand-off), so a single server's
  // accept queue drains at ~1k conn/s — the knee behind the paper's Dell
  // reconnect spikes at ~3k fresh connections/sec.
  cfg.accept_minstr = 2.3;
  cfg.tcp.max_connections = 16384;
  cfg.tcp.listen_backlog = 1024;
  cfg.tcp.time_wait = Seconds(30);
  return cfg;
}

WebTestbedConfig EdisonWebTestbed(int web_servers, int cache_servers) {
  WebTestbedConfig cfg;
  cfg.middle_profile = hw::EdisonProfile();
  cfg.web_servers = web_servers;
  cfg.cache_servers = cache_servers;
  cfg.middle_group = "edison-room";
  cfg.web_config = EdisonWebConfig();
  return cfg;
}

WebTestbedConfig DellWebTestbed(int web_servers, int cache_servers) {
  WebTestbedConfig cfg;
  cfg.middle_profile = hw::DellR620Profile();
  cfg.web_servers = web_servers;
  cfg.cache_servers = cache_servers;
  cfg.middle_group = "dell-room";
  cfg.web_config = DellWebConfig();
  return cfg;
}

namespace {

// A fully wired deployment, built fresh for every measurement run.
struct Testbed {
  explicit Testbed(const WebTestbedConfig& config, int client_count)
      : fabric(&sched),
        clstr(&sched, &fabric),
        rng(config.seed),
        cache_ring(shard::RingConfig{},
                   shard::DenseIds(config.cache_servers)),
        sinks(&sched, config.tracer, config.metrics, config.energy,
              config.telemetry, config.trace_sample_every) {
    // Room-level topology (paper §5.1.2): a one-rack tree, the Edison
    // room, with the client and Dell rooms attached and a direct
    // client↔Dell link.
    net::HierarchicalTopology rooms(&fabric,
                                    {.racks = 1, .rack_name = "edison-room"});
    rooms.AttachToCore("client-room", net::kClientEdisonLink);
    rooms.AttachToCore("dell-room", net::kEdisonDellLink);
    rooms.LinkRooms("client-room", "dell-room", net::kClientDellLink);

    auto cache_nodes = clstr.AddNodes(config.middle_profile,
                                      config.cache_servers, "cache-server",
                                      config.middle_group);
    auto db_nodes = clstr.AddNodes(hw::DellR620Profile(), 2, "db",
                                   "dell-room");
    auto client_nodes = clstr.AddNodes(hw::DellR620Profile(), client_count,
                                       "client", "client-room");
    auto web_nodes = clstr.AddNodes(config.middle_profile,
                                    config.web_servers, "web-server",
                                    config.middle_group);

    for (auto* node : cache_nodes) {
      caches.push_back(std::make_unique<CacheServer>(node, &fabric));
      caches.back()->WarmUp();
    }
    for (auto* node : db_nodes) {
      dbs.push_back(
          std::make_unique<DatabaseServer>(node, &fabric, rng.Next()));
    }

    std::vector<CacheServer*> cache_ptrs;
    for (auto& c : caches) cache_ptrs.push_back(c.get());
    std::vector<DatabaseServer*> db_ptrs;
    for (auto& d : dbs) db_ptrs.push_back(d.get());

    for (auto* node : web_nodes) {
      webs.push_back(std::make_unique<WebServer>(
          node, &fabric, cache_ptrs, cache_ring, db_ptrs, config.web_config,
          rng.Next()));
    }

    net::TcpConfig client_tcp;  // tuned clients: port reuse, no TIME_WAIT
    for (auto* node : client_nodes) {
      client_hosts.push_back(
          std::make_unique<net::TcpHost>(&fabric, node->id(), client_tcp));
    }

    // Wiring order is fixed (web tier, cache tier, dbs, then links and
    // aggregates), so ledger rows and metrics columns are deterministic.
    for (std::size_t i = 0; i < webs.size(); ++i) {
      const std::string name = "web" + std::to_string(i);
      sinks.Observe(webs[i]->node(), name);
      webs[i]->set_energy(sinks.energy());
      if (sinks.metrics() != nullptr) {
        webs[i]->tcp_host().PublishMetrics(sinks.metrics(), name + ".tcp");
      }
    }
    for (std::size_t i = 0; i < caches.size(); ++i) {
      sinks.Observe(caches[i]->node(), "cache" + std::to_string(i));
    }
    for (std::size_t i = 0; i < dbs.size(); ++i) {
      sinks.Observe(dbs[i]->node(), "db" + std::to_string(i));
    }
    if (sinks.metrics() != nullptr) PublishAggregates(sinks.metrics());
    const hw::PowerSpec& power = config.middle_profile.power;
    sinks.ScoreHealth(web_nodes, "web",
                      {.power_cap_w = power.busy + power.constant_adapter});
  }

  // Links, then the aggregate delay decomposition, merged across web
  // servers exactly as CollectServerDelays merges the final report — the
  // last exported row (sampled after the run drains) reproduces Table 7
  // from the CSV.
  void PublishAggregates(obs::MetricsRegistry* metrics) {
    fabric.PublishMetrics(metrics, "net");
    metrics->Add("svc.db_delay_mean",
                 [this] { return MergedDbDelay().mean(); });
    metrics->Add("svc.db_delay_count", [this] {
      return static_cast<double>(MergedDbDelay().count());
    });
    metrics->Add("svc.cache_delay_mean",
                 [this] { return MergedCacheDelay().mean(); });
    metrics->Add("svc.cache_delay_count", [this] {
      return static_cast<double>(MergedCacheDelay().count());
    });
    metrics->Add("svc.total_delay_mean",
                 [this] { return MergedTotalDelay().mean(); });
    metrics->Add("svc.total_delay_count", [this] {
      return static_cast<double>(MergedTotalDelay().count());
    });
    metrics->Add("svc.calls_ok", [this] {
      std::int64_t n = 0;
      for (auto& w : webs) n += w->calls_ok();
      return static_cast<double>(n);
    });
    metrics->Add("svc.errors_500", [this] {
      std::int64_t n = 0;
      for (auto& w : webs) n += w->errors_500();
      return static_cast<double>(n);
    });
    metrics->Add("svc.middle_watts", [this] {
      return clstr.TotalWatts({"web-server", "cache-server"});
    });
    metrics->Add("svc.middle_joules", [this] {
      return clstr.CumulativeJoules({"web-server", "cache-server"});
    });
  }

  OnlineStats MergedDbDelay() const {
    OnlineStats s;
    for (auto& w : webs) s.Merge(w->db_delay_stats());
    return s;
  }
  OnlineStats MergedCacheDelay() const {
    OnlineStats s;
    for (auto& w : webs) s.Merge(w->cache_delay_stats());
    return s;
  }
  OnlineStats MergedTotalDelay() const {
    OnlineStats s;
    for (auto& w : webs) s.Merge(w->total_delay_stats());
    return s;
  }

  WebServer* NextWeb() {
    // The balancer health-checks backends: failed servers are skipped.
    for (std::size_t i = 0; i < webs.size(); ++i) {
      WebServer* web = webs[next_web_ % webs.size()].get();
      ++next_web_;
      if (!web->failed()) return web;
    }
    return webs[next_web_ % webs.size()].get();  // all failed
  }
  net::TcpHost* NextClient() {
    net::TcpHost* host =
        client_hosts[next_client_ % client_hosts.size()].get();
    ++next_client_;
    return host;
  }

  sim::Scheduler sched;
  net::Fabric fabric;
  cluster::Cluster clstr;
  Rng rng;
  // One cache ring for the whole web tier, shared by const reference;
  // declared before `webs` so it outlives every server.
  shard::Ring cache_ring;
  std::vector<std::unique_ptr<CacheServer>> caches;
  std::vector<std::unique_ptr<DatabaseServer>> dbs;
  std::vector<std::unique_ptr<WebServer>> webs;
  std::vector<std::unique_ptr<net::TcpHost>> client_hosts;
  obs::RunSinks sinks;  // after the nodes: settles the ledger first
  std::size_t next_web_ = 0;
  std::size_t next_client_ = 0;
};

// Shared counters for one measurement run; only events inside the
// [warmup_end, measure_end) window are counted.
struct RunWindow {
  SimTime warmup_end = 0;
  SimTime measure_end = 0;
  std::int64_t ok = 0;
  std::int64_t errors = 0;
  std::int64_t attempts = 0;
  OnlineStats response;      // client-perceived per-call delay
  OnlineStats client_delay;  // open-loop: includes connect backoff
  // Closed-loop omission annotation (LevelReport contract): the same OK
  // calls measured from dispatch vs from the connection's arrival.
  OnlineStats dispatch_response;
  OnlineStats conn_intended_response;
  PercentileTracker dispatch_percentiles;
  PercentileTracker conn_intended_percentiles;

  bool InWindow(SimTime t) const {
    return t >= warmup_end && t < measure_end;
  }
};

// What every closed-loop connection of one run shares. The measure call
// holds it for the whole run, so each connection's frame keeps one
// reference instead of a copy of each field. A sample lands in the window
// containing its start time (failure runs use two half-windows).
struct ClosedLoopRun {
  ClosedLoopRun(Testbed& tb, std::vector<RunWindow*> windows,
                const WorkloadMix& mix, int calls)
      : tb(tb), windows(std::move(windows)), mix(mix), calls(calls) {
    for (const RunWindow* w : this->windows) {
      end = std::max(end, w->measure_end);
    }
  }

  RunWindow* FindWindow(SimTime t) const {
    for (RunWindow* w : windows) {
      if (w->InWindow(t)) return w;
    }
    return nullptr;
  }

  Testbed& tb;
  std::vector<RunWindow*> windows;
  const WorkloadMix& mix;
  int calls;        // per connection
  SimTime end = 0;  // the last window's end: no call starts after it
};

// Handshake and accept for one client connection: the connect delay, or
// nullopt (after a "connect_error" instant on `span`) when the handshake
// failed. A sub-task, so the ConnectResult — its Status holds a string —
// and the handshake's awaiters leave the caller's frame once the
// connection is up.
sim::Task<std::optional<Duration>> Establish(net::TcpConnection& conn,
                                             WebServer* web,
                                             obs::CausalSpan& span) {
  const net::ConnectResult cres =
      co_await conn.Connect(/*hold_backlog=*/true, span.handle());
  if (!cres.status.ok()) {
    span.Instant("connect_error", cres.retries);
    co_return std::nullopt;
  }
  co_await web->AcceptWork();
  co_return cres.connect_delay;
}

// One httperf connection: connect, then `run.calls` sequential HTTP calls.
sim::Process ClosedLoopConnection(const ClosedLoopRun& run, WebServer* web,
                                  net::TcpHost* client, Rng rng) {
  const SimTime conn_start = run.tb.sched.now();
  // Root span of the connection's trace tree; null for unsampled
  // connections. The handle rides every downstream call — the simulated
  // context header.
  obs::CausalSpan conn_span(run.tb.sinks.SampleTrace(), "conn",
                            obs::Category::kRequest);
  net::TcpConnection conn(client, &web->tcp_host());
  // The accept loop must run (and release the backlog slot) even if the
  // server dies in between; the dead-server check follows it.
  const std::optional<Duration> connect_delay =
      co_await Establish(conn, web, conn_span);
  if (!connect_delay || web->failed()) {
    if (RunWindow* w = run.FindWindow(conn_start)) {
      ++w->attempts;
      ++w->errors;
    }
    conn.Close();
    co_return;
  }
  for (int i = 0; i < run.calls; ++i) {
    const SimTime call_start = run.tb.sched.now();
    if (call_start >= run.end) break;
    const RequestSpec spec = run.mix.Sample(rng);
    obs::CausalSpan call_span(conn_span.handle(), "call",
                              obs::Category::kRequest, i);
    // Two statements, so the Serve task's frame is gone before the
    // reply goes on the wire; the reply awaiter lives in this frame.
    WebServer::ReplyOp reply =
        co_await web->Serve(client->node_id(), spec, call_span.handle());
    const CallResult result = co_await reply;
    if (RunWindow* w = run.FindWindow(call_start)) {
      ++w->attempts;
      if (result.ok && !web->failed()) {
        ++w->ok;
        // httperf's reported response time amortises connection setup —
        // including SYN retransmission waits — over the connection's
        // first reply.
        w->response.Add(result.total + (i == 0 ? *connect_delay : 0.0));
        // Omission annotation: dispatch→done is what httperf sees;
        // conn-arrival→done charges the call with everything the closed
        // loop serialised in front of it (connect backoff + the earlier
        // calls on this connection). Passive — no draws, no goldens.
        const SimTime done = run.tb.sched.now();
        w->dispatch_response.Add(done - call_start);
        w->dispatch_percentiles.Add(done - call_start);
        w->conn_intended_response.Add(done - conn_start);
        w->conn_intended_percentiles.Add(done - conn_start);
      } else {
        ++w->errors;
      }
    }
    if (web->failed()) break;  // connection reset by the dead server
  }
  conn.Close();
}

// Poisson arrival process for closed-loop connections.
sim::Process ClosedLoopArrivals(const ClosedLoopRun& run, double rate,
                                Rng rng) {
  Testbed& tb = run.tb;
  while (tb.sched.now() < run.end) {
    co_await sim::Delay(tb.sched, rng.Exponential(rate));
    if (tb.sched.now() >= run.end) break;
    sim::Spawn(tb.sched, ClosedLoopConnection(run, tb.NextWeb(),
                                              tb.NextClient(), rng.Fork()));
  }
}

// What every open-loop request of one run shares, held by the measure
// call for the whole run (see ClosedLoopRun).
struct OpenLoopRun {
  Testbed& tb;
  RunWindow& window;
  const WorkloadMix& mix;
  LinearHistogram* histogram;
  load::OpenLoopRecorder& recorder;
  load::OpenLoopGate& gate;
  // Dispatch-to-completion latency of the OK requests whose intended
  // arrival falls in the window: OpenLoopReport::p99_client.
  PercentileTracker& service_latency;
};

// One open-loop (python urllib2) request: fresh connection per request.
// `intended` is the arrival the load engine scheduled; with an unbounded
// gate it equals the dispatch time, with a bounded gate a queued request
// dispatches late and its latency is still charged from `intended`.
sim::Process OpenLoopRequest(const OpenLoopRun& run, WebServer* web,
                             net::TcpHost* client, SimTime intended,
                             Rng rng) {
  sim::Scheduler& sched = run.tb.sched;
  RunWindow& window = run.window;
  const SimTime start = sched.now();
  obs::CausalSpan request_span(run.tb.sinks.SampleTrace(), "request",
                               obs::Category::kRequest);
  net::TcpConnection conn(client, &web->tcp_host());
  bool ok = false;
  if (!co_await Establish(conn, web, request_span)) {
    if (window.InWindow(start)) {
      ++window.attempts;
      ++window.errors;
    }
  } else {
    const RequestSpec spec = run.mix.Sample(rng);
    WebServer::ReplyOp reply = co_await web->Serve(
        client->node_id(), spec, request_span.handle());
    const CallResult result = co_await reply;
    conn.Close();
    ok = result.ok;
    const Duration client_seen = sched.now() - start;
    const Duration honest_seen = sched.now() - intended;
    if (window.InWindow(start)) {
      ++window.attempts;
      if (result.ok) {
        ++window.ok;
        window.response.Add(result.total);
        window.client_delay.Add(client_seen);
        // Figures 10/11 bucket the coordinated-omission-free delay; the
        // two are identical until the gate queues.
        if (run.histogram != nullptr) run.histogram->Add(honest_seen);
      } else {
        ++window.errors;
      }
    }
  }
  run.recorder.OnComplete(intended, sched.now(), ok);
  if (ok && run.recorder.InWindow(intended)) {
    run.service_latency.Add(sched.now() - start);
  }
  if (auto next = run.gate.OnComplete()) {
    sim::Spawn(sched, OpenLoopRequest(run, run.tb.NextWeb(),
                                      run.tb.NextClient(), next->intended,
                                      std::move(next->payload)));
  }
}

// A closed-loop level's load, checked in every build type: a rate <= 0
// makes the arrival gaps infinite or negative, and a connection that
// makes no call measures nothing.
void CheckClosedLoad(double concurrency, int calls_per_connection) {
  const char* where = "web::WebExperiment";
  Check(concurrency > 0, where, "concurrency must be > 0");
  Check(calls_per_connection >= 1, where,
        "calls_per_connection must be >= 1");
}

// Merges the per-server delay decompositions into the report.
template <typename Report>
void CollectServerDelays(Testbed& tb, Report* report) {
  for (auto& web : tb.webs) {
    report->db_delay.Merge(web->db_delay_stats());
    report->cache_delay.Merge(web->cache_delay_stats());
    report->total_delay.Merge(web->total_delay_stats());
  }
}

}  // namespace

WebExperiment::WebExperiment(WebTestbedConfig config)
    : config_(std::move(config)) {
  const char* where = "web::WebExperiment";
  Check(config_.web_servers >= 1, where, "web_servers must be >= 1");
  Check(config_.client_machines >= 1, where, "client_machines must be >= 1");
  Check(config_.cache_servers >= 0, where, "cache_servers must be >= 0");
}

int WebExperiment::TunedCallsPerConnection(double concurrency) {
  const double target = 7200.0;  // full-scale cluster capacity
  const int calls = static_cast<int>(std::lround(target / concurrency));
  return std::clamp(calls, 1, 14);
}

LevelReport WebExperiment::MeasureClosedLoop(const WorkloadMix& mix,
                                             double concurrency,
                                             int calls_per_connection,
                                             Duration warmup,
                                             Duration measure) {
  CheckClosedLoad(concurrency, calls_per_connection);
  Testbed tb(config_, config_.client_machines);
  RunWindow window;
  window.warmup_end = warmup;
  window.measure_end = warmup + measure;

  // One 1 Hz utilisation registry per tier, sampled over the window only.
  // Two registries, not one holding both tiers' probes, keep the run's two
  // sampling ticks: each tick is an engine event, and the event count is
  // part of the web benchmark's fingerprint.
  obs::MetricsRegistry web_util;
  obs::MetricsRegistry cache_util;
  tb.clstr.PublishMetrics(&web_util, {"web-server"}, "web");
  tb.clstr.PublishMetrics(&cache_util, {"cache-server"}, "cache");

  Joules epoch_joules = 0;
  tb.sched.ScheduleAt(window.warmup_end, [&] {
    for (auto& web : tb.webs) web->ResetStats();
    epoch_joules =
        tb.clstr.CumulativeJoules({"web-server", "cache-server"});
    web_util.Start(&tb.sched);
    cache_util.Start(&tb.sched);
    // Window marks at the very instant the stats reset, so the trace
    // analyzer can reproduce the report's windowing exactly.
    tb.sinks.OpenWindow();
  });
  Joules window_joules = 0;
  tb.sched.ScheduleAt(window.measure_end, [&] {
    window_joules =
        tb.clstr.CumulativeJoules({"web-server", "cache-server"}) -
        epoch_joules;
    web_util.Stop();
    cache_util.Stop();
    tb.sinks.CloseWindow();
  });

  tb.sinks.StartSampling();
  const ClosedLoopRun run(tb, {&window}, mix, calls_per_connection);
  sim::Spawn(tb.sched, ClosedLoopArrivals(run, concurrency, tb.rng.Fork()));
  tb.sched.Run();
  tb.sinks.FinishMetrics();

  LevelReport report;
  report.target_concurrency = concurrency;
  report.calls_per_connection = calls_per_connection;
  report.achieved_rps = static_cast<double>(window.ok) / measure;
  report.error_rate =
      window.attempts == 0
          ? 0.0
          : static_cast<double>(window.errors) /
                static_cast<double>(window.attempts);
  report.mean_response = window.response.mean();
  report.middle_tier_power = window_joules / measure;
  report.executed_events = tb.sched.executed_events();

  auto mean_of = [](const obs::MetricsRegistry& registry,
                    std::string_view column) {
    const std::vector<double> values = registry.series().Column(column);
    if (values.empty()) return 0.0;
    double sum = 0;
    for (const double v : values) sum += v;
    return sum / static_cast<double>(values.size());
  };
  report.web_cpu_pct = mean_of(web_util, "web.cpu_pct");
  report.cache_cpu_pct = mean_of(cache_util, "cache.cpu_pct");

  report.dispatch_response = window.dispatch_response;
  report.conn_intended_response = window.conn_intended_response;
  report.p99_dispatch = window.dispatch_percentiles.empty()
                            ? 0.0
                            : window.dispatch_percentiles.Percentile(0.99);
  report.p99_conn_intended =
      window.conn_intended_percentiles.empty()
          ? 0.0
          : window.conn_intended_percentiles.Percentile(0.99);

  CollectServerDelays(tb, &report);
  return report;
}

WebExperiment::FailureReport WebExperiment::MeasureWithFailure(
    const WorkloadMix& mix, double concurrency, int calls_per_connection,
    int failed_servers, Duration warmup, Duration half_window) {
  CheckClosedLoad(concurrency, calls_per_connection);
  Testbed tb(config_, config_.client_machines);
  RunWindow before;
  before.warmup_end = warmup;
  before.measure_end = warmup + half_window;
  RunWindow after;
  after.warmup_end = before.measure_end;
  after.measure_end = before.measure_end + half_window;

  const int to_fail =
      std::min<int>(failed_servers,
                    static_cast<int>(tb.webs.size()) - 1);
  tb.sched.ScheduleAt(before.warmup_end, [&tb] { tb.sinks.OpenWindow(); });
  tb.sched.ScheduleAt(before.measure_end, [&tb, to_fail] {
    for (int i = 0; i < to_fail; ++i) tb.webs[i]->set_failed(true);
  });
  tb.sched.ScheduleAt(after.measure_end, [&tb] { tb.sinks.CloseWindow(); });

  tb.sinks.StartSampling();
  const ClosedLoopRun run(tb, {&before, &after}, mix, calls_per_connection);
  sim::Spawn(tb.sched, ClosedLoopArrivals(run, concurrency, tb.rng.Fork()));
  tb.sched.Run();
  tb.sinks.FinishMetrics();

  auto fill = [&](const RunWindow& window) {
    LevelReport report;
    report.target_concurrency = concurrency;
    report.calls_per_connection = calls_per_connection;
    report.achieved_rps =
        static_cast<double>(window.ok) / half_window;
    report.error_rate =
        window.attempts == 0
            ? 0.0
            : static_cast<double>(window.errors) /
                  static_cast<double>(window.attempts);
    report.mean_response = window.response.mean();
    report.dispatch_response = window.dispatch_response;
    report.conn_intended_response = window.conn_intended_response;
    report.p99_dispatch = window.dispatch_percentiles.empty()
                              ? 0.0
                              : window.dispatch_percentiles.Percentile(0.99);
    report.p99_conn_intended =
        window.conn_intended_percentiles.empty()
            ? 0.0
            : window.conn_intended_percentiles.Percentile(0.99);
    return report;
  };
  FailureReport report;
  report.before = fill(before);
  report.after = fill(after);
  report.failed_servers = to_fail;
  report.total_servers = static_cast<int>(tb.webs.size());
  return report;
}

OpenLoopReport WebExperiment::MeasureOpenLoop(const WorkloadMix& mix,
                                              double target_rps,
                                              Duration measure) {
  load::OpenLoopConfig load_config;  // Poisson, unbounded gate, no SLO
  load_config.arrival.rate = target_rps;
  return MeasureOpenLoop(mix, load_config, measure);
}

OpenLoopReport WebExperiment::MeasureOpenLoop(
    const WorkloadMix& mix, const load::OpenLoopConfig& load_config,
    Duration measure) {
  Check(load_config.arrival.rate > 0, "web::WebExperiment",
        "target rps must be > 0");
  // The paper uses 30 logging client machines for this test.
  Testbed tb(config_, 30);
  RunWindow window;
  window.warmup_end = Seconds(2);
  window.measure_end = window.warmup_end + measure;

  OpenLoopReport report;
  report.target_rps = load_config.arrival.rate;

  Joules epoch_joules = 0;
  tb.sched.ScheduleAt(window.warmup_end, [&] {
    for (auto& web : tb.webs) web->ResetStats();
    epoch_joules =
        tb.clstr.CumulativeJoules({"web-server", "cache-server"});
    tb.sinks.OpenWindow();
  });
  Joules window_joules = 0;
  tb.sched.ScheduleAt(window.measure_end, [&] {
    window_joules =
        tb.clstr.CumulativeJoules({"web-server", "cache-server"}) -
        epoch_joules;
    tb.sinks.CloseWindow();
  });

  load::OpenLoopRecorder recorder(window.warmup_end, window.measure_end,
                                  load_config.slo);
  load::OpenLoopGate gate(load_config);
  tb.sinks.ArmSloRules(recorder, gate, load_config.slo);
  tb.sinks.StartSampling();
  PercentileTracker service_latency;
  const OpenLoopRun run{tb, window, mix, &report.delay_histogram,
                        recorder, gate, service_latency};
  sim::Spawn(tb.sched,
             load::DriveOpenLoop(
                 tb.sched, load_config.arrival, window.measure_end, gate,
                 recorder, tb.rng.Fork(), [&](SimTime intended, Rng rng) {
                   sim::Spawn(tb.sched,
                              OpenLoopRequest(run, tb.NextWeb(),
                                              tb.NextClient(), intended,
                                              std::move(rng)));
                 }));
  tb.sched.Run();
  tb.sinks.FinishMetrics();

  report.achieved_rps = static_cast<double>(window.ok) / measure;
  report.error_rate =
      window.attempts == 0
          ? 0.0
          : static_cast<double>(window.errors) /
                static_cast<double>(window.attempts);
  report.client_delay = window.client_delay;
  report.executed_events = tb.sched.executed_events();
  report.offered_rps = static_cast<double>(recorder.offered()) / measure;
  report.shed = recorder.shed();
  report.intended_delay = recorder.intended_latency();
  report.p99_intended =
      recorder.intended_percentiles().empty()
          ? 0.0
          : recorder.intended_percentiles().Percentile(0.99);
  report.p99_client =
      service_latency.empty() ? 0.0 : service_latency.Percentile(0.99);
  report.slo_good_fraction = recorder.SloGoodFraction();
  report.slo_goodput_per_joule = recorder.SloGoodputPerJoule(window_joules);
  report.middle_tier_power = window_joules / measure;
  report.window_joules = window_joules;
  CollectServerDelays(tb, &report);
  return report;
}

}  // namespace wimpy::web
