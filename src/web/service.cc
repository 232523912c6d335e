#include "web/service.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "cluster/cluster.h"
#include "cluster/metrics.h"
#include "hw/profiles.h"
#include "obs/energy.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "shard/ring.h"
#include "sim/process.h"

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
                   shard::DenseIds(config.cache_servers)) {
    // Room-level topology (paper §5.1.2): clients reach the Edison room
    // over a single 1 Gbps uplink but the Dell room at 2 Gbps aggregate;
    // the Edison and Dell rooms interconnect at 1 Gbps.
    fabric.SetGroupLink("client-room", "edison-room", Gbps(1),
                        Milliseconds(0.05));
    fabric.SetGroupLink("client-room", "dell-room", Gbps(2),
                        Milliseconds(0.02));
    fabric.SetGroupLink("edison-room", "dell-room", Gbps(1),
                        Milliseconds(0.02));

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
      caches.push_back(std::make_unique<CacheServer>(
          node, &fabric, config.backend_costs));
      caches.back()->WarmUp();
    }
    for (auto* node : db_nodes) {
      dbs.push_back(std::make_unique<DatabaseServer>(
          node, &fabric, config.backend_costs, rng.Next()));
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

    tracer = config.tracer;
    metrics = config.metrics;
    energy = config.energy;
    trace_sample_every = std::max(1, config.trace_sample_every);
    if (metrics != nullptr) PublishProbes();
    telemetry = config.telemetry;
    if (telemetry != nullptr) {
      for (std::size_t i = 0; i < webs.size(); ++i) {
        webs[i]->node().PublishTelemetry(telemetry,
                                         "web" + std::to_string(i));
      }
      obs::NodeHealthConfig health_config;
      health_config.power_cap_w = config.middle_profile.power.busy +
                                  config.middle_profile.power.constant_adapter;
      health = std::make_unique<obs::NodeHealth>(telemetry, health_config);
      for (std::size_t i = 0; i < webs.size(); ++i) {
        const std::string prefix = "web" + std::to_string(i);
        obs::NodeHealthInputs inputs;
        inputs.utilization = prefix + ".cpu_busy";
        inputs.power = prefix + ".power_w";
        inputs.queue_depth = "gate.queue_depth";
        inputs.shed = "slo.shed";
        health->AddNode(static_cast<int>(i), inputs);
      }
      if (metrics != nullptr) health->PublishMetrics(metrics, "health");
      if (tracer != nullptr) health->EmitTraceInstants(tracer);
    }
    if (energy != nullptr) {
      // Observation order (web, cache, db) fixes ledger row order for a
      // given simulation, keeping exports deterministic.
      for (auto& web : webs) {
        web->node().ObserveEnergy(energy);
        web->set_energy(energy);
      }
      for (auto& cache : caches) cache->node().ObserveEnergy(energy);
      for (auto& db : dbs) db->node().ObserveEnergy(energy);
    }
  }

  // Probe registration order is fixed (web tier, cache tier, dbs, links,
  // aggregates), so exported column order is deterministic.
  void PublishProbes() {
    for (std::size_t i = 0; i < webs.size(); ++i) {
      const std::string prefix = "web" + std::to_string(i);
      webs[i]->node().PublishMetrics(metrics, prefix);
      webs[i]->tcp_host().PublishMetrics(metrics, prefix + ".tcp");
    }
    for (std::size_t i = 0; i < caches.size(); ++i) {
      caches[i]->node().PublishMetrics(metrics,
                                       "cache" + std::to_string(i));
    }
    for (std::size_t i = 0; i < dbs.size(); ++i) {
      dbs[i]->node().PublishMetrics(metrics, "db" + std::to_string(i));
    }
    fabric.PublishMetrics(metrics, "net");
    // Aggregate delay decomposition, merged across web servers exactly as
    // CollectServerDelays merges the final report — the last exported row
    // (sampled after the run drains) reproduces Table 7 from the CSV.
    metrics->AddGauge("svc.db_delay_mean",
                      [this] { return MergedDbDelay().mean(); });
    metrics->AddCounter("svc.db_delay_count", [this] {
      return static_cast<double>(MergedDbDelay().count());
    });
    metrics->AddGauge("svc.cache_delay_mean",
                      [this] { return MergedCacheDelay().mean(); });
    metrics->AddCounter("svc.cache_delay_count", [this] {
      return static_cast<double>(MergedCacheDelay().count());
    });
    metrics->AddGauge("svc.total_delay_mean",
                      [this] { return MergedTotalDelay().mean(); });
    metrics->AddCounter("svc.total_delay_count", [this] {
      return static_cast<double>(MergedTotalDelay().count());
    });
    metrics->AddCounter("svc.calls_ok", [this] {
      std::int64_t n = 0;
      for (auto& w : webs) n += w->calls_ok();
      return static_cast<double>(n);
    });
    metrics->AddCounter("svc.errors_500", [this] {
      std::int64_t n = 0;
      for (auto& w : webs) n += w->errors_500();
      return static_cast<double>(n);
    });
    metrics->AddGauge("svc.middle_watts", [this] {
      return clstr.TotalWatts({"web-server", "cache-server"});
    });
    metrics->AddCounter("svc.middle_joules", [this] {
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

  // 1-in-N connection trace sampling. A sampled connection gets a root
  // trace handle — fresh trace id, its own track — that the connection
  // process threads through the whole serving path; unsampled
  // connections get a null handle and every downstream tracing call
  // no-ops. The counter is part of the testbed, not the random streams,
  // so tracing on/off never changes simulated behaviour.
  obs::TraceHandle StartTrace() {
    const std::uint64_t conn = conn_counter_++;
    if (tracer == nullptr ||
        conn % static_cast<std::uint64_t>(trace_sample_every) != 0) {
      return {};
    }
    obs::TraceHandle handle;
    handle.tracer = tracer;
    handle.sched = &sched;
    handle.track = static_cast<std::int32_t>(conn & 0x7fffffff);
    handle.ctx.trace_id = tracer->NewTraceId();
    return handle;
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

  // Settle the attributor while the scheduler and nodes still exist: the
  // caller may take its ledger after this testbed is gone.
  ~Testbed() {
    if (energy != nullptr) energy->UnobserveAll();
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
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::EnergyAttributor* energy = nullptr;
  obs::Telemetry* telemetry = nullptr;
  std::unique_ptr<obs::NodeHealth> health;
  int trace_sample_every = 64;
  std::uint64_t conn_counter_ = 0;
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

// Windows a measurement run records into; a sample lands in the window
// containing its start time (failure runs use two half-windows). At most
// two windows ever exist, so this is a fixed two-slot set: every spawned
// connection takes its own copy by value without touching the heap.
struct Windows {
  Windows(std::initializer_list<RunWindow*> ws) {
    for (RunWindow* w : ws) slots[count++] = w;
  }
  std::array<RunWindow*, 2> slots{};
  int count = 0;
};

RunWindow* FindWindow(const Windows& windows, SimTime t) {
  for (int i = 0; i < windows.count; ++i) {
    if (windows.slots[i]->InWindow(t)) return windows.slots[i];
  }
  return nullptr;
}

SimTime WindowsEnd(const Windows& windows) {
  SimTime end = 0;
  for (int i = 0; i < windows.count; ++i) {
    end = std::max(end, windows.slots[i]->measure_end);
  }
  return end;
}

// One httperf connection: connect, then `calls` sequential HTTP calls.
sim::Process ClosedLoopConnection(Testbed& tb, Windows windows,
                                  const WorkloadMix& mix, WebServer* web,
                                  net::TcpHost* client, int calls,
                                  Rng rng) {
  const SimTime end = WindowsEnd(windows);
  const SimTime conn_start = tb.sched.now();
  // Root span of the connection's trace tree; null for unsampled
  // connections. The handle rides every downstream call — the simulated
  // context header.
  obs::CausalSpan conn_span(tb.StartTrace(), "conn",
                            obs::Category::kRequest);
  net::TcpConnection conn(client, &web->tcp_host());
  const net::ConnectResult cres =
      co_await conn.Connect(/*hold_backlog=*/true, conn_span.handle());
  if (!cres.status.ok()) {
    conn_span.Instant("connect_error", cres.retries);
    if (RunWindow* w = FindWindow(windows, conn_start)) {
      ++w->attempts;
      ++w->errors;
    }
    co_return;
  }
  // The accept loop must run (and release the backlog slot) even if the
  // server dies in between; the dead-server check follows it.
  co_await web->AcceptWork();
  if (web->failed()) {
    if (RunWindow* w = FindWindow(windows, conn_start)) {
      ++w->attempts;
      ++w->errors;
    }
    conn.Close();
    co_return;
  }
  for (int i = 0; i < calls; ++i) {
    const SimTime call_start = tb.sched.now();
    if (call_start >= end) break;
    const RequestSpec spec = mix.Sample(rng);
    obs::CausalSpan call_span(conn_span.handle(), "call",
                              obs::Category::kRequest, i);
    const CallResult result =
        co_await web->ServeCall(client->node_id(), spec, call_span.handle());
    if (RunWindow* w = FindWindow(windows, call_start)) {
      ++w->attempts;
      if (result.ok && !web->failed()) {
        ++w->ok;
        // httperf's reported response time amortises connection setup —
        // including SYN retransmission waits — over the connection's
        // first reply.
        w->response.Add(result.total +
                        (i == 0 ? cres.connect_delay : 0.0));
        // Omission annotation: dispatch→done is what httperf sees;
        // conn-arrival→done charges the call with everything the closed
        // loop serialised in front of it (connect backoff + the earlier
        // calls on this connection). Passive — no draws, no goldens.
        const SimTime done = tb.sched.now();
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
sim::Process ClosedLoopArrivals(Testbed& tb, Windows windows,
                                const WorkloadMix& mix, double rate,
                                int calls, Rng rng) {
  const SimTime end = WindowsEnd(windows);
  while (tb.sched.now() < end) {
    co_await sim::Delay(tb.sched, rng.Exponential(rate));
    if (tb.sched.now() >= end) break;
    sim::Spawn(tb.sched,
               ClosedLoopConnection(tb, windows, mix, tb.NextWeb(),
                                    tb.NextClient(), calls, rng.Fork()));
  }
}

using WebGate = load::AdmissionGate<Rng>;

// One open-loop (python urllib2) request: fresh connection per request.
// `intended` is the arrival the load engine scheduled; with an unbounded
// gate it equals the dispatch time, with a bounded gate a queued request
// dispatches late and its latency is still charged from `intended`.
sim::Process OpenLoopRequest(Testbed& tb, RunWindow& window,
                             const WorkloadMix& mix, WebServer* web,
                             net::TcpHost* client,
                             LinearHistogram* histogram,
                             load::OpenLoopRecorder& recorder, WebGate& gate,
                             SimTime intended, Rng rng) {
  const SimTime start = tb.sched.now();
  obs::CausalSpan request_span(tb.StartTrace(), "request",
                               obs::Category::kRequest);
  net::TcpConnection conn(client, &web->tcp_host());
  bool ok = false;
  const net::ConnectResult cres =
      co_await conn.Connect(/*hold_backlog=*/true, request_span.handle());
  if (!cres.status.ok()) {
    request_span.Instant("connect_error", cres.retries);
    if (window.InWindow(start)) {
      ++window.attempts;
      ++window.errors;
    }
  } else {
    co_await web->AcceptWork();
    const RequestSpec spec = mix.Sample(rng);
    const CallResult result = co_await web->ServeCall(
        client->node_id(), spec, request_span.handle());
    conn.Close();
    ok = result.ok;
    const Duration client_seen = tb.sched.now() - start;
    const Duration honest_seen = tb.sched.now() - intended;
    if (window.InWindow(start)) {
      ++window.attempts;
      if (result.ok) {
        ++window.ok;
        window.response.Add(result.total);
        window.client_delay.Add(client_seen);
        // Figures 10/11 bucket the coordinated-omission-free delay; the
        // two are identical until the gate queues.
        if (histogram != nullptr) histogram->Add(honest_seen);
      } else {
        ++window.errors;
      }
    }
  }
  recorder.OnComplete(intended, start, tb.sched.now(), ok);
  if (auto next = gate.OnComplete()) {
    sim::Spawn(tb.sched,
               OpenLoopRequest(tb, window, mix, tb.NextWeb(),
                               tb.NextClient(), histogram, recorder, gate,
                               next->intended, std::move(next->payload)));
  }
}

sim::Process OpenLoopArrivals(Testbed& tb, RunWindow& window,
                              const WorkloadMix& mix,
                              const load::ArrivalConfig& shape,
                              LinearHistogram* histogram,
                              load::OpenLoopRecorder& recorder, WebGate& gate,
                              Rng rng) {
  load::ArrivalProcess arrivals(shape);
  while (tb.sched.now() < window.measure_end) {
    co_await sim::Delay(tb.sched, arrivals.NextGap(rng));
    if (tb.sched.now() >= window.measure_end) break;
    const SimTime intended = tb.sched.now();
    Rng child = rng.Fork();
    switch (gate.Admit()) {
      case load::Admission::kDispatch:
        sim::Spawn(tb.sched,
                   OpenLoopRequest(tb, window, mix, tb.NextWeb(),
                                   tb.NextClient(), histogram, recorder,
                                   gate, intended, std::move(child)));
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
  Testbed tb(config_, config_.client_machines);
  RunWindow window;
  window.warmup_end = warmup;
  window.measure_end = warmup + measure;

  cluster::MetricsSampler web_sampler(&tb.clstr, {"web-server"}, 1.0);
  cluster::MetricsSampler cache_sampler(&tb.clstr, {"cache-server"}, 1.0);

  Joules epoch_joules = 0;
  tb.sched.ScheduleAt(window.warmup_end, [&] {
    for (auto& web : tb.webs) web->ResetStats();
    epoch_joules =
        tb.clstr.CumulativeJoules({"web-server", "cache-server"});
    web_sampler.Start();
    cache_sampler.Start();
    // Window marks at the very instant the stats reset, so the trace
    // analyzer can reproduce the report's windowing exactly.
    if (tb.tracer != nullptr) {
      tb.tracer->InstantAt(tb.sched.now(), "measure_start",
                           obs::Category::kApp, 0);
    }
    if (tb.energy != nullptr) tb.energy->BeginWindow();
  });
  Joules window_joules = 0;
  tb.sched.ScheduleAt(window.measure_end, [&] {
    window_joules =
        tb.clstr.CumulativeJoules({"web-server", "cache-server"}) -
        epoch_joules;
    web_sampler.Stop();
    cache_sampler.Stop();
    if (tb.metrics != nullptr) tb.metrics->Stop();
    if (tb.tracer != nullptr) {
      tb.tracer->InstantAt(tb.sched.now(), "measure_end",
                           obs::Category::kApp, 0);
    }
    if (tb.energy != nullptr) tb.energy->EndWindow();
  });

  if (tb.metrics != nullptr) tb.metrics->Start(&tb.sched, Seconds(1));
  sim::Spawn(tb.sched,
             ClosedLoopArrivals(tb, {&window}, mix, concurrency,
                                calls_per_connection, tb.rng.Fork()));
  tb.sched.Run();
  // Final sample after the queue drains: cumulative counters and the
  // merged delay stats now match the report exactly. Then detach: the
  // registry outlives this function-local testbed, so its probes must
  // not.
  if (tb.metrics != nullptr) {
    tb.metrics->SampleNow();
    tb.metrics->Detach();
  }

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

  auto mean_of = [](const std::vector<cluster::MetricsSample>& samples,
                    auto member) {
    if (samples.empty()) return 0.0;
    double sum = 0;
    for (const auto& s : samples) sum += s.*member;
    return sum / static_cast<double>(samples.size());
  };
  report.web_cpu_pct =
      mean_of(web_sampler.samples(), &cluster::MetricsSample::cpu_pct);
  report.web_memory_pct =
      mean_of(web_sampler.samples(), &cluster::MetricsSample::memory_pct);
  report.cache_cpu_pct =
      mean_of(cache_sampler.samples(), &cluster::MetricsSample::cpu_pct);
  report.cache_memory_pct =
      mean_of(cache_sampler.samples(), &cluster::MetricsSample::memory_pct);

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
  tb.sched.ScheduleAt(before.warmup_end, [&tb] {
    if (tb.tracer != nullptr) {
      tb.tracer->InstantAt(tb.sched.now(), "measure_start",
                           obs::Category::kApp, 0);
    }
    if (tb.energy != nullptr) tb.energy->BeginWindow();
  });
  tb.sched.ScheduleAt(before.measure_end, [&tb, to_fail] {
    for (int i = 0; i < to_fail; ++i) tb.webs[i]->set_failed(true);
  });
  tb.sched.ScheduleAt(after.measure_end, [&tb] {
    if (tb.metrics != nullptr) tb.metrics->Stop();
    if (tb.tracer != nullptr) {
      tb.tracer->InstantAt(tb.sched.now(), "measure_end",
                           obs::Category::kApp, 0);
    }
    if (tb.energy != nullptr) tb.energy->EndWindow();
  });

  if (tb.metrics != nullptr) tb.metrics->Start(&tb.sched, Seconds(1));
  sim::Spawn(tb.sched,
             ClosedLoopArrivals(tb, {&before, &after}, mix, concurrency,
                                calls_per_connection, tb.rng.Fork()));
  tb.sched.Run();
  if (tb.metrics != nullptr) {
    tb.metrics->SampleNow();
    tb.metrics->Detach();
  }

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
                                              Duration measure,
                                              double histogram_max_s,
                                              std::size_t histogram_buckets) {
  load::OpenLoopConfig load_config;  // Poisson, unbounded gate, no SLO
  load_config.arrival.rate = target_rps;
  return MeasureOpenLoop(mix, load_config, measure, histogram_max_s,
                         histogram_buckets);
}

OpenLoopReport WebExperiment::MeasureOpenLoop(
    const WorkloadMix& mix, const load::OpenLoopConfig& load_config,
    Duration measure, double histogram_max_s,
    std::size_t histogram_buckets) {
  // The paper uses 30 logging client machines for this test.
  Testbed tb(config_, 30);
  RunWindow window;
  window.warmup_end = Seconds(2);
  window.measure_end = window.warmup_end + measure;

  const double target_rps = load_config.arrival.rate;
  OpenLoopReport report{.target_rps = target_rps,
                        .achieved_rps = 0,
                        .error_rate = 0,
                        .delay_histogram = LinearHistogram(
                            0.0, histogram_max_s, histogram_buckets),
                        .db_delay = {},
                        .cache_delay = {},
                        .total_delay = {},
                        .client_delay = {}};

  Joules epoch_joules = 0;
  tb.sched.ScheduleAt(window.warmup_end, [&] {
    for (auto& web : tb.webs) web->ResetStats();
    epoch_joules =
        tb.clstr.CumulativeJoules({"web-server", "cache-server"});
    if (tb.tracer != nullptr) {
      tb.tracer->InstantAt(tb.sched.now(), "measure_start",
                           obs::Category::kApp, 0);
    }
    if (tb.energy != nullptr) tb.energy->BeginWindow();
  });
  Joules window_joules = 0;
  tb.sched.ScheduleAt(window.measure_end, [&] {
    window_joules =
        tb.clstr.CumulativeJoules({"web-server", "cache-server"}) -
        epoch_joules;
    if (tb.metrics != nullptr) tb.metrics->Stop();
    if (tb.telemetry != nullptr) tb.telemetry->Stop();
    if (tb.tracer != nullptr) {
      tb.tracer->InstantAt(tb.sched.now(), "measure_end",
                           obs::Category::kApp, 0);
    }
    if (tb.energy != nullptr) tb.energy->EndWindow();
  });

  load::OpenLoopRecorder recorder(window.warmup_end, window.measure_end,
                                  load_config.slo);
  WebGate gate(load_config);
  // Per-measure telemetry wiring mirrors kv::WireTelemetry: recorder SLO
  // stream, gate queue-depth probe, SLO-gated default rules. Thresholds
  // are pure functions of the config, so alert instants stay
  // deterministic.
  if (tb.telemetry != nullptr) {
    obs::Telemetry* telemetry = tb.telemetry;
    recorder.set_stream(obs::SloStreamInto(telemetry, "slo"));
    telemetry->AddProbe("gate.queue_depth", [&gate] {
      return static_cast<double>(gate.queue_depth());
    });
    if (load_config.slo > 0.0) {
      obs::BurnRateRule burn;
      burn.name = "slo_burn";
      burn.good_metric = "slo.good";
      burn.total_metric = "slo.offered";
      burn.slo_target = 0.9;      // 10% error budget
      burn.burn_threshold = 1.0;  // burning faster than budget
      burn.short_window = Seconds(2);
      burn.long_window = Seconds(8);
      telemetry->AddBurnRateRule(burn);
      obs::ThresholdRule p99;
      p99.name = "latency_p99_high";
      p99.metric = "slo.latency";
      p99.agg = obs::Agg::kP99;
      p99.threshold = load_config.slo;
      p99.window = Seconds(2);
      telemetry->AddThresholdRule(p99);
      obs::ThresholdRule sheds;
      sheds.name = "shed_spike";
      sheds.metric = "slo.shed";
      sheds.agg = obs::Agg::kRate;
      sheds.threshold = 1.0;  // sheds/s
      sheds.window = Seconds(2);
      telemetry->AddThresholdRule(sheds);
    }
    telemetry->Start(&tb.sched, tb.tracer);
  }
  if (tb.metrics != nullptr) tb.metrics->Start(&tb.sched, Seconds(1));
  sim::Spawn(tb.sched,
             OpenLoopArrivals(tb, window, mix, load_config.arrival,
                              &report.delay_histogram, recorder, gate,
                              tb.rng.Fork()));
  tb.sched.Run();
  if (tb.metrics != nullptr) {
    tb.metrics->SampleNow();
    tb.metrics->Detach();
  }

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
  report.p99_client = recorder.service_percentiles().empty()
                          ? 0.0
                          : recorder.service_percentiles().Percentile(0.99);
  report.slo_good_fraction = recorder.SloGoodFraction();
  report.slo_goodput_per_joule = recorder.SloGoodputPerJoule(window_joules);
  report.middle_tier_power = window_joules / measure;
  report.window_joules = window_joules;
  CollectServerDelays(tb, &report);
  return report;
}

}  // namespace wimpy::web
