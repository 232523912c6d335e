// Full web-service testbed and experiment drivers (paper §5.1).
//
// A testbed instantiates the paper's deployment: a middle tier of web and
// cache servers (Edison or Dell), the two shared Dell MySQL servers, client
// machines behind HAProxy, and the room-level network topology with its
// 1 Gbps client<->Edison aggregate uplink and 2 Gbps client<->Dell path.
//
// Two measurement modes mirror the paper's tooling:
//   * closed-loop httperf — `connections/sec` arrivals, each performing a
//     tuned number of calls (Figures 4-9);
//   * open-loop python clients — one fresh connection per request at a
//     fixed aggregate rate, logging full client-perceived delay including
//     SYN backoff (Figures 10/11, Table 7).
#ifndef WIMPY_WEB_SERVICE_H_
#define WIMPY_WEB_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/stats.h"
#include "common/units.h"
#include "hw/profile.h"
#include "load/openloop.h"
#include "web/backend.h"
#include "web/web_server.h"
#include "web/workload.h"

namespace wimpy::obs {
class EnergyAttributor;
class MetricsRegistry;
class Telemetry;
class Tracer;
}  // namespace wimpy::obs

namespace wimpy::web {

struct WebTestbedConfig {
  hw::HardwareProfile middle_profile;  // web+cache tier hardware
  int web_servers = 24;
  int cache_servers = 11;
  std::string middle_group = "edison-room";
  WebServerConfig web_config;
  int client_machines = 8;
  std::uint64_t seed = 20160901;
  // Optional observability sinks (docs/observability.md); borrowed, may
  // be null. When `tracer` is set, one connection in `trace_sample_every`
  // emits request spans (deterministic round-robin counter, so sampling
  // never perturbs the simulation's random streams). When `metrics` is
  // set, the testbed publishes per-node utilisation/power, per-host TCP,
  // link, and aggregate delay-decomposition probes and samples them at
  // 1 s of simulated time during the measurement run.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  int trace_sample_every = 64;
  // Optional span-energy attribution (obs/energy.h): when set, the
  // testbed subscribes it to every web/cache/db node's power meter and
  // marks the measurement window, so sampled request trees carry
  // joules-per-span and the ledger's window subtotal mirrors the
  // report's energy accounting. Borrowed; may be null.
  obs::EnergyAttributor* energy = nullptr;
  // Online telemetry plane (obs/telemetry.h; null = zero overhead). Every
  // measure call wires per-web-node `web<i>.cpu_busy|power_w` probes and
  // an obs::NodeHealth scorer over the web tier (`health.*` metrics
  // columns + kHealth trace instants), stepped by the run's sampling
  // clock. A MeasureOpenLoop run also wires the recorder's SLO stream
  // into `slo.*`, a `gate.queue_depth` probe and default SLO alert rules
  // (installed when the load config sets an SLO bound). One Telemetry
  // per measure call; borrowed, must outlive it.
  obs::Telemetry* telemetry = nullptr;
};

// Calibrated per-platform web-server configs (see web_server.h for the
// service_efficiency rationale).
WebServerConfig EdisonWebConfig();
WebServerConfig DellWebConfig();

// The paper's middle-tier scale ladder (Table 6).
WebTestbedConfig EdisonWebTestbed(int web_servers, int cache_servers);
WebTestbedConfig DellWebTestbed(int web_servers, int cache_servers);

// Result of one closed-loop concurrency level.
struct LevelReport {
  double target_concurrency = 0;   // new connections/sec
  int calls_per_connection = 0;
  double achieved_rps = 0;         // OK replies per second
  double error_rate = 0;           // (500s + failed connects) / attempts
  Duration mean_response = 0;      // client-perceived per call
  Watts middle_tier_power = 0;     // web+cache aggregate mean over window
  double web_cpu_pct = 0;          // mean during window
  double cache_cpu_pct = 0;
  // Table 7 decomposition, aggregated across all web servers.
  OnlineStats db_delay;
  OnlineStats cache_delay;
  OnlineStats total_delay;
  // Engine events the whole replication executed (scheduler counter at
  // drain); bench_scale_macro divides by wall-clock for events/s.
  std::uint64_t executed_events = 0;
  // Closed-loop omission annotation (docs/openloop.md): the same OK calls
  // measured from the call's service start (dispatch on an already-open
  // connection) vs from the connection's intended start (its Poisson
  // arrival). The gap — invisible in `response` — is how much latency the
  // closed loop hid inside earlier calls on the same connection. Passive
  // bookkeeping: recording them draws nothing and changes no goldens;
  // benches only print them behind --omission.
  OnlineStats dispatch_response;
  OnlineStats conn_intended_response;
  Duration p99_dispatch = 0;
  Duration p99_conn_intended = 0;
};

// Bucket geometry of OpenLoopReport::delay_histogram: equal buckets over
// [0, 8) s, the delay axis of Figures 10/11.
inline constexpr double kDelayHistogramMaxS = 8.0;
inline constexpr std::size_t kDelayHistogramBuckets = 32;

// Result of an open-loop delay-distribution run.
struct OpenLoopReport {
  double target_rps = 0;
  double achieved_rps = 0;
  double error_rate = 0;
  LinearHistogram delay_histogram{0.0, kDelayHistogramMaxS,
                                  kDelayHistogramBuckets};
  OnlineStats db_delay;
  OnlineStats cache_delay;
  OnlineStats total_delay;     // server-side, excludes reconnect delay
  OnlineStats client_delay;    // includes SYN backoff
  std::uint64_t executed_events = 0;
  // Open-loop honesty fields (docs/openloop.md). `offered_rps` counts
  // every intended arrival in the window including sheds;
  // `intended_delay` measures completion minus intended arrival (queue
  // wait at the client gate included), which equals `client_delay` when
  // the gate is unbounded.
  double offered_rps = 0;
  std::int64_t shed = 0;
  OnlineStats intended_delay;
  Duration p99_intended = 0;
  Duration p99_client = 0;
  double slo_good_fraction = 0;      // under-SLO completions / offered
  double slo_goodput_per_joule = 0;  // under-SLO completions / window ∫P dt
  Watts middle_tier_power = 0;       // web+cache aggregate mean over window
  Joules window_joules = 0;
};

class WebExperiment {
 public:
  // Checks the tier sizes in every build type (a zero-sized web tier or
  // client pool divides by zero in the balancer): web_servers >= 1,
  // client_machines >= 1, cache_servers >= 0. The measure calls check
  // their load the same way: concurrency / target rps > 0 and
  // calls_per_connection >= 1.
  explicit WebExperiment(WebTestbedConfig config);

  // Runs one httperf concurrency level on a fresh testbed.
  LevelReport MeasureClosedLoop(const WorkloadMix& mix, double concurrency,
                                int calls_per_connection,
                                Duration warmup = Seconds(5),
                                Duration measure = Seconds(30));

  // Runs the python-client open-loop test on a fresh testbed. The
  // two-argument form keeps the legacy shape (Poisson, unbounded gate, no
  // SLO) and is draw-for-draw identical to the pre-load-engine generator.
  OpenLoopReport MeasureOpenLoop(const WorkloadMix& mix, double target_rps,
                                 Duration measure = Seconds(30));
  // Full open-loop engine: arrival model/burstiness from
  // `load_config.arrival` (its rate field is the offered rps), client-side
  // admission gate, and SLO-conditioned reporting (docs/openloop.md).
  OpenLoopReport MeasureOpenLoop(const WorkloadMix& mix,
                                 const load::OpenLoopConfig& load_config,
                                 Duration measure = Seconds(30));

  // Fault-injection run: `failed_servers` web servers crash at the middle
  // of the measurement window; throughput/error/delay are reported for
  // the halves before and after the failure. Validates the paper's
  // load-redistribution argument (§1, advantage 2).
  struct FailureReport {
    LevelReport before;
    LevelReport after;
    int failed_servers = 0;
    int total_servers = 0;
  };
  FailureReport MeasureWithFailure(const WorkloadMix& mix,
                                   double concurrency,
                                   int calls_per_connection,
                                   int failed_servers,
                                   Duration warmup = Seconds(5),
                                   Duration half_window = Seconds(20));

  // The paper tunes httperf calls-per-connection at every level so the
  // offered load tracks the target concurrency without client errors; this
  // reproduces that policy (more calls at low concurrency, fewer at high).
  static int TunedCallsPerConnection(double concurrency);

  const WebTestbedConfig& config() const { return config_; }

 private:
  WebTestbedConfig config_;
};

}  // namespace wimpy::web

#endif  // WIMPY_WEB_SERVICE_H_
