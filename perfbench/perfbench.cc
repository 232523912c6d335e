// Benchmark binary: runs one named workload through the public experiment
// APIs (web::WebExperiment, kv::KvExperiment, shard::ShardExperiment) and
// prints its raw measurements as one JSON object on the last stdout line.
// run.py builds this binary, starts one fresh process per job, checks the
// outputs and reduces the samples to the metrics in BENCHMARK.json; see
// README.md for the metric definitions.
//
//   perfbench --workload=NAME --seed=N --job=e2e|traced --seconds=S
//             [--tiny] [--out-prefix=PATH]
//
// Every host time is taken around this file's own calls into the library;
// nothing inside the library is instrumented.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.h"
#include "hw/profiles.h"
#include "kv/experiment.h"
#include "obs/critical_path.h"
#include "obs/energy.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "shard/experiment.h"
#include "shard/ring.h"
#include "sim/scheduler.h"
#include "web/service.h"
#include "web/workload.h"

namespace {

using namespace wimpy;
using Clock = std::chrono::steady_clock;

enum class Workload { kWeb, kKv, kShard };

struct Args {
  Workload workload = Workload::kWeb;
  std::uint64_t seed = 77;
  std::string job = "e2e";
  double seconds = 10;
  // Small geometry for the self-test: same code paths, ~1% of the work.
  bool tiny = false;
  std::string out_prefix;
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload=web_closed_100k|kv_read_64n|"
               "shard_churn_write --seed=N --job=e2e|traced --seconds=S "
               "[--tiny] [--out-prefix=PATH]\n");
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&](std::string_view prefix) -> const char* {
      return arg.substr(0, prefix.size()) == prefix
                 ? argv[i] + prefix.size()
                 : nullptr;
    };
    if (const char* v = value("--workload=")) {
      const std::string_view name = v;
      have_workload = true;
      if (name == "web_closed_100k") {
        a.workload = Workload::kWeb;
      } else if (name == "kv_read_64n") {
        a.workload = Workload::kKv;
      } else if (name == "shard_churn_write") {
        a.workload = Workload::kShard;
      } else {
        Usage();
      }
    } else if (const char* v = value("--seed=")) {
      char* end = nullptr;
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') Usage();
    } else if (const char* v = value("--job=")) {
      a.job = v;
      if (a.job != "e2e" && a.job != "traced") Usage();
    } else if (const char* v = value("--seconds=")) {
      a.seconds = std::atof(v);
      if (!(a.seconds > 0)) Usage();
    } else if (arg == "--tiny") {
      a.tiny = true;
    } else if (const char* v = value("--out-prefix=")) {
      a.out_prefix = v;
    } else {
      Usage();
    }
  }
  if (!have_workload) Usage();
  return a;
}

// --- workload geometry ----------------------------------------------------
// The reasons for each geometry are in README.md ("Workloads").

constexpr Duration kWarmup = Seconds(2);  // kv/shard Measure fix it at 2 s
constexpr int kTraceSampleEvery = 4096;
// Open-loop arrival rate that draws no arrival before the window closes:
// the zero-window probes build and tear down the testbed with no load.
constexpr double kNoLoad = 1e-9;

Duration Window(const Args& a) { return Seconds(a.tiny ? 1 : 10); }

// kv and shard report the median over this many seeds per run: one
// replication's p99 moves ~9% from seed to seed, and their replications
// are short. A web replication takes ~15 s of host time.
int SeedCount(const Args& a) { return a.workload == Workload::kWeb ? 1 : 4; }

// Fewest full replications per run: one per seed, and two for web so its
// best host time is taken over more than one sample.
int MinReplications(const Args& a) {
  return a.workload == Workload::kWeb ? 2 : SeedCount(a);
}

// Seed j of a run; seed 0 is the workload seed itself.
std::uint64_t SubSeed(std::uint64_t seed, int j) {
  return seed + (static_cast<std::uint64_t>(j) << 32);
}

// New connections/s (web) or queries/s (kv, shard).
double Rate(const Args& a) {
  switch (a.workload) {
    case Workload::kWeb: return a.tiny ? 250 : 10000;
    case Workload::kKv: return a.tiny ? 500 : 10000;
    case Workload::kShard: return a.tiny ? 2000 : 20000;
  }
  return 0;
}

web::WebTestbedConfig WebConfig(const Args& a) {
  web::WebTestbedConfig cfg = a.tiny ? web::EdisonWebTestbed(6, 3)
                                     : web::EdisonWebTestbed(240, 110);
  cfg.client_machines = a.tiny ? 2 : 80;
  cfg.seed = a.seed;
  return cfg;
}

kv::KvExperimentConfig KvConfig(const Args& a) {
  kv::KvExperimentConfig cfg;
  cfg.node_profile = hw::EdisonProfile();
  cfg.node_count = a.tiny ? 8 : 64;
  cfg.client_machines = a.tiny ? 2 : 8;
  cfg.get_fraction = 0.90;
  cfg.replication = 1;
  // SLO accounting only: it makes the recorder's offered count derivable
  // from the report (see OpenLoopCounts); it changes no simulated event.
  cfg.openloop.slo = Milliseconds(100);
  cfg.seed = a.seed;
  return cfg;
}

shard::ShardExperimentConfig ShardConfig(const Args& a) {
  shard::ShardExperimentConfig cfg;
  cfg.racks = a.tiny ? 2 : 8;
  cfg.nodes_per_rack = a.tiny ? 4 : 8;
  cfg.spare_nodes = 1;
  cfg.client_machines = a.tiny ? 2 : 4;
  cfg.rack_oversubscription = 4.0;
  cfg.ring.replication = 3;
  cfg.get_fraction = 0.5;
  cfg.churn = shard::Churn::kJoin;
  cfg.openloop.slo = Milliseconds(100);
  cfg.openloop.max_outstanding = 4096;
  cfg.openloop.queue_limit = 4096;
  cfg.seed = a.seed;
  return cfg;
}

// --- one replication --------------------------------------------------------

// kSetup: zero-length window, no load (testbed build + teardown only).
// kWarmup: the 2 s warm-up under load, zero-length window.
// kFull: warm-up plus the measured window.
enum class Phase { kSetup, kWarmup, kFull };

struct Sinks {
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::EnergyAttributor* energy = nullptr;
  bool telemetry = true;  // shard_churn_write only
};

// Simulated outcome of a full replication; a pure function of
// (workload, seed). Counts are in-window.
struct SimOutcome {
  double goodput_per_s = 0;
  double p99_ms = 0;
  std::int64_t p99_samples = 0;
  double work_per_joule = 0;
  double error_rate = 0;
  std::int64_t offered = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  std::int64_t shed = 0;
  double window_joules = 0;
  double cpu_busy_pct = 0;  // web only; kv/shard derive it when traced
  int shards_moved = 0;
  bool migration_done = false;
  double migration_mb = 0;
  double migration_s = 0;
  double cross_rack_frac = 0;
  double max_uplink_busy = 0;
};

struct RunResult {
  double wall_s = 0;
  std::uint64_t events = 0;
  SimOutcome sim;
};

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t Count(double x) { return std::llround(x); }

// Fills the in-window counts of an open-loop run. The recorder's offered
// count (windowed by intended arrival) is not a report field, but with an
// SLO set it follows from two that are:
// under-SLO completions = slo_goodput_per_joule * window joules, and
// offered = under-SLO completions / slo_good_fraction.
void OpenLoopCounts(std::int64_t ok, std::int64_t failed, std::int64_t shed,
                    double slo_goodput_per_joule, double slo_good_fraction,
                    SimOutcome* s) {
  s->ok = ok;
  s->failed = failed;
  s->shed = shed;
  const double under_slo = slo_goodput_per_joule * s->window_joules;
  s->offered = slo_good_fraction > 0 ? Count(under_slo / slo_good_fraction)
                                     : -1;
  s->p99_samples = s->ok;
  s->error_rate =
      s->offered > 0
          ? static_cast<double>(s->failed + s->shed) /
                static_cast<double>(s->offered)
          : 1.0;
}

RunResult RunWeb(const Args& a, Phase phase, const Sinks& sinks) {
  web::WebTestbedConfig cfg = WebConfig(a);
  cfg.tracer = sinks.tracer;
  cfg.metrics = sinks.metrics;
  cfg.energy = sinks.energy;
  cfg.trace_sample_every = kTraceSampleEvery;
  const Duration warmup = phase == Phase::kSetup ? 0 : kWarmup;
  const Duration window = phase == Phase::kFull ? Window(a) : 0;
  const auto t0 = Clock::now();
  web::WebExperiment exp(std::move(cfg));
  const web::LevelReport r =
      exp.MeasureClosedLoop(web::HeavyMix(), Rate(a),
                            /*calls_per_connection=*/2, warmup, window);
  RunResult out{SecondsSince(t0), r.executed_events, {}};
  if (phase != Phase::kFull) return out;
  SimOutcome& s = out.sim;
  s.goodput_per_s = r.achieved_rps;
  s.p99_ms = r.p99_conn_intended * 1e3;
  s.p99_samples = static_cast<std::int64_t>(r.conn_intended_response.count());
  s.work_per_joule =
      r.middle_tier_power > 0 ? r.achieved_rps / r.middle_tier_power : 0;
  s.error_rate = r.error_rate;
  s.ok = Count(r.achieved_rps * window);
  s.offered = r.error_rate >= 1
                  ? -1
                  : Count(static_cast<double>(s.ok) / (1 - r.error_rate));
  s.failed = s.offered - s.ok;
  s.window_joules = r.middle_tier_power * window;
  s.cpu_busy_pct = r.web_cpu_pct;
  return out;
}

RunResult RunKv(const Args& a, Phase phase, const Sinks& sinks) {
  kv::KvExperimentConfig cfg = KvConfig(a);
  cfg.tracer = sinks.tracer;
  cfg.metrics = sinks.metrics;
  cfg.energy = sinks.energy;
  cfg.trace_sample_every = kTraceSampleEvery;
  const Duration window = phase == Phase::kFull ? Window(a) : 0;
  const auto t0 = Clock::now();
  kv::KvExperiment exp(std::move(cfg));
  const kv::KvReport r =
      exp.Measure(phase == Phase::kSetup ? kNoLoad : Rate(a), window);
  RunResult out{SecondsSince(t0), r.executed_events, {}};
  if (phase != Phase::kFull) return out;
  SimOutcome& s = out.sim;
  s.window_joules = r.store_power * window;
  // The report gives ok/s and failed / (ok + failed); no kv error path
  // fires below the knee, so failed is 0 unless the error rate says not.
  const std::int64_t ok = Count(r.achieved_qps * window);
  const std::int64_t failed =
      r.error_rate >= 1 ? -1
                        : Count(static_cast<double>(ok) * r.error_rate /
                                (1 - r.error_rate));
  OpenLoopCounts(ok, failed, r.shed, r.slo_goodput_per_joule,
                 r.slo_good_fraction, &s);
  s.goodput_per_s = r.achieved_qps;
  s.p99_ms = r.p99_intended_latency * 1e3;
  s.work_per_joule = r.queries_per_joule;
  return out;
}

RunResult RunShard(const Args& a, Phase phase, const Sinks& sinks) {
  shard::ShardExperimentConfig cfg = ShardConfig(a);
  // Churn fires at the window midpoint, which a zero window moves into
  // the probe; the probes measure the testbed without it.
  if (phase != Phase::kFull) cfg.churn = shard::Churn::kNone;
  cfg.tracer = sinks.tracer;
  cfg.metrics = sinks.metrics;
  cfg.energy = sinks.energy;
  cfg.trace_sample_every = kTraceSampleEvery;
  const Duration window = phase == Phase::kFull ? Window(a) : 0;
  const auto t0 = Clock::now();
  obs::Telemetry telemetry;
  if (sinks.telemetry) cfg.telemetry = &telemetry;
  shard::ShardExperiment exp(std::move(cfg));
  const shard::ShardReport r =
      exp.Measure(phase == Phase::kSetup ? kNoLoad : Rate(a), window);
  RunResult out{SecondsSince(t0), r.executed_events, {}};
  if (phase != Phase::kFull) return out;
  SimOutcome& s = out.sim;
  s.window_joules = r.store_power * window;
  OpenLoopCounts(r.done, r.failed, r.shed, r.slo_goodput_per_joule,
                 r.slo_good_fraction, &s);
  s.goodput_per_s = r.goodput_qps;
  s.p99_ms = r.p99_intended_latency * 1e3;
  s.work_per_joule = r.slo_goodput_per_joule;
  s.shards_moved = r.migration.shards_moved;
  s.migration_done = r.migration.done;
  s.migration_mb =
      static_cast<double>(r.migration.bulk_bytes + r.migration.catchup_bytes) /
      1e6;
  s.migration_s = r.migration.duration();
  s.cross_rack_frac = r.cross_rack_replica_fraction;
  s.max_uplink_busy = r.max_rack_uplink_busy;
  return out;
}

RunResult Run(const Args& a, Phase phase, const Sinks& sinks = Sinks{}) {
  switch (a.workload) {
    case Workload::kWeb: return RunWeb(a, phase, sinks);
    case Workload::kKv: return RunKv(a, phase, sinks);
    case Workload::kShard: return RunShard(a, phase, sinks);
  }
  return {};
}

// Public Ring + AddNode at the member count the workload's testbed builds
// its ring(s) with; the web testbed builds one such ring per web server.
double RingBuildSeconds(const Args& a) {
  shard::RingConfig cfg;
  int members = 0;
  switch (a.workload) {
    case Workload::kWeb:
      members = WebConfig(a).cache_servers;
      break;
    case Workload::kKv:
      cfg.replication = KvConfig(a).replication;
      members = KvConfig(a).node_count;
      break;
    case Workload::kShard:
      cfg = ShardConfig(a).ring;
      members = ShardConfig(a).ring_nodes();
      break;
  }
  const auto t0 = Clock::now();
  shard::Ring ring(cfg);
  for (int i = 0; i < members; ++i) ring.AddNode(i);
  return SecondsSince(t0);
}

// --- host measurements -------------------------------------------------------

// High-water RSS of this process (/proc/self/status VmHWM), MiB.
double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

double Best(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Host spans around this binary's own calls, exported as Chrome-trace JSON
// (Perfetto: ui.perfetto.dev, "Open trace file").
class HostTrace {
 public:
  template <typename F>
  auto Span(const char* name, F&& f) {
    const double begin = Now();
    auto result = f();
    spans_.push_back({name, begin, Now() - begin});
    return result;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\": [\n", f);
    std::fputs("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": 1, \"args\": {\"name\": \"perfbench host\"}}",
               f);
    for (const auto& s : spans_) {
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"host\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1}",
                   s.name, s.begin_us, s.dur_us);
    }
    std::fputs("\n], \"displayTimeUnit\": \"ms\"}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct HostSpan {
    const char* name;
    double begin_us;
    double dur_us;
  };
  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - start_)
        .count();
  }
  Clock::time_point start_ = Clock::now();
  std::vector<HostSpan> spans_;
};

// --- JSON output ------------------------------------------------------------

class Json {
 public:
  Json& Num(const char* key, double v) {
    Key(key);
    if (std::isfinite(v)) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out_ += buf;
    } else {
      out_ += "null";
    }
    return *this;
  }
  Json& Int(const char* key, std::int64_t v) {
    Key(key);
    out_ += std::to_string(v);
    return *this;
  }
  Json& Bool(const char* key, bool v) {
    Key(key);
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& Str(const char* key, const std::string& v) {
    Key(key);
    out_ += '"' + v + '"';
    return *this;
  }
  Json& Raw(const char* key, const std::string& json) {
    Key(key);
    out_ += json;
    return *this;
  }
  Json& Nums(const char* key, const std::vector<double>& v) {
    Key(key);
    out_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", v[i]);
      out_ += buf;
    }
    out_ += ']';
    return *this;
  }
  std::string Done() const { return out_ + '}'; }

 private:
  void Key(const char* key) {
    out_ += out_.size() > 1 ? ", \"" : "\"";
    out_ += key;
    out_ += "\": ";
  }
  std::string out_ = "{";
};

std::string SimJson(const SimOutcome& s, std::uint64_t events,
                    std::uint64_t seed) {
  return Json()
      .Str("seed", std::to_string(seed))
      .Num("goodput_per_s", s.goodput_per_s)
      .Num("p99_ms", s.p99_ms)
      .Int("p99_samples", s.p99_samples)
      .Num("work_per_joule", s.work_per_joule)
      .Num("error_rate", s.error_rate)
      .Int("events", static_cast<std::int64_t>(events))
      .Int("offered", s.offered)
      .Int("ok", s.ok)
      .Int("failed", s.failed)
      .Int("shed", s.shed)
      .Num("window_joules", s.window_joules)
      .Int("shards_moved", s.shards_moved)
      .Bool("migration_done", s.migration_done)
      .Done();
}

std::string ReproJson(HostTrace* trace) {
  auto run = [] { return core::RunReproductionChecks(); };
  const core::ReproductionReport r =
      trace != nullptr ? trace->Span("reproduction_check", run) : run();
  return Json()
      .Int("holds", r.holds())
      .Int("total", static_cast<std::int64_t>(r.entries.size()))
      .Done();
}

std::string HostJson() {
  return Json()
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", PERFBENCH_COMPILER)
      .Done();
}

// --- jobs ---------------------------------------------------------------------

// End-to-end job: full replications until --seconds of host time have
// passed (at least MinReplications), each preceded by a setup probe while
// the probes have used less than a tenth of the budget (at least one).
// Spreading the probes over the run keeps one burst of host contention
// from covering all of them. The process runs only this workload; its
// VmHWM is read after the first replication of every seed, so the peak
// does not depend on how many replications the host's speed allowed.
int RunEndToEnd(const Args& a) {
  const auto start = Clock::now();
  constexpr std::size_t kMaxSetupProbes = 50;
  std::vector<double> setup_s;
  std::vector<double> setup_events;
  double setup_total = 0;
  std::vector<double> wall_s;
  std::string reps = "[";
  double peak_rss = 0;
  for (int i = 0;; ++i) {
    if (setup_s.empty() || (setup_s.size() < kMaxSetupProbes &&
                            setup_total < 0.1 * a.seconds)) {
      const RunResult r = Run(a, Phase::kSetup);
      setup_s.push_back(r.wall_s);
      setup_events.push_back(static_cast<double>(r.events));
      setup_total += r.wall_s;
    }
    Args rep = a;
    rep.seed = SubSeed(a.seed, i % SeedCount(a));
    const RunResult r = Run(rep, Phase::kFull);
    wall_s.push_back(r.wall_s);
    if (i > 0) reps += ", ";
    reps += SimJson(r.sim, r.events, rep.seed);
    if (i + 1 == SeedCount(a)) peak_rss = PeakRssMib();
    if (i + 1 >= MinReplications(a) &&
        SecondsSince(start) + Median(wall_s) > a.seconds) {
      break;
    }
  }
  reps += ']';

  std::printf("%s\n", Json()
                          .Str("job", "e2e")
                          .Nums("setup_s", setup_s)
                          .Nums("setup_events", setup_events)
                          .Nums("wall_s", wall_s)
                          .Raw("reps", reps)
                          .Num("peak_rss_mib", peak_rss)
                          .Raw("repro", ReproJson(nullptr))
                          .Raw("host", HostJson())
                          .Done()
                          .c_str());
  return 0;
}

// Mean simulated self time per sampled span, by name: the span's duration
// minus the union of its children's intervals.
std::map<std::string, double> SpanSelfMs(const obs::TraceLog& log) {
  std::map<std::string, double> sum;
  std::map<std::string, int> n;
  for (const obs::TraceTree& tree : obs::BuildTraceTrees(log)) {
    for (const obs::SpanRecord& span : tree.spans) {
      if (!span.complete) continue;
      std::vector<std::pair<SimTime, SimTime>> kids;
      for (std::size_t c : span.children) {
        const obs::SpanRecord& k = tree.spans[c];
        kids.emplace_back(std::max(k.begin, span.begin),
                          std::min(k.end, span.end));
      }
      std::sort(kids.begin(), kids.end());
      Duration covered = 0;
      SimTime reach = span.begin;
      for (const auto& [b, e] : kids) {
        const SimTime from = std::max(b, reach);
        if (e > from) covered += e - from;
        reach = std::max(reach, e);
      }
      sum[span.name] += (span.end - span.begin - covered) * 1e3;
      ++n[span.name];
    }
  }
  for (auto& [name, total] : sum) total /= n[name];
  return sum;
}

// Window mean of the tier's `<prefix><i>.cpu_busy` gauges, percent, and
// the final value of every `*.tcp.syn_drops` counter, summed.
struct SeriesStats {
  double cpu_busy_pct = 0;
  double syn_drops = 0;
};

SeriesStats ReadSeries(const obs::MetricsSeries& series,
                       const std::string& tier, SimTime from, SimTime to) {
  SeriesStats out;
  std::vector<std::size_t> busy;
  std::vector<std::size_t> drops;
  for (std::size_t i = 0; i < series.names.size(); ++i) {
    const std::string& name = series.names[i];
    auto ends_with = [&](std::string_view suffix) {
      return name.size() >= suffix.size() &&
             name.compare(name.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
    };
    if (name.rfind(tier, 0) == 0 && ends_with(".cpu_busy") &&
        name.find('.') == name.rfind('.')) {
      busy.push_back(i);
    }
    if (ends_with(".tcp.syn_drops")) drops.push_back(i);
  }
  double sum = 0;
  int n = 0;
  for (std::size_t r = 0; r < series.rows.size(); ++r) {
    if (series.times[r] < from || series.times[r] >= to) continue;
    for (std::size_t i : busy) sum += series.rows[r][i];
    n += static_cast<int>(busy.size());
  }
  out.cpu_busy_pct = n > 0 ? 100.0 * sum / n : 0;
  if (!series.rows.empty()) {
    for (std::size_t i : drops) out.syn_drops += series.rows.back()[i];
  }
  return out;
}

const char* const kSpanNames[] = {"serve",      "cache", "db",  "req_xfer",
                                  "reply_xfer", "get",   "put", "replicate",
                                  "shard_hop"};

// Traced job: the probes that split wall time into phases, one traced
// replication with the obs sinks attached, the ring build and the
// reproduction check, each wrapped in a host span.
int RunTraced(const Args& a) {
  HostTrace host;
  const auto start = Clock::now();
  // The process is fresh: VmHWM right after the first setup probe is the
  // testbed's own peak.
  const RunResult first_setup =
      host.Span("setup_probe", [&] { return Run(a, Phase::kSetup); });
  std::vector<double> setup_s{first_setup.wall_s};
  const double setup_peak_mib = PeakRssMib();
  std::vector<double> warmup_s;
  std::vector<double> full_s;
  std::vector<double> detached_s;  // shard: telemetry plane detached
  RunResult full;
  for (;;) {
    warmup_s.push_back(
        host.Span("warmup_probe", [&] { return Run(a, Phase::kWarmup); })
            .wall_s);
    full = host.Span("replication", [&] { return Run(a, Phase::kFull); });
    full_s.push_back(full.wall_s);
    if (a.workload == Workload::kShard) {
      Sinks bare;
      bare.telemetry = false;
      detached_s.push_back(host.Span("replication_no_telemetry", [&] {
                                   return Run(a, Phase::kFull, bare);
                                 }).wall_s);
    }
    if (SecondsSince(start) + 3 * Median(full_s) > a.seconds) break;
    setup_s.push_back(
        host.Span("setup_probe", [&] { return Run(a, Phase::kSetup); })
            .wall_s);
  }

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::EnergyAttributor energy;
  Sinks sinks;
  sinks.tracer = &tracer;
  sinks.metrics = &metrics;
  sinks.energy = &energy;
  const RunResult traced = host.Span(
      "traced_replication", [&] { return Run(a, Phase::kFull, sinks); });
  const obs::TraceLog log = tracer.TakeLog();
  // TakeLedger settles every node at the clock of the scheduler it last
  // observed, which died with Measure's testbed. Rebinding it to a live
  // scheduler at t = 0 makes the settle a no-op (no node accrues
  // backwards): the ledger stands as of each node's last power change.
  sim::Scheduler settle;
  energy.ObserveNode(&settle, /*node_id=*/-1, /*initial_watts=*/0);
  const obs::EnergyLedger ledger = energy.TakeLedger();
  double attributed = 0;
  for (const auto& row : ledger.rows) attributed += row.joules;
  const double telemetry_pct =
      detached_s.empty() ? 0
                         : 100.0 * (Best(full_s) - Best(detached_s)) /
                               Best(detached_s);

  std::vector<double> ring_s;
  for (int i = 0; i < 5; ++i) {
    ring_s.push_back(
        host.Span("ring_build", [&] { return RingBuildSeconds(a); }));
  }
  const std::string repro = ReproJson(&host);

  const std::string tier = a.workload == Workload::kWeb  ? "web"
                           : a.workload == Workload::kKv ? "kv"
                                                         : "shard";
  const SeriesStats series = ReadSeries(metrics.series(), tier, kWarmup,
                                        kWarmup + Window(a));
  const SimOutcome& s = traced.sim;
  // Best samples, as in the end-to-end job (README.md explains why).
  const double setup = Best(setup_s);
  const double warmup = Best(warmup_s);
  const double wall = Best(full_s);
  const double trace_extra = traced.wall_s - wall;
  const auto trace_events = static_cast<double>(log.events.size());

  Json layers;
  layers.Num("phase.setup_s", setup)
      .Num("phase.warmup_s", warmup - setup)
      .Num("phase.window_s", wall - warmup)
      .Num("ring.build_ms", Best(ring_s) * 1e3)
      .Num("mem.setup_peak_mib", setup_peak_mib)
      .Num("sim.events", static_cast<double>(full.events))
      .Num("sim.ns_per_event",
           (wall - setup) /
               static_cast<double>(full.events - first_setup.events) * 1e9)
      .Num("net.syn_drops", series.syn_drops)
      .Num("net.max_uplink_busy", s.max_uplink_busy)
      .Num("net.cross_rack_frac", s.cross_rack_frac)
      .Num("load.offered", static_cast<double>(s.offered))
      .Num("load.shed", static_cast<double>(s.shed))
      .Num("shard.shards_moved", s.shards_moved)
      .Num("shard.migration_mb", s.migration_mb)
      .Num("shard.migration_s", s.migration_s)
      .Num("hw.window_joules", s.window_joules)
      .Num("hw.cpu_busy_pct", a.workload == Workload::kWeb
                                  ? s.cpu_busy_pct
                                  : series.cpu_busy_pct)
      .Num("obs.telemetry_overhead_pct", telemetry_pct)
      .Num("obs.trace_events", trace_events)
      .Num("obs.trace_overhead_pct", 100.0 * trace_extra / wall)
      .Num("obs.ns_per_trace_event",
           trace_events > 0 ? trace_extra / trace_events * 1e9 : 0);
  const std::map<std::string, double> self = SpanSelfMs(log);
  for (const char* name : kSpanNames) {
    const std::string key = std::string("span.") + name + ".self_ms";
    const auto it = self.find(name);
    layers.Num(key.c_str(), it == self.end() ? 0 : it->second);
  }

  std::string files = "[]";
  if (!a.out_prefix.empty()) {
    const std::string host_path = a.out_prefix + "host_trace.json";
    const std::string sim_path = a.out_prefix + "sim_trace.json";
    if (!host.Write(host_path) ||
        !obs::WriteChromeTrace({log}, sim_path).ok()) {
      std::fprintf(stderr, "perfbench: cannot write %s*\n",
                   a.out_prefix.c_str());
      return 1;
    }
    files = "[\"" + host_path + "\", \"" + sim_path + "\"]";
  }

  std::printf(
      "%s\n",
      Json()
          .Str("job", "traced")
          .Raw("untraced", SimJson(full.sim, full.events, a.seed))
          .Raw("traced", SimJson(traced.sim, traced.events, a.seed))
          .Raw("energy", Json()
                             .Num("attributed", attributed)
                             .Num("unattributed", ledger.unattributed_joules)
                             .Num("total", ledger.total_joules)
                             .Num("window", ledger.window_joules)
                             .Done())
          .Raw("layers", layers.Done())
          .Raw("trace_files", files)
          .Raw("repro", repro)
          .Raw("host", HostJson())
          .Done()
          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  return args.job == "traced" ? RunTraced(args) : RunEndToEnd(args);
}
