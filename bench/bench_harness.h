// The shared harness of the bench mains (docs/observability.md,
// docs/parallel.md):
//
//   * ObsCapture — one replication's Tracer/MetricsRegistry/
//     EnergyAttributor/Telemetry, wired into an experiment config from the
//     export flags and taken back out as one ObsResult;
//   * ExportObs — writes every requested export from the per-replication
//     ObsResults in [config][replication] order, so exports are
//     byte-identical at any --threads;
//   * TimedSweep — RunSweep from --replications/--threads/--seed, timed
//     for the "Sweep:" footer;
//   * PeelFlag — a bench's own flags, removed before ParseBenchArgs;
//   * WriteBenchJson — the google-benchmark-compatible JSON the
//     regression gate reads.
#ifndef WIMPY_BENCH_BENCH_HARNESS_H_
#define WIMPY_BENCH_BENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bench_args.h"
#include "common/summary.h"
#include "obs/critical_path.h"
#include "obs/energy.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "sim/replication.h"

namespace wimpy::bench {

// -- Observation capture -----------------------------------------------

// One replication's observation logs.
struct ObsResult {
  obs::TraceLog trace;
  obs::MetricsSeries metrics;
  obs::EnergyLedger ledger;
  obs::TelemetrySeries telemetry;
  obs::AlertLog alerts;
};

// The export planes a bench records. ParseBenchArgs accepts every export
// flag, so a bench that does not record every plane passes its parsed
// args through ObsArgs before building captures or exporting: the flags
// of the planes it lacks export nothing, and each one given prints one
// stderr line saying so. Only the kv bench records the telemetry plane;
// it uses its parsed args as they are.
enum class ObsPlanes { kNone, kTraceMetrics, kWithSummary };

inline BenchArgs ObsArgs(BenchArgs args, ObsPlanes planes) {
  auto ignore = [](std::string& path, const char* flag) {
    if (path.empty()) return;
    std::fprintf(stderr, "warning: %s=%s ignored: this bench does not "
                 "record that plane\n", flag, path.c_str());
    path.clear();
  };
  if (planes == ObsPlanes::kNone) {
    ignore(args.trace_path, "--trace");
    ignore(args.metrics_path, "--metrics");
  }
  if (planes != ObsPlanes::kWithSummary) {
    ignore(args.trace_summary_path, "--trace-summary");
  }
  ignore(args.telemetry_path, "--telemetry");
  ignore(args.alerts_path, "--alerts");
  return args;
}

// Per-replication sinks for the export flags in `args`. Build one inside
// each replication (sim/replication.h: nothing is shared between
// replications), Wire it into the experiment config before the
// experiment is built, and Take the logs before the capture goes out of
// scope. --trace-summary implies trace recording: the per-trace roll-up
// is derived from the trace.
class ObsCapture {
 public:
  explicit ObsCapture(const BenchArgs& args)
      : trace_on_(!args.trace_path.empty() ||
                  !args.trace_summary_path.empty()),
        metrics_on_(!args.metrics_path.empty()),
        energy_on_(!args.trace_summary_path.empty()),
        telemetry_on_(args.WantTelemetry()) {}

  // Points the config's standard sink fields at this capture's sinks.
  // Configs without an `energy` or `telemetry` field record neither.
  template <typename Config>
  void Wire(Config& config) {
    if (trace_on_) config.tracer = &tracer;
    if (metrics_on_) config.metrics = &metrics;
    if constexpr (requires { config.energy; }) {
      if (energy_on_) config.energy = &energy;
    }
    if constexpr (requires { config.telemetry; }) {
      if (telemetry_on_) config.telemetry = &telemetry;
    }
  }

  // Moves every sink's log out; an unwired sink yields an empty log.
  ObsResult Take() {
    ObsResult out;
    out.trace = tracer.TakeLog();
    out.metrics = metrics.TakeSeries();
    out.ledger = energy.TakeLedger();
    out.telemetry = telemetry.TakeSeries();
    out.alerts = telemetry.TakeAlerts();
    return out;
  }

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::EnergyAttributor energy;
  obs::Telemetry telemetry;

 private:
  bool trace_on_;
  bool metrics_on_;
  bool energy_on_;
  bool telemetry_on_;
};

// Mean attributed millijoules per request in a replication's ledger:
// the sum of span-attributed joules divided by the number of distinct
// traces (requests) that accrued any. The same per-trace roll-up the
// --trace-summary CSV writes, collapsed to one number so the bench
// tables can print it as a column; 0 for an empty ledger.
inline double MeanRequestMillijoules(const obs::EnergyLedger& ledger) {
  double joules = 0;
  std::vector<std::uint64_t> traces;
  traces.reserve(ledger.rows.size());
  for (const obs::SpanEnergyRow& row : ledger.rows) {
    joules += row.joules;
    traces.push_back(row.trace_id);
  }
  std::sort(traces.begin(), traces.end());
  traces.erase(std::unique(traces.begin(), traces.end()), traces.end());
  if (traces.empty()) return 0;
  return 1000 * joules / static_cast<double>(traces.size());
}

// -- Export ------------------------------------------------------------

// Prints `written` on success, else "<what> export failed: <why>".
inline void ReportExport(const Status& st, const char* what,
                         const std::string& written) {
  if (st.ok()) {
    std::printf("%s\n", written.c_str());
  } else {
    std::fprintf(stderr, "%s export failed: %s\n", what,
                 st.message().c_str());
  }
}

// Writes already-flattened logs/series to the --trace/--metrics paths
// (benches whose observation is bespoke flatten their own sub-run logs).
inline void ExportObsLogs(const BenchArgs& args,
                          const std::vector<obs::TraceLog>& logs,
                          const std::vector<obs::MetricsSeries>& series) {
  if (!args.trace_path.empty()) {
    ReportExport(obs::WriteChromeTrace(logs, args.trace_path), "trace",
                 "Trace written to " + args.trace_path +
                     " (load at ui.perfetto.dev)");
  }
  if (!args.metrics_path.empty()) {
    ReportExport(obs::WriteMetricsCsv(series, args.metrics_path),
                 "metrics", "Metrics written to " + args.metrics_path);
  }
}

// Writes every export `args` requests from the runs, in run order:
// the --trace-summary roll-up (plus the --slo-ms line), the trace, the
// metrics, the telemetry rollups and the alerts.
inline void ExportObs(const BenchArgs& args, std::vector<ObsResult> runs) {
  const bool want_trace = !args.trace_path.empty();
  const bool want_metrics = !args.metrics_path.empty();
  const bool want_summary = !args.trace_summary_path.empty();
  std::vector<obs::TraceLog> logs;
  std::vector<obs::MetricsSeries> series;
  std::vector<obs::EnergyLedger> ledgers;
  std::vector<obs::TelemetrySeries> telemetry;
  std::vector<obs::AlertLog> alerts;
  for (ObsResult& run : runs) {
    if (want_trace || want_summary) logs.push_back(std::move(run.trace));
    if (want_metrics) series.push_back(std::move(run.metrics));
    if (want_summary) ledgers.push_back(std::move(run.ledger));
    if (args.WantTelemetry()) {
      telemetry.push_back(std::move(run.telemetry));
      alerts.push_back(std::move(run.alerts));
    }
  }
  if (want_summary) {
    const Duration slo = Milliseconds(args.slo_ms);
    const Status st = obs::WriteTraceSummaryCsv(
        logs, ledgers, args.trace_summary_path, slo);
    ReportExport(st, "trace summary",
                 "Trace summary written to " + args.trace_summary_path);
    if (slo > 0.0) {
      // The --slo-ms roll-up, re-derived from exports alone so it can be
      // cross-checked against any live report (docs/openloop.md).
      const obs::SloSummary s = obs::SummarizeSloGoodput(logs, ledgers, slo);
      std::printf(
          "SLO %.3g ms: %lld/%lld sampled window traces under bound, "
          "slo_goodput_per_joule=%.6g (window %.6g J)\n",
          args.slo_ms, static_cast<long long>(s.under_slo),
          static_cast<long long>(s.window_traces), s.slo_goodput_per_joule,
          s.window_joules);
    }
  }
  ExportObsLogs(args, logs, series);
  if (!args.telemetry_path.empty()) {
    ReportExport(obs::WriteTelemetryCsv(telemetry, args.telemetry_path),
                 "telemetry", "Telemetry written to " + args.telemetry_path);
  }
  if (!args.alerts_path.empty()) {
    ReportExport(obs::WriteAlertsCsv(alerts, args.alerts_path), "alerts",
                 "Alerts written to " + args.alerts_path);
  }
}

// A sweep's [config][replication] results, each carrying an
// `ObsResult obs` member, exported in that index order.
template <typename Result>
void ExportObs(const BenchArgs& args,
               std::vector<std::vector<Result>>& sweep) {
  std::vector<ObsResult> runs;
  for (auto& per_config : sweep) {
    for (Result& rep : per_config) runs.push_back(std::move(rep.obs));
  }
  ExportObs(args, std::move(runs));
}

// The first `n` events of a trace, one line each: the golden-trace
// prefix the --determinism outputs print (tools/check_trace.sh diffs them
// across --threads).
inline std::vector<std::string> TracePrefix(const obs::TraceLog& log,
                                            std::size_t n) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < std::min(n, log.events.size()); ++i) {
    const obs::TraceEvent& e = log.events[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%c %s t=%.9g track=%d arg=%lld ids=%llu/%llu/%llu",
                  e.phase, e.name, e.time, e.track,
                  static_cast<long long>(e.arg),
                  static_cast<unsigned long long>(e.trace_id),
                  static_cast<unsigned long long>(e.span_id),
                  static_cast<unsigned long long>(e.parent_id));
    lines.push_back(buf);
  }
  return lines;
}

// -- Sweeps ------------------------------------------------------------

// RunSweep over --replications/--threads/--seed, timed for the footer
// every sweep main prints last.
class TimedSweep {
 public:
  explicit TimedSweep(const BenchArgs& args)
      : plan_{args.replications, ResolvedThreads(args), args.seed} {}

  template <typename Cell, typename Replication>
  auto Run(const std::vector<Cell>& cells, Replication&& replication) {
    const auto t0 = std::chrono::steady_clock::now();
    auto sweep = sim::RunSweep(cells, plan_,
                               std::forward<Replication>(replication));
    seconds_ = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    configs_ = cells.size();
    return sweep;
  }

  void PrintFooter() const {
    std::printf(
        "\nSweep: %zu configs x %d replication(s) on %d thread(s) in "
        "%.2fs.\n",
        configs_, plan_.replications, plan_.threads, seconds_);
  }

 private:
  sim::SweepPlan plan_;
  std::size_t configs_ = 0;
  double seconds_ = 0;
};

// Mean±CI of one member over a cell's replications.
template <typename Result>
MetricSummary Over(const std::vector<Result>& reps, double Result::*member) {
  return SummarizeOver(reps, [&](const Result& r) { return r.*member; });
}

// -- Flags -------------------------------------------------------------

// Removes every occurrence of a bench's own flag from argv, before
// ParseBenchArgs, which exits(2) on anything it does not recognise. A
// `flag` ending in '=' takes the rest of the argument as its value (the
// last occurrence wins); a bare flag yields "". nullopt: flag absent.
inline std::optional<std::string> PeelFlag(int* argc, char** argv,
                                           std::string_view flag) {
  const bool takes_value = flag.ends_with('=');
  std::optional<std::string> value;
  int w = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg(argv[i]);
    if (takes_value ? arg.starts_with(flag) : arg == flag) {
      value = std::string(arg.substr(flag.size()));
      continue;
    }
    argv[w++] = argv[i];
  }
  *argc = w;
  return value;
}

// -- Bench JSON --------------------------------------------------------

// One `"key": value` pair, formatted when built so each bench keeps its
// own printf precision.
struct JsonField {
  std::string key;
  std::string value;  // JSON text: a number or a quoted string
};

inline JsonField JsonFixed(std::string key, double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return {std::move(key), buf};
}

inline JsonField JsonNumber(std::string key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return {std::move(key), buf};
}

inline JsonField JsonInt(std::string key, long long value) {
  return {std::move(key), std::to_string(value)};
}

inline JsonField JsonString(std::string key, const std::string& value) {
  return {std::move(key), "\"" + value + "\""};
}

// One benchmark entry: google-benchmark's fixed iteration fields, then
// the bench's own.
struct BenchJsonRow {
  std::string run_name;
  int repetition = 0;
  double real_time_s = 0;  // reported as both real_time and cpu_time
  std::vector<JsonField> fields;
};

// Writes a google-benchmark-compatible JSON document (the format
// tools/ab_verdict.py reads and the BENCH_*.json goldens use) and prints
// "wrote PATH". Returns false after an error line when the file cannot be
// opened.
inline bool WriteBenchJson(const std::string& path,
                           const std::vector<JsonField>& context,
                           const std::vector<BenchJsonRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"context\": {\n");
  for (std::size_t i = 0; i < context.size(); ++i) {
    std::fprintf(f, "    \"%s\": %s%s\n", context[i].key.c_str(),
                 context[i].value.c_str(),
                 i + 1 < context.size() ? "," : "");
  }
  std::fprintf(f, "  },\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchJsonRow& row = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"run_name\": \"%s\", "
                 "\"run_type\": \"iteration\", \"repetition_index\": %d, "
                 "\"iterations\": 1, \"real_time\": %.6f, "
                 "\"cpu_time\": %.6f, \"time_unit\": \"s\"",
                 row.run_name.c_str(), row.run_name.c_str(), row.repetition,
                 row.real_time_s, row.real_time_s);
    for (const JsonField& field : row.fields) {
      std::fprintf(f, ", \"%s\": %s", field.key.c_str(),
                   field.value.c_str());
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace wimpy::bench

#endif  // WIMPY_BENCH_BENCH_HARNESS_H_
