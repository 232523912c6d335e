// Daily-energy comparison under a diurnal load curve — connecting the
// paper's §6 utilisation bounds to simulated 24-hour operation. The Dell
// tier pays its flat power curve all night; the Edison tier's energy
// follows load much more closely in absolute terms.
//
// Supports multi-seed sweeps: --replications=N replays the whole day per
// tier with independent seeds on --threads workers; hourly and daily
// figures report mean±95% CI (docs/parallel.md). --trace/--metrics export
// one log per sampled hour — each hour runs on a fresh testbed, so each
// hour is its own trace pid / metrics series (docs/observability.md).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/bench_args.h"
#include "common/summary.h"
#include "common/table.h"
#include "core/diurnal.h"

namespace {

using namespace wimpy;

constexpr int kSamples = 8;

struct Cell {
  const char* name = "";
  bool edison = true;
};

struct CellResult {
  core::DailyReport report;
};

CellResult RunCell(const Cell& cell, Rng& root,
                   const core::DiurnalPattern& pattern, bool want_trace,
                   bool want_metrics) {
  web::WebTestbedConfig config = cell.edison
                                     ? web::EdisonWebTestbed(24, 11)
                                     : web::DellWebTestbed(2, 1);
  config.seed = root.Next();
  CellResult res;
  res.report = core::MeasureDailyEnergy(config, pattern, kSamples,
                                        want_trace, want_metrics);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = bench::ObsArgs(ParseBenchArgs(argc, argv),
                                        bench::ObsPlanes::kTraceMetrics);

  core::DiurnalPattern pattern;
  pattern.peak_rps = 7000;
  pattern.trough_fraction = 0.25;

  const std::vector<Cell> cells = {
      {"35 Edison (24 web + 11 cache)", true},
      {"3 Dell (2 web + 1 cache)", false},
  };

  const bool want_trace = !args.trace_path.empty();
  const bool want_metrics = !args.metrics_path.empty();
  bench::TimedSweep timed(args);
  auto sweep = timed.Run(cells, [&](const Cell& cell, Rng& root) {
    return RunCell(cell, root, pattern, want_trace, want_metrics);
  });

  for (std::size_t c = 0; c < cells.size(); ++c) {
    const auto& reps = sweep[c];
    TextTable table(std::string("Diurnal day on ") + cells[c].name);
    table.SetHeader({"Hour", "Offered rps", "Served rps", "Power W"});
    const auto& hours = reps[0].report.hours;
    for (std::size_t h = 0; h < hours.size(); ++h) {
      const MetricSummary served =
          SummarizeOver(reps, [&](const CellResult& r) {
            return r.report.hours[h].achieved_rps;
          });
      const MetricSummary power =
          SummarizeOver(reps, [&](const CellResult& r) {
            return r.report.hours[h].power;
          });
      table.AddRow({TextTable::Num(hours[h].hour, 1),
                    TextTable::Num(hours[h].offered_rps, 0),
                    FormatMeanCI(served, 0), FormatMeanCI(power, 1)});
    }
    table.Print();
    const MetricSummary requests =
        SummarizeOver(reps, [](const CellResult& r) {
          return r.report.daily_requests;
        });
    const MetricSummary kilojoules =
        SummarizeOver(reps, [](const CellResult& r) {
          return r.report.daily_joules / 1000.0;
        });
    const MetricSummary rpj = SummarizeOver(reps, [](const CellResult& r) {
      return r.report.requests_per_joule;
    });
    std::printf("daily: %.2e requests, %s kJ, %s requests/J\n\n",
                requests.mean, FormatMeanCI(kilojoules, 0).c_str(),
                FormatMeanCI(rpj, 1).c_str());
  }

  std::printf(
      "Shape: the Edison tier's ~3.5x efficiency at peak widens further\n"
      "across a whole day because its idle floor is 49 W against the\n"
      "Dell trio's 156 W (Table 3), while serving the same requests.\n");

  // Flatten per-hour logs in [config][replication][hour] order — the
  // deterministic merge order — so exports are byte-identical at any
  // --threads.
  if (want_trace || want_metrics) {
    std::vector<obs::TraceLog> logs;
    std::vector<obs::MetricsSeries> series;
    for (auto& per_config : sweep) {
      for (auto& rep : per_config) {
        for (auto& log : rep.report.hour_traces) {
          logs.push_back(std::move(log));
        }
        for (auto& s : rep.report.hour_metrics) {
          series.push_back(std::move(s));
        }
      }
    }
    bench::ExportObsLogs(args, logs, series);
  }
  timed.PrintFooter();
  return 0;
}
