// Background reproduction for the paper's §1/§2 framing: energy
// proportionality of the two platforms, and the software power-down
// strategies (Covering Set / All-In) the related work proposes as the
// alternative to wimpy hardware.
//
// Supports multi-seed sweeps: --replications=N reruns the power-down
// strategies (whose MapReduce jobs are seed-dependent) with independent
// seeds on --threads workers and reports mean±95% CI; the power-vs-load
// curves are deterministic, so their intervals collapse to ±0
// (docs/parallel.md). --trace/--metrics export per-load-point spans and
// node probes, plus per-strategy MapReduce task spans
// (docs/observability.md).
#include <cstdio>
#include <vector>

#include "bench_harness.h"
#include "common/bench_args.h"
#include "common/summary.h"
#include "common/table.h"
#include "core/powerdown.h"
#include "core/proportionality.h"
#include "hw/profiles.h"

namespace {

using namespace wimpy;

struct Cell {
  enum Kind { kCurve, kPowerDown } kind = kCurve;
  bool edison = false;  // kCurve only
};

struct CellResult {
  core::ProportionalityReport curve;           // kCurve
  std::vector<core::StrategyOutcome> strategies;  // kPowerDown
};

CellResult RunCell(const Cell& cell, Rng& root, bool want_trace,
                   bool want_metrics) {
  CellResult res;
  if (cell.kind == Cell::kCurve) {
    // Duty-cycled load on ideal hardware: deterministic, so the root
    // seed is unused and every replication is identical.
    res.curve = core::MeasureProportionality(
        cell.edison ? hw::EdisonProfile() : hw::DellR620Profile(),
        {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
        want_trace, want_metrics);
  } else {
    core::PowerDownOptions options;
    options.seed = root.Next();
    options.capture_trace = want_trace;
    options.capture_metrics = want_metrics;
    res.strategies = core::EvaluatePowerDown(
        core::PaperJob::kWordCount2, /*edison_cluster=*/true,
        /*total_nodes=*/8, /*covering_nodes=*/4, Hours(1), {}, options);
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = bench::ObsArgs(ParseBenchArgs(argc, argv),
                                        bench::ObsPlanes::kTraceMetrics);

  const std::vector<Cell> cells = {{Cell::kCurve, /*edison=*/false},
                                   {Cell::kCurve, /*edison=*/true},
                                   {Cell::kPowerDown}};

  const bool want_trace = !args.trace_path.empty();
  const bool want_metrics = !args.metrics_path.empty();
  bench::TimedSweep timed(args);
  auto sweep = timed.Run(cells, [&](const Cell& cell, Rng& root) {
    return RunCell(cell, root, want_trace, want_metrics);
  });

  // --- power-vs-load curves ----------------------------------------------
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (cells[c].kind != Cell::kCurve) continue;
    const core::ProportionalityReport& report = sweep[c][0].curve;
    const auto profile =
        cells[c].edison ? hw::EdisonProfile() : hw::DellR620Profile();
    TextTable table("Power vs load: " + profile.name);
    table.SetHeader({"Load", "Power", "P/Pbusy", "Ideal"});
    for (const auto& point : report.curve) {
      table.AddRow({TextTable::Num(100 * point.load, 0) + "%",
                    TextTable::Num(point.power, 2) + " W",
                    TextTable::Num(point.normalized, 2),
                    TextTable::Num(point.load, 2)});
    }
    table.Print();
    std::printf(
        "dynamic range %.2f, proportionality gap %.2f, EP %.2f\n\n",
        report.dynamic_range, report.proportionality_gap,
        report.ep_coefficient);
  }
  std::printf(
      "Paper §1: high-end servers burn ~half their peak power at idle —\n"
      "the Dell curve shows it; the Edison node is even flatter but its\n"
      "absolute waste is two orders of magnitude smaller.\n\n");

  // --- CS vs AIS vs always-on --------------------------------------------
  const auto& powerdown_reps = sweep.back();
  const std::size_t n_strategies = powerdown_reps[0].strategies.size();
  TextTable strategies(
      "Power-down strategies (wordcount2, one job per hour, 8 Edison / "
      "covering 4)");
  strategies.SetHeader({"Strategy", "Nodes", "Makespan s", "Energy/h J",
                        "MB/J"});
  for (std::size_t s = 0; s < n_strategies; ++s) {
    const core::StrategyOutcome& first = powerdown_reps[0].strategies[s];
    const MetricSummary makespan =
        SummarizeOver(powerdown_reps, [&](const CellResult& r) {
          return r.strategies[s].makespan;
        });
    const MetricSummary joules =
        SummarizeOver(powerdown_reps, [&](const CellResult& r) {
          return r.strategies[s].cluster_joules;
        });
    const MetricSummary mb_per_joule =
        SummarizeOver(powerdown_reps, [&](const CellResult& r) {
          return r.strategies[s].work_done_per_joule;
        });
    strategies.AddRow({first.strategy, std::to_string(first.active_nodes),
                       FormatMeanCI(makespan, 0), FormatMeanCI(joules, 0),
                       FormatMeanCI(mb_per_joule, 3)});
  }
  strategies.Print();
  std::printf(
      "\nShape (§2): both CS and AIS save versus always-on at low duty,\n"
      "at the price of wake latency and unavailability — the overheads\n"
      "that motivate attacking the problem in hardware instead.\n");

  // Flatten logs in [config][replication][sub-run] order: curve cells
  // contribute one log per load point, the power-down cell one per
  // strategy run.
  if (want_trace || want_metrics) {
    std::vector<obs::TraceLog> logs;
    std::vector<obs::MetricsSeries> series;
    for (auto& per_config : sweep) {
      for (auto& rep : per_config) {
        for (auto& log : rep.curve.point_traces) {
          logs.push_back(std::move(log));
        }
        for (auto& s : rep.curve.point_metrics) {
          series.push_back(std::move(s));
        }
        for (auto& outcome : rep.strategies) {
          if (want_trace) logs.push_back(std::move(outcome.trace));
          if (want_metrics) series.push_back(std::move(outcome.metrics));
        }
      }
    }
    bench::ExportObsLogs(args, logs, series);
  }
  timed.PrintFooter();
  return 0;
}
