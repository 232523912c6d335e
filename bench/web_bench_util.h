// Shared helpers for the web-service bench binaries (Figures 4-11,
// Table 7): the paper's scale ladder and concurrency levels, and the
// httperf closed-loop cell (§5.1) that Figures 4-9 run under different
// workload mixes, with its table cells and the ladder sweep of Figures
// 4/7 and 6/9.
#ifndef WIMPY_BENCH_WEB_BENCH_UTIL_H_
#define WIMPY_BENCH_WEB_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/csv.h"
#include "common/summary.h"
#include "common/table.h"
#include "web/service.h"

namespace wimpy::bench {

// Table 6 scale ladder.
struct WebScale {
  std::string label;
  bool edison;
  int web_servers;
  int cache_servers;
};

inline std::vector<WebScale> EdisonScales() {
  return {{"3 Edison", true, 3, 2},
          {"6 Edison", true, 6, 3},
          {"12 Edison", true, 12, 6},
          {"24 Edison", true, 24, 11}};
}

inline std::vector<WebScale> DellScales() {
  return {{"1 Dell", false, 1, 1}, {"2 Dell", false, 2, 1}};
}

// The whole ladder: the Edison rungs, then the Dell rungs.
inline std::vector<WebScale> LadderScales() {
  std::vector<WebScale> scales = EdisonScales();
  for (const WebScale& s : DellScales()) scales.push_back(s);
  return scales;
}

// The paper's httperf x-axis.
inline std::vector<double> ConcurrencyLevels() {
  return {8, 16, 32, 64, 128, 256, 512, 1024, 2048};
}

inline web::WebTestbedConfig TestbedConfig(const WebScale& scale) {
  return scale.edison
             ? web::EdisonWebTestbed(scale.web_servers, scale.cache_servers)
             : web::DellWebTestbed(scale.web_servers, scale.cache_servers);
}

// Measurement windows: short by default so the whole bench suite stays
// fast; set WIMPY_FULL=1 for paper-length (3 minute) runs.
inline Duration MeasureWindow() {
  const char* full = std::getenv("WIMPY_FULL");
  return (full != nullptr && full[0] == '1') ? Seconds(180) : Seconds(8);
}
inline Duration WarmupWindow() {
  const char* full = std::getenv("WIMPY_FULL");
  return (full != nullptr && full[0] == '1') ? Seconds(20) : Seconds(2);
}

// High-concurrency levels need windows longer than TIME_WAIT (30 s) for
// connection-churn port exhaustion — the Dell cluster's failure mode — to
// reach steady state; short windows would understate it.
inline Duration MeasureWindowFor(double concurrency) {
  const Duration base = MeasureWindow();
  if (concurrency >= 1024 && base < Seconds(45)) return Seconds(45);
  return base;
}

// -- The closed-loop cell (Figures 4-9) --------------------------------

struct ClosedLoopCell {
  WebScale scale;
  double concurrency = 0;
  web::WorkloadMix mix;
};

struct ClosedLoopResult {
  double rps = 0;
  double error_rate = 0;
  double delay_ms = 0;
  double power = 0;
  double mj_per_req = 0;       // attributed, from the energy ledger
  double disp_p99_ms = 0;      // p99, service start -> completion
  double intended_p99_ms = 0;  // p99, connection intended -> completion
  ObsResult obs;
};

// One httperf run: `concurrency` connections at the paper's tuned calls
// per connection, with the exports `args` asks for.
inline ClosedLoopResult RunClosedLoopCell(const ClosedLoopCell& cell,
                                          Rng& root, const BenchArgs& args) {
  web::WebTestbedConfig cfg = TestbedConfig(cell.scale);
  cfg.seed = root.Next();
  ObsCapture capture(args);
  capture.Wire(cfg);
  web::WebExperiment exp(std::move(cfg));
  const web::LevelReport r = exp.MeasureClosedLoop(
      cell.mix, cell.concurrency,
      web::WebExperiment::TunedCallsPerConnection(cell.concurrency),
      WarmupWindow(), MeasureWindowFor(cell.concurrency));
  ClosedLoopResult res;
  res.rps = r.achieved_rps;
  res.error_rate = r.error_rate;
  res.delay_ms = 1000 * r.mean_response;
  res.power = r.middle_tier_power;
  res.disp_p99_ms = 1000 * r.p99_dispatch;
  res.intended_p99_ms = 1000 * r.p99_conn_intended;
  res.obs = capture.Take();
  res.mj_per_req = MeanRequestMillijoules(res.obs.ledger);
  return res;
}

using ClosedLoopReps = std::vector<ClosedLoopResult>;

// Requests/s mean±CI, with the error rate once it passes 1%.
inline std::string RpsCell(const ClosedLoopReps& reps) {
  const MetricSummary errors = Over(reps, &ClosedLoopResult::error_rate);
  std::string cell = FormatMeanCI(Over(reps, &ClosedLoopResult::rps), 0);
  if (errors.mean > 0.01) {
    cell += " (err " + TextTable::Num(100 * errors.mean, 0) + "%)";
  }
  return cell;
}

inline std::string DelayCell(const ClosedLoopReps& reps) {
  return FormatMeanCI(Over(reps, &ClosedLoopResult::delay_ms), 1);
}

// -- Coordinated-omission annotation (docs/openloop.md) ----------------
//
// With --omission the closed-loop Figure 4-9 benches append tables
// comparing the same completed calls' p99 measured two ways: from
// service start (dispatch) and from the connection's intended Poisson
// arrival. Default output stays byte-identical.

// One row per concurrency level, one column per label, reading the
// sweep's cells in order from `first`.
inline TextTable OmissionTable(const std::string& title,
                               const std::vector<std::string>& columns,
                               const std::vector<double>& levels,
                               const std::vector<ClosedLoopReps>& sweep,
                               std::size_t first) {
  TextTable table(title);
  std::vector<std::string> header{"Concurrency"};
  header.insert(header.end(), columns.begin(), columns.end());
  table.SetHeader(header);
  std::size_t idx = first;
  for (double conc : levels) {
    std::vector<std::string> row{TextTable::Num(conc, 0)};
    for (std::size_t i = 0; i < columns.size(); ++i) {
      const ClosedLoopReps& reps = sweep[idx++];
      row.push_back(
          TextTable::Num(Over(reps, &ClosedLoopResult::disp_p99_ms).mean,
                         1) +
          " / " +
          TextTable::Num(
              Over(reps, &ClosedLoopResult::intended_p99_ms).mean, 1));
    }
    table.AddRow(row);
  }
  return table;
}

inline void PrintOmissionNote() {
  std::printf(
      "Cells: p99 (ms) of the same completed calls measured from service\n"
      "start / from the connection's intended arrival. A growing gap is\n"
      "coordinated omission — the closed-loop driver stops offering load\n"
      "while it waits, so dispatch-relative tails understate what an\n"
      "open-loop client would see (bench_slo_openloop, docs/openloop.md).\n");
}

// -- The ladder figures (4/7 and 6/9) ----------------------------------

struct LadderFigure {
  web::WorkloadMix mix;
  const char* rps_title;
  const char* delay_title;
  const char* rps_csv;    // MaybeExportCsv names
  const char* delay_csv;
};

// Runs `fig.mix` over every (concurrency, LadderScales()) cell, row-major,
// and prints the throughput + cluster power table, the delay table and,
// with `omission`, the omission table. Returns the sweep for the
// figure's own lines and the export.
inline std::vector<ClosedLoopReps> RunWebLadder(const BenchArgs& args,
                                                bool omission,
                                                const LadderFigure& fig,
                                                TimedSweep& timed) {
  const std::vector<WebScale> scales = LadderScales();
  const std::vector<double> levels = ConcurrencyLevels();
  std::vector<ClosedLoopCell> cells;
  for (double conc : levels) {
    for (const WebScale& scale : scales) {
      cells.push_back({scale, conc, fig.mix});
    }
  }
  auto sweep =
      timed.Run(cells, [&](const ClosedLoopCell& cell, Rng& root) {
        return RunClosedLoopCell(cell, root, args);
      });

  const bool want_summary = !args.trace_summary_path.empty();
  TextTable rps(fig.rps_title);
  TextTable delay(fig.delay_title);
  std::vector<std::string> header{"Concurrency"};
  for (const WebScale& s : scales) header.push_back(s.label);
  header.push_back("Edison power (24)");
  header.push_back("Dell power (2)");
  // Per-request attributed energy columns ride along when the energy
  // ledger is being filled (--trace-summary).
  const std::size_t base_columns = header.size();
  if (want_summary) {
    header.push_back("Edison mJ/req (24)");
    header.push_back("Dell mJ/req (2)");
  }
  rps.SetHeader(header);
  delay.SetHeader(std::vector<std::string>(
      header.begin(), header.begin() + (base_columns - 2)));

  std::size_t cell_idx = 0;
  for (double conc : levels) {
    std::vector<std::string> rps_row{TextTable::Num(conc, 0)};
    std::vector<std::string> delay_row{TextTable::Num(conc, 0)};
    double edison_power = 0, dell_power = 0;
    double edison_mj = 0, dell_mj = 0;
    for (const WebScale& scale : scales) {
      const ClosedLoopReps& reps = sweep[cell_idx++];
      rps_row.push_back(RpsCell(reps));
      delay_row.push_back(DelayCell(reps));
      const double power = Over(reps, &ClosedLoopResult::power).mean;
      const double mj = Over(reps, &ClosedLoopResult::mj_per_req).mean;
      if (scale.label == "24 Edison") {
        edison_power = power;
        edison_mj = mj;
      }
      if (scale.label == "2 Dell") {
        dell_power = power;
        dell_mj = mj;
      }
    }
    rps_row.push_back(TextTable::Num(edison_power, 1) + " W");
    rps_row.push_back(TextTable::Num(dell_power, 1) + " W");
    if (want_summary) {
      rps_row.push_back(TextTable::Num(edison_mj, 2));
      rps_row.push_back(TextTable::Num(dell_mj, 2));
    }
    rps.AddRow(rps_row);
    delay.AddRow(delay_row);
  }
  rps.Print();
  MaybeExportCsv(rps, fig.rps_csv);
  std::printf("\n");
  delay.Print();
  MaybeExportCsv(delay, fig.delay_csv);

  if (omission) {
    std::vector<std::string> labels;
    for (const WebScale& s : scales) labels.push_back(s.label);
    std::printf("\n");
    OmissionTable(
        "Omission annotation: call p99 from dispatch / from connection "
        "arrival (ms)",
        labels, levels, sweep, 0)
        .Print();
    PrintOmissionNote();
  }
  return sweep;
}

}  // namespace wimpy::bench

#endif  // WIMPY_BENCH_WEB_BENCH_UTIL_H_
