// Tests the paper's §1 advantage 2: "Individual node failure has far less
// significant impact on micro clusters than on high-end clusters", and the
// [29]-based observation that brawny cores degrade worse once the
// redistributed load passes the sustainable point.
//
// One web server is killed mid-run on each platform at a load near the
// Dell pair's knee; throughput, error rate and latency are compared before
// and after.
//
// Supports multi-seed sweeps: --replications=N reruns each platform's
// failure scenario with independent seeds on --threads workers and
// reports mean±95% CI (docs/parallel.md). --trace/--metrics export
// sampled connection spans and node/service probes
// (docs/observability.md).
#include <cstdio>
#include <vector>

#include "bench_harness.h"
#include "common/bench_args.h"
#include "common/summary.h"
#include "common/table.h"
#include "web/service.h"

namespace {

using namespace wimpy;

struct Cell {
  const char* label = "";
  bool edison = true;
  double concurrency = 0;
};

struct CellResult {
  double rps_before = 0;
  double rps_after = 0;
  double err_before = 0;
  double err_after = 0;
  double delay_before_ms = 0;
  double delay_after_ms = 0;
  bench::ObsResult obs;
};

CellResult RunCell(const Cell& cell, Rng& root, const BenchArgs& args) {
  web::WebTestbedConfig cfg = cell.edison ? web::EdisonWebTestbed(24, 11)
                                          : web::DellWebTestbed(2, 1);
  cfg.seed = root.Next();
  bench::ObsCapture capture(args);
  capture.Wire(cfg);
  web::WebExperiment exp(std::move(cfg));
  const auto report = exp.MeasureWithFailure(
      web::LightMix(), cell.concurrency, 10, /*failed_servers=*/1,
      Seconds(4), Seconds(20));
  CellResult res;
  res.rps_before = report.before.achieved_rps;
  res.rps_after = report.after.achieved_rps;
  res.err_before = 100 * report.before.error_rate;
  res.err_after = 100 * report.after.error_rate;
  res.delay_before_ms = 1000 * report.before.mean_response;
  res.delay_after_ms = 1000 * report.after.mean_response;
  res.obs = capture.Take();
  return res;
}

using bench::Over;

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = bench::ObsArgs(ParseBenchArgs(argc, argv),
                                        bench::ObsPlanes::kTraceMetrics);

  const std::vector<Cell> cells = {
      {"24 Edison (lose 1/24)", true, 450},
      {"2 Dell (lose 1/2)", false, 450},
  };

  bench::TimedSweep timed(args);
  auto sweep = timed.Run(cells, [&](const Cell& cell, Rng& root) {
    return RunCell(cell, root, args);
  });

  TextTable table("Web tier resilience: one server killed mid-run");
  table.SetHeader({"Cluster", "rps before", "rps after", "err before %",
                   "err after %", "delay before ms", "delay after ms"});
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const auto& reps = sweep[c];
    table.AddRow(
        {cells[c].label,
         FormatMeanCI(Over(reps, &CellResult::rps_before), 0),
         FormatMeanCI(Over(reps, &CellResult::rps_after), 0),
         FormatMeanCI(Over(reps, &CellResult::err_before), 1),
         FormatMeanCI(Over(reps, &CellResult::err_after), 1),
         FormatMeanCI(Over(reps, &CellResult::delay_before_ms), 1),
         FormatMeanCI(Over(reps, &CellResult::delay_after_ms), 1)});
  }
  table.Print();

  std::printf(
      "\nShape: the Edison fleet absorbs a 4%% load shift; the surviving\n"
      "Dell inherits 100%% extra offered load at its knee — latency and\n"
      "errors jump, the QoS cliff of Janapa Reddi et al. [29].\n");
  bench::ExportObs(args, sweep);
  timed.PrintFooter();
  return 0;
}
