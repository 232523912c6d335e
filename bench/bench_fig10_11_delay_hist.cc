// Reproduces paper Figures 10 & 11: the client-perceived response-delay
// distribution at ~6000 req/s under the heaviest workload (20% image),
// measured by open-loop python-style clients that open a fresh connection
// per request. The Dell histogram spikes at 1 s / 3 s / 7 s — dropped SYNs
// retransmitted on the exponential backoff schedule — while the 24-Edison
// cluster, with 12x the connection-setup resources, shows far fewer
// reconnects.
//
// Supports multi-seed sweeps: --replications=N runs each platform N times
// with independent seeds on --threads workers, reports the scalar metrics
// as mean±95% CI and merges the per-replication histograms into one
// distribution (docs/parallel.md, docs/observability.md).
#include <cstdio>

#include "bench_harness.h"
#include "common/bench_args.h"
#include "common/summary.h"
#include "web_bench_util.h"

namespace {

using namespace wimpy;

constexpr double kTargetRps = 6000;

struct Cell {
  bool edison = true;
};

struct CellResult {
  double target_rps = 0;
  double achieved_rps = 0;
  double error_rate = 0;
  double mean_delay_ms = 0;
  LinearHistogram hist{0.0, web::kDelayHistogramMaxS,
                       web::kDelayHistogramBuckets};
  bench::ObsResult obs;
};

CellResult RunCell(const Cell& cell, Rng& root, const BenchArgs& args) {
  web::WebTestbedConfig cfg = bench::TestbedConfig(
      cell.edison ? bench::EdisonScales().back() : bench::DellScales().back());
  cfg.seed = root.Next();
  bench::ObsCapture capture(args);
  capture.Wire(cfg);
  web::WebExperiment exp(std::move(cfg));
  const web::OpenLoopReport r =
      exp.MeasureOpenLoop(web::HeavyMix(), kTargetRps, bench::MeasureWindow());
  CellResult res;
  res.target_rps = r.target_rps;
  res.achieved_rps = r.achieved_rps;
  res.error_rate = r.error_rate;
  res.mean_delay_ms = 1000 * r.client_delay.mean();
  res.hist = r.delay_histogram;
  res.obs = capture.Take();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = bench::ObsArgs(ParseBenchArgs(argc, argv),
                                        bench::ObsPlanes::kTraceMetrics);

  const std::vector<Cell> cells = {{true}, {false}};
  bench::TimedSweep timed(args);
  auto sweep = timed.Run(cells, [&](const Cell& cell, Rng& root) {
    return RunCell(cell, root, args);
  });

  for (std::size_t c = 0; c < cells.size(); ++c) {
    const bool edison = cells[c].edison;
    const auto& reps = sweep[c];
    const MetricSummary achieved = SummarizeOver(
        reps, [](const CellResult& r) { return r.achieved_rps; });
    const MetricSummary errors = SummarizeOver(
        reps, [](const CellResult& r) { return 100 * r.error_rate; });
    const MetricSummary delay = SummarizeOver(
        reps, [](const CellResult& r) { return r.mean_delay_ms; });

    std::printf("== Figure %d: delay distribution on %s cluster ==\n",
                edison ? 10 : 11, edison ? "Edison" : "Dell");
    std::printf(
        "target %.0f req/s, achieved %s req/s, error rate %s%%, mean "
        "client delay %s ms\n",
        kTargetRps, FormatMeanCI(achieved, 0).c_str(),
        FormatMeanCI(errors, 1).c_str(), FormatMeanCI(delay, 0).c_str());
    // One distribution over all replications: histograms merge exactly
    // because every replication uses identical bucket edges.
    LinearHistogram merged{0.0, web::kDelayHistogramMaxS,
                           web::kDelayHistogramBuckets};
    for (const CellResult& r : reps) merged.Merge(r.hist);
    std::fputs(merged.ToAscii(46).c_str(), stdout);
    std::printf("\n");
  }

  std::printf(
      "Paper shapes: Edison shows a larger *average* delay but a compact\n"
      "distribution; Dell's histogram has secondary spikes near 1, 3 and\n"
      "7 seconds (SYN retransmission backoff), because ~3000 fresh\n"
      "connections/sec funnel into only 2 servers' accept queues.\n");
  bench::ExportObs(args, sweep);
  timed.PrintFooter();
  return 0;
}
