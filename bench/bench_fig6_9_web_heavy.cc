// Reproduces paper Figures 6 & 9: the heaviest fair workload (20% image
// queries, 93% cache hit ratio — the fraction that half-fills an Edison
// NIC so neither room uplink biases the comparison) across the full scale
// ladder, with cluster power.
//
// Supports multi-seed sweeps: --replications=N runs every
// (concurrency, scale) cell N times with independent seeds on --threads
// workers and reports mean±95% CI (docs/parallel.md).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/bench_args.h"
#include "web_bench_util.h"

int main(int argc, char** argv) {
  using namespace wimpy;
  using bench::ClosedLoopResult;
  const bool omission = bench::PeelFlag(&argc, argv, "--omission").has_value();
  const BenchArgs args = bench::ObsArgs(ParseBenchArgs(argc, argv),
                                        bench::ObsPlanes::kWithSummary);

  bench::TimedSweep timed(args);
  auto sweep = bench::RunWebLadder(
      args, omission,
      {web::HeavyMix(),
       "Figure 6: requests/sec vs concurrency (20% image, 93% cache) + "
       "cluster power",
       "Figure 9: mean response delay (ms) vs concurrency",
       "fig6_throughput", "fig9_delay"},
      timed);

  // Work done per joule at each full cluster's error-free peak.
  const std::vector<bench::WebScale> scales = bench::LadderScales();
  double edison_peak = 0, dell_peak = 0;
  double edison_peak_power = 0, dell_peak_power = 0;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const std::string& label = scales[i % scales.size()].label;
    const double rate = bench::Over(sweep[i], &ClosedLoopResult::rps).mean;
    const double errors =
        bench::Over(sweep[i], &ClosedLoopResult::error_rate).mean;
    const double power = bench::Over(sweep[i], &ClosedLoopResult::power).mean;
    if (errors > 0.01) continue;
    if (label == "24 Edison" && rate > edison_peak) {
      edison_peak = rate;
      edison_peak_power = power;
    }
    if (label == "2 Dell" && rate > dell_peak) {
      dell_peak = rate;
      dell_peak_power = power;
    }
  }
  if (edison_peak_power > 0 && dell_peak_power > 0 && dell_peak > 0) {
    const double edison_eff = edison_peak / edison_peak_power;
    const double dell_eff = dell_peak / dell_peak_power;
    std::printf(
        "\nWork-done-per-joule at peak: Edison %.1f req/J vs Dell %.1f "
        "req/J -> %.2fx (paper: ~3.5x).\n",
        edison_eff, dell_eff, edison_eff / dell_eff);
  }
  std::printf(
      "Paper shapes: overall rps is ~85%% of the lightest workload's; the\n"
      "half Edison cluster can no longer survive 1024 concurrency; Edison\n"
      "drops from slightly ahead of Dell to slightly behind, but the\n"
      "3.5x energy-efficiency edge persists.\n");
  bench::ExportObs(args, sweep);
  timed.PrintFooter();
  return 0;
}
