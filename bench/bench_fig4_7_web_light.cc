// Reproduces paper Figures 4 & 7 (plus Table 6): web-service throughput,
// response delay and cluster power versus httperf concurrency under the
// lightest workload (0% image queries, 93% cache hit ratio), across the
// scale ladder of 3/6/12/24 Edison and 1/2 Dell web servers.
//
// Supports multi-seed sweeps: --replications=N runs every
// (concurrency, scale) cell N times with independent seeds on --threads
// workers and reports mean±95% CI (docs/parallel.md).
#include <cstdio>

#include "bench_harness.h"
#include "common/bench_args.h"
#include "common/table.h"
#include "web_bench_util.h"

int main(int argc, char** argv) {
  using namespace wimpy;
  const bool omission = bench::PeelFlag(&argc, argv, "--omission").has_value();
  const BenchArgs args = bench::ObsArgs(ParseBenchArgs(argc, argv),
                                        bench::ObsPlanes::kWithSummary);

  TextTable config("Table 6: Cluster configuration and scale factor");
  config.SetHeader({"Cluster size", "Full", "1/2", "1/4", "1/8"});
  config.AddRow({"# Edison web servers", "24", "12", "6", "3"});
  config.AddRow({"# Edison cache servers", "11", "6", "3", "2"});
  config.AddRow({"# Dell web servers", "2", "1", "N/A", "N/A"});
  config.AddRow({"# Dell cache servers", "1", "1", "N/A", "N/A"});
  config.Print();
  std::printf("\n");

  bench::TimedSweep timed(args);
  auto sweep = bench::RunWebLadder(
      args, omission,
      {web::LightMix(),
       "Figure 4: requests/sec vs concurrency (0% image, 93% cache) + "
       "cluster power",
       "Figure 7: mean response delay (ms) vs concurrency",
       "fig4_throughput", "fig7_delay"},
      timed);

  std::printf(
      "\nPaper shapes to check: peak rps of 24 Edison ~= 2 Dell; rps\n"
      "scales linearly down the Edison ladder; Edison errors appear\n"
      "beyond 1024 concurrency while Dell survives to 2048 with reduced\n"
      "throughput; Edison cluster power ~56-58 W vs Dell 170-200 W ->\n"
      "~3.5x work-done-per-joule at peak; Edison delay ~5x Dell's at low\n"
      "concurrency but Dell's delay explodes past its knee.\n");
  bench::ExportObs(args, sweep);
  timed.PrintFooter();
  return 0;
}
