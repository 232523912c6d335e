// Reproduces paper Figures 5 & 8: throughput and delay on the full
// clusters (24 Edison / 2 Dell web servers) when the workload is heavier —
// cache hit ratio lowered to 77% / 60%, or image queries raised to
// 6% / 10%.
//
// Supports multi-seed sweeps: --replications=N runs every
// (platform, concurrency, mix) cell N times with independent seeds on
// --threads workers and reports mean±95% CI (docs/parallel.md).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/bench_args.h"
#include "common/summary.h"
#include "common/table.h"
#include "web_bench_util.h"

int main(int argc, char** argv) {
  using namespace wimpy;
  using bench::ClosedLoopResult;
  using bench::WebScale;
  const bool omission = bench::PeelFlag(&argc, argv, "--omission").has_value();
  const BenchArgs args = bench::ObsArgs(ParseBenchArgs(argc, argv),
                                        bench::ObsPlanes::kWithSummary);

  struct MixCase {
    std::string label;
    web::WorkloadMix mix;
  };
  const std::vector<MixCase> cases = {
      {"cache=77%", web::MixWithCacheRatio(0.77)},
      {"cache=60%", web::MixWithCacheRatio(0.60)},
      {"img=6%", web::MixWithImagePercent(0.06)},
      {"img=10%", web::MixWithImagePercent(0.10)},
  };
  std::vector<std::string> labels;
  for (const auto& c : cases) labels.push_back(c.label);
  const std::vector<WebScale> scales = {bench::EdisonScales().back(),
                                        bench::DellScales().back()};
  const std::vector<double> levels = bench::ConcurrencyLevels();

  // Grid in print order: platform, then concurrency, then mix.
  std::vector<bench::ClosedLoopCell> cells;
  for (const auto& scale : scales) {
    for (double conc : levels) {
      for (const auto& c : cases) cells.push_back({scale, conc, c.mix});
    }
  }

  bench::TimedSweep timed(args);
  auto sweep =
      timed.Run(cells, [&](const bench::ClosedLoopCell& cell, Rng& root) {
        return bench::RunClosedLoopCell(cell, root, args);
      });

  const bool want_summary = !args.trace_summary_path.empty();
  std::size_t cell_idx = 0;
  for (const auto& scale : scales) {
    const std::size_t scale_base = cell_idx;
    TextTable rps(std::string("Figure 5: requests/sec — ") + scale.label +
                  " web servers");
    TextTable delay(std::string("Figure 8: mean delay (ms) — ") +
                    scale.label + " web servers");
    std::vector<std::string> header{"Concurrency"};
    header.insert(header.end(), labels.begin(), labels.end());
    delay.SetHeader(header);
    // Per-request attributed energy columns (one per mix) ride along
    // when the energy ledger is being filled (--trace-summary).
    if (want_summary) {
      for (const auto& label : labels) header.push_back(label + " mJ/req");
    }
    rps.SetHeader(header);

    for (double conc : levels) {
      std::vector<std::string> rps_row{TextTable::Num(conc, 0)};
      std::vector<std::string> delay_row{TextTable::Num(conc, 0)};
      std::vector<std::string> mj_cells;
      for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto& reps = sweep[cell_idx++];
        rps_row.push_back(bench::RpsCell(reps));
        delay_row.push_back(bench::DelayCell(reps));
        mj_cells.push_back(TextTable::Num(
            bench::Over(reps, &ClosedLoopResult::mj_per_req).mean, 2));
      }
      if (want_summary) {
        rps_row.insert(rps_row.end(), mj_cells.begin(), mj_cells.end());
      }
      rps.AddRow(rps_row);
      delay.AddRow(delay_row);
    }
    rps.Print();
    std::printf("\n");
    delay.Print();
    std::printf("\n");

    if (omission) {
      bench::OmissionTable(
          std::string("Omission annotation — ") + scale.label +
              ": call p99 from dispatch / from connection arrival (ms)",
          labels, levels, sweep, scale_base)
          .Print();
      std::printf("\n");
    }
  }
  if (omission) bench::PrintOmissionNote();

  std::printf(
      "Paper shapes: peak throughput at 512 concurrency changes little\n"
      "across these mixes, but the 1024-concurrency point drops sharply\n"
      "as image share rises, and delays roughly double even at low\n"
      "concurrency when images are in the mix.\n");
  bench::ExportObs(args, sweep);
  timed.PrintFooter();
  return 0;
}
