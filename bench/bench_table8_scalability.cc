// Reproduces paper Table 8 and Figures 18/19: execution time and energy of
// all six MapReduce jobs across cluster sizes (35/17/8/4 Edison slaves,
// 2/1 Dell slaves), the per-job energy-efficiency ratios quoted in
// §5.2.1-5.2.4, and the §5.3 mean speed-up per cluster-size doubling.
//
// Supports multi-seed sweeps: --replications=N runs every cell N times
// with independent seeds on --threads workers and reports mean±95% CI
// (docs/parallel.md). The default single replication keeps the paper's
// one-run table shape.
#include <cstdio>
#include <map>
#include <vector>

#include "bench_harness.h"
#include "common/bench_args.h"
#include "common/csv.h"
#include "common/summary.h"
#include "common/table.h"
#include "core/experiments.h"

namespace {

using namespace wimpy;
using core::PaperJob;

// One sweep configuration: a (job, platform, cluster size) cell.
struct Cell {
  PaperJob job;
  bool edison;
  int slaves;
};

struct CellResult {
  double elapsed = 0;
  double joules = 0;
};

CellResult RunCell(const Cell& cell, Rng& root) {
  mapreduce::MrClusterConfig cfg = cell.edison
                                       ? mapreduce::EdisonMrCluster(cell.slaves)
                                       : mapreduce::DellMrCluster(cell.slaves);
  cfg.seed = root.Next();
  const auto r = core::RunPaperJob(cell.job, cfg);
  return {r.job.elapsed, r.slave_joules};
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = bench::ObsArgs(ParseBenchArgs(argc, argv),
                                        bench::ObsPlanes::kNone);

  const std::vector<int> edison_sizes = {35, 17, 8, 4};
  const std::vector<int> dell_sizes = {2, 1};

  // Paper Table 8 reference, (seconds, joules), for the printout.
  const std::map<std::string, std::vector<std::string>> paper = {
      {"wordcount", {"310s,17670J", "1065s,29485J", "1817s,23673J",
                     "3283s,21386J", "213s,40214J", "310s,30552J"}},
      {"wordcount2", {"182s,10370J", "270s,7475J", "450s,5862J",
                      "1192s,7765J", "66s,11695J", "93s,8124J"}},
      {"logcount", {"279s,15903J", "601s,16860J", "990s,12898J",
                    "2233s,14546J", "206s,40803J", "516s,53303J"}},
      {"logcount2", {"115s,6555J", "118s,3267J", "125s,1629J",
                     "162s,1055J", "59s,9486J", "88s,6905J"}},
      {"pi", {"200s,11445J", "334s,9247J", "577s,7517J", "1076s,7009J",
              "50s,9285J", "77s,6878J"}},
      {"terasort", {"750s,43440J", "1364s,37763J", "3736s,48675J",
                    "8220s,53547J", "331s,64210J", "1336s,111422J"}},
  };

  // Sweep grid: jobs × (edison sizes + dell sizes), row-major per job so
  // the result vector maps straight back onto the table rows.
  std::vector<Cell> cells;
  for (PaperJob job : core::AllPaperJobs()) {
    for (int n : edison_sizes) cells.push_back({job, true, n});
    for (int n : dell_sizes) cells.push_back({job, false, n});
  }

  bench::TimedSweep timed(args);
  const auto sweep = timed.Run(cells, RunCell);

  TextTable table("Table 8: execution time and energy vs cluster size");
  std::vector<std::string> header{"Job"};
  for (int n : edison_sizes) header.push_back(std::to_string(n) + " Edison");
  for (int n : dell_sizes) header.push_back(std::to_string(n) + " Dell");
  table.SetHeader(header);

  std::map<std::string, double> edison_full_joules, dell_full_joules;
  std::map<std::string, std::vector<std::pair<int, Duration>>>
      edison_ladder, dell_ladder;

  const int per_job = static_cast<int>(edison_sizes.size() + dell_sizes.size());
  int cell_idx = 0;
  for (PaperJob job : core::AllPaperJobs()) {
    const std::string name(core::PaperJobName(job));
    std::vector<std::string> row{name};
    std::vector<std::string> paper_row{"  (paper)"};
    for (int i = 0; i < per_job; ++i, ++cell_idx) {
      const Cell& cell = cells[cell_idx];
      const auto& reps = sweep[cell_idx];
      const MetricSummary elapsed =
          SummarizeOver(reps, [](const CellResult& r) { return r.elapsed; });
      const MetricSummary joules =
          SummarizeOver(reps, [](const CellResult& r) { return r.joules; });
      row.push_back(FormatMeanCI(elapsed, 0) + "s," + FormatMeanCI(joules, 0) +
                    "J");
      if (cell.edison) {
        if (cell.slaves == 35) edison_full_joules[name] = joules.mean;
        edison_ladder[name].push_back({cell.slaves, elapsed.mean});
      } else {
        if (cell.slaves == 2) dell_full_joules[name] = joules.mean;
        dell_ladder[name].push_back({cell.slaves, elapsed.mean});
      }
    }
    table.AddRow(row);
    auto it = paper.find(name);
    if (it != paper.end()) {
      for (const auto& cell : it->second) paper_row.push_back(cell);
      table.AddRow(paper_row);
    }
  }
  table.Print();
  MaybeExportCsv(table, "table8");

  TextTable eff("Energy-efficiency ratios (35 Edison vs 2 Dell)");
  eff.SetHeader({"Job", "Measured", "Paper"});
  const std::map<std::string, std::string> paper_eff = {
      {"wordcount", "2.28x"}, {"wordcount2", "1.11x"},
      {"logcount", "2.57x"},  {"logcount2", "1.45x"},
      {"pi", "0.77x (Dell wins)"}, {"terasort", "1.48x"}};
  for (const auto& [name, e_joules] : edison_full_joules) {
    const double ratio =
        core::EnergyEfficiencyRatio(e_joules, dell_full_joules[name]);
    eff.AddRow({name, TextTable::Ratio(ratio, 2),
                paper_eff.count(name) ? paper_eff.at(name) : ""});
  }
  std::printf("\n");
  eff.Print();

  // §5.3: mean speed-up per cluster doubling.
  double edison_speedup = 0, dell_speedup = 0;
  for (const auto& [name, ladder] : edison_ladder) {
    edison_speedup += core::MeanSpeedupPerDoubling(ladder);
  }
  for (const auto& [name, ladder] : dell_ladder) {
    dell_speedup += core::MeanSpeedupPerDoubling(ladder);
  }
  edison_speedup /= static_cast<double>(edison_ladder.size());
  dell_speedup /= static_cast<double>(dell_ladder.size());
  std::printf(
      "\nFigure 18/19 summary — mean speed-up per cluster-size doubling:\n"
      "Edison %.2f (paper 1.90), Dell %.2f (paper 2.07).\n",
      edison_speedup, dell_speedup);
  std::printf(
      "Paper shapes: Edison wins energy on every job except pi; combining\n"
      "inputs (wordcount2/logcount2) helps Dell far more than Edison;\n"
      "light jobs scale worst (logcount2's small-cluster runs use the\n"
      "least total energy).\n");
  timed.PrintFooter();
  return 0;
}
