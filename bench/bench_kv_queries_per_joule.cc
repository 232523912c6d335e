// Related-work reproduction: FAWN-style key-value serving, queries per
// joule (FAWN [21] and its workloads paper [50] motivate the whole
// wimpy-node agenda; the paper's Table 1 lists FAWN as the other
// sensor-class system). Compares Edison and Dell tiers at matched offered
// load and at each tier's own saturation point.
//
// Supports multi-seed sweeps: --replications=N reruns every (qps,
// platform) cell — and the failover scenario — with independent seeds on
// --threads workers and reports mean±95% CI (docs/parallel.md). --trace /
// --metrics export sampled query spans and per-store node probes;
// --trace-summary adds the per-query latency/joules roll-up CSV
// (docs/observability.md). --telemetry / --alerts turn on the online
// telemetry plane (docs/telemetry.md): rollup-bucket and alert-instant
// CSVs. Telemetry runs use a bounded client admission gate (256
// outstanding, 512 queued) so the overloaded cells actually shed — the
// incident the shed/burn-rate alert rules exist to catch; combine with
// --slo-ms to arm the SLO rules.
#include <cstdio>

#include "bench_harness.h"
#include "common/bench_args.h"
#include "common/summary.h"
#include "common/table.h"
#include "hw/profiles.h"
#include "kv/experiment.h"

namespace {

using namespace wimpy;

struct Cell {
  double qps = 0;
  bool edison = true;
  bool failover = false;
};

struct CellResult {
  double achieved_qps = 0;
  double error_rate = 0;
  double mean_lat_ms = 0;
  double p99_lat_ms = 0;
  double power_w = 0;
  double queries_per_joule = 0;
  double mj_per_query = 0;  // attributed, from the energy ledger
  bench::ObsResult obs;
};

kv::KvExperimentConfig BaseConfig(bool edison) {
  kv::KvExperimentConfig config;
  config.node_profile =
      edison ? hw::EdisonProfile() : hw::DellR620Profile();
  // NIC rule of thumb: 10 Edisons per Dell.
  config.node_count = edison ? 10 : 1;
  return config;
}

CellResult RunCell(const Cell& cell, Rng& root, const BenchArgs& args) {
  kv::KvExperimentConfig config = BaseConfig(cell.edison);
  if (cell.failover) config.replication = 2;
  config.seed = root.Next();
  bench::ObsCapture capture(args);
  capture.Wire(config);
  if (args.WantTelemetry()) {
    // The SLO bound arms the burn-rate/p99/shed rules in the experiment
    // wiring. Telemetry also needs a gate so sheds exist to alert on.
    if (args.slo_ms > 0) config.openloop.slo = Milliseconds(args.slo_ms);
    config.openloop.max_outstanding = 256;
    config.openloop.queue_limit = 512;
  }
  kv::KvExperiment exp(std::move(config));
  const kv::KvReport r =
      cell.failover
          ? exp.MeasureWithFailover(cell.qps, /*failed_nodes=*/2,
                                    Seconds(12))
          : exp.Measure(cell.qps, Seconds(12));
  CellResult res;
  res.achieved_qps = r.achieved_qps;
  res.error_rate = r.error_rate;
  res.mean_lat_ms = 1000 * r.mean_latency;
  res.p99_lat_ms = 1000 * r.p99_latency;
  res.power_w = r.store_power;
  res.queries_per_joule = r.queries_per_joule;
  res.obs = capture.Take();
  res.mj_per_query = bench::MeanRequestMillijoules(res.obs.ledger);
  return res;
}

using bench::Over;

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);

  // The (qps, platform) grid rows, then the failover scenario as the
  // last cell so exports stay in table order.
  std::vector<Cell> cells;
  for (double qps : {500.0, 2000.0, 8000.0}) {
    for (bool is_edison : {true, false}) {
      cells.push_back({qps, is_edison, /*failover=*/false});
    }
  }
  cells.push_back({2000.0, /*edison=*/true, /*failover=*/true});

  bench::TimedSweep timed(args);
  auto sweep = timed.Run(cells, [&](const Cell& cell, Rng& root) {
    return RunCell(cell, root, args);
  });
  const bool want_summary = !args.trace_summary_path.empty();

  TextTable table("FAWN-style key-value serving (90% GET, 1 KB values)");
  // The attributed-energy column rides along when the energy ledger is
  // being filled (--trace-summary).
  std::vector<std::string> header{"Deployment",  "Offered qps", "Achieved",
                                  "Mean lat ms", "p99 lat ms",  "Power W",
                                  "Queries/J"};
  if (want_summary) header.push_back("mJ/query");
  table.SetHeader(header);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    if (cell.failover) continue;
    const auto& reps = sweep[c];
    std::vector<std::string> row{
        cell.edison ? "10x Edison" : "1x Dell R620",
        TextTable::Num(cell.qps, 0),
        FormatMeanCI(Over(reps, &CellResult::achieved_qps), 0),
        FormatMeanCI(Over(reps, &CellResult::mean_lat_ms), 2),
        FormatMeanCI(Over(reps, &CellResult::p99_lat_ms), 2),
        FormatMeanCI(Over(reps, &CellResult::power_w), 1),
        FormatMeanCI(Over(reps, &CellResult::queries_per_joule), 0)};
    if (want_summary) {
      row.push_back(FormatMeanCI(Over(reps, &CellResult::mj_per_query), 2));
    }
    table.AddRow(row);
  }
  table.Print();

  // FAWN's fault-tolerance column: replication 2 with mid-run failures.
  const auto& failover_reps = sweep.back();
  std::printf(
      "\nFailover (replication 2, 2 of 10 nodes crash mid-run): "
      "%s/%.0f qps served, %s%% dropped, mean %s ms.\n",
      FormatMeanCI(Over(failover_reps, &CellResult::achieved_qps), 0)
          .c_str(),
      cells.back().qps,
      FormatMeanCI(SummarizeOver(failover_reps,
                                 [](const CellResult& r) {
                                   return 100 * r.error_rate;
                                 }),
                   1)
          .c_str(),
      FormatMeanCI(Over(failover_reps, &CellResult::mean_lat_ms), 1)
          .c_str());

  std::printf(
      "\nShape (FAWN's thesis): the wimpy tier matches the brawny tier's\n"
      "throughput at a fraction of the power, so queries-per-joule is\n"
      "several-fold higher — consistent with this paper's web results;\n"
      "and the ring absorbs node failures with no visible outage.\n");
  bench::ExportObs(args, sweep);
  timed.PrintFooter();
  return 0;
}
