// Sharded scale-out bench (docs/sharding.md): the consistent-hash KV
// tier on the rack → agg → core hierarchical topology, swept over
// replication factor, rack oversubscription, mid-run membership churn,
// and a 24-node / 100k-query scale cell. Reports in-window goodput, p99,
// power, queries/joule, the cross-rack replica fraction, the hottest
// uplink's busy fraction, and the rebalance cost (shards moved, bytes
// streamed, migration seconds) for the churn cells.
//
// Shares the sweep flag surface (--replications/--threads/--seed/--trace/
// --metrics/--trace-summary, common/bench_args.h) plus two of its own:
//
//   --json=FILE      google-benchmark-compatible JSON (committed as
//                    BENCH_shard.json at --replications=1; ctest
//                    bench_shard_json_golden cmps a fresh capture against
//                    it). items_per_second is the cell's in-window goodput
//                    qps; every field is simulated and deterministic, so
//                    any diff is a behavioral change. The
//                    oversubscription cells are where the throughput
//                    curve visibly bends.
//   --determinism    print per-replication final stats plus a golden
//                    trace prefix (a pure function of cells + seed) and
//                    exit; tools/check_trace.sh diffs this output at
//                    --threads=1 vs 8.
//
// Exports: query trees are sampled 1-in-64 ("query" → "shard_hop" →
// get/put/replicate → per-hop net spans); migration runs are always
// traced ("migration" → per-shard "shard_move" → migrate_batch/catchup/
// cutover), so tools/trace_analyze.py decomposes cross-rack time and
// rebalance cost from the same file (the seed-77 golden pins both).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/bench_args.h"
#include "common/summary.h"
#include "common/table.h"
#include "shard/experiment.h"

namespace {

using namespace wimpy;

constexpr double kMeasureSeconds = 10.0;

struct Cell {
  const char* name;  // run_name suffix, e.g. 12n_R2_O4
  int racks = 3;
  int nodes_per_rack = 4;
  int replication = 2;
  double oversubscription = 4.0;
  double get_fraction = 0.90;
  shard::Churn churn = shard::Churn::kNone;
  double qps = 2500.0;
};

// The sweep: replication at fixed fabric, then the write-heavy
// oversubscription curve (where the uplinks saturate and goodput bends),
// then live churn, then the 24-node cell whose window holds 100k queries.
std::vector<Cell> BuildCells() {
  std::vector<Cell> cells;
  for (int r : {1, 2, 3}) {
    Cell c;
    c.name = r == 1 ? "12n_R1_O4" : (r == 2 ? "12n_R2_O4" : "12n_R3_O4");
    c.replication = r;
    cells.push_back(c);
  }
  for (double o : {1.0, 4.0, 32.0}) {
    Cell c;
    c.name = o == 1.0 ? "12n_R2_O1_wr"
                      : (o == 4.0 ? "12n_R2_O4_wr" : "12n_R2_O32_wr");
    c.oversubscription = o;
    c.get_fraction = 0.2;  // chain replication pounds the uplinks
    c.qps = 8000.0;
    cells.push_back(c);
  }
  {
    Cell c;
    c.name = "12n_R2_O4_join";
    c.churn = shard::Churn::kJoin;
    cells.push_back(c);
    c.name = "12n_R2_O4_leave";
    c.churn = shard::Churn::kLeave;
    cells.push_back(c);
  }
  {
    Cell c;  // 6 racks x 6 nodes in 3 pods; 10k qps x 10 s = 100k queries
    c.name = "36n_R2_O4";
    c.racks = 6;
    c.nodes_per_rack = 6;
    c.qps = 10000.0;
    cells.push_back(c);
  }
  return cells;
}

struct CellResult {
  double goodput_qps = 0;
  double achieved_qps = 0;
  double error_rate = 0;
  double mean_lat_ms = 0;
  double p99_lat_ms = 0;
  double power_w = 0;
  double queries_per_joule = 0;
  double cross_rack_pct = 0;
  double uplink_busy = 0;
  double core_busy = 0;
  double migration_shards = 0;
  double migration_mb = 0;
  double migration_s = 0;
  std::uint64_t events = 0;
  bench::ObsResult obs;
  std::vector<std::string> trace_prefix;  // --determinism only
};

CellResult RunCell(const Cell& cell, Rng& root, const BenchArgs& args,
                   bool determinism) {
  shard::ShardExperimentConfig config;
  config.racks = cell.racks;
  config.nodes_per_rack = cell.nodes_per_rack;
  config.ring.replication = cell.replication;
  config.rack_oversubscription = cell.oversubscription;
  config.get_fraction = cell.get_fraction;
  config.churn = cell.churn;
  config.seed = root.Next();
  bench::ObsCapture capture(args);
  capture.Wire(config);
  if (determinism) config.tracer = &capture.tracer;
  shard::ShardExperiment exp(std::move(config));
  const shard::ShardReport r =
      exp.Measure(cell.qps, Seconds(kMeasureSeconds));
  CellResult res;
  res.goodput_qps = r.goodput_qps;
  res.achieved_qps = r.achieved_qps;
  res.error_rate = r.error_rate;
  res.mean_lat_ms = 1000 * r.mean_latency;
  res.p99_lat_ms = 1000 * r.p99_latency;
  res.power_w = r.store_power;
  res.queries_per_joule = r.queries_per_joule;
  res.cross_rack_pct = 100 * r.cross_rack_replica_fraction;
  res.uplink_busy = r.max_rack_uplink_busy;
  res.core_busy = r.max_core_link_busy;
  res.migration_shards = static_cast<double>(r.migration.shards_moved);
  res.migration_mb =
      static_cast<double>(r.migration.bulk_bytes +
                          r.migration.catchup_bytes) /
      (1024.0 * 1024.0);
  res.migration_s = r.migration.done ? r.migration.duration() : 0.0;
  res.events = r.executed_events;
  res.obs = capture.Take();
  if (determinism) {
    const obs::TraceLog log = std::move(res.obs.trace);
    res.trace_prefix = bench::TracePrefix(log, 32);
    res.trace_prefix.push_back(
        "trace_events=" + std::to_string(log.events.size()));
  }
  return res;
}

using bench::Over;

}  // namespace

int main(int argc, char** argv) {
  // This bench's own flags, peeled before the shared parser.
  const std::string json_path =
      bench::PeelFlag(&argc, argv, "--json=").value_or("");
  const bool determinism =
      bench::PeelFlag(&argc, argv, "--determinism").has_value();
  const BenchArgs args = bench::ObsArgs(ParseBenchArgs(argc, argv),
                                        bench::ObsPlanes::kWithSummary);

  const std::vector<Cell> cells = BuildCells();
  bench::TimedSweep timed(args);
  auto sweep = timed.Run(cells, [&](const Cell& cell, Rng& root) {
    return RunCell(cell, root, args, determinism);
  });

  if (determinism) {
    // Pure function of (cells, seed, replications): per-replication final
    // stats plus the sampled trace prefix. tools/check_trace.sh requires
    // this output byte-identical at --threads=1 vs 8.
    for (std::size_t c = 0; c < cells.size(); ++c) {
      for (std::size_t r = 0; r < sweep[c].size(); ++r) {
        const CellResult& res = sweep[c][r];
        std::printf(
            "BM_ShardScaleout/%s rep=%zu goodput=%.9g achieved=%.9g "
            "err=%.9g p99_ms=%.9g qpj=%.9g xrack=%.9g busy=%.9g "
            "mig_shards=%.9g mig_mb=%.9g mig_s=%.9g events=%llu\n",
            cells[c].name, r, res.goodput_qps, res.achieved_qps,
            res.error_rate, res.p99_lat_ms, res.queries_per_joule,
            res.cross_rack_pct, res.uplink_busy, res.migration_shards,
            res.migration_mb, res.migration_s,
            static_cast<unsigned long long>(res.events));
        for (std::size_t i = 0; i < res.trace_prefix.size(); ++i) {
          std::printf("BM_ShardScaleout/%s rep=%zu trace[%zu]: %s\n",
                      cells[c].name, r, i, res.trace_prefix[i].c_str());
        }
      }
    }
    return 0;
  }

  TextTable table(
      "Sharded KV scale-out over the hierarchical topology (10 s windows)");
  table.SetHeader({"Cell", "R", "Oversub", "Offered", "Goodput",
                   "p99 ms", "Power W", "Queries/J", "x-rack %",
                   "Uplink busy", "Moved", "Mig MB", "Mig s"});
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    const auto& reps = sweep[c];
    table.AddRow({cell.name, TextTable::Num(cell.replication, 0),
                  TextTable::Num(cell.oversubscription, 0),
                  TextTable::Num(cell.qps, 0),
                  FormatMeanCI(Over(reps, &CellResult::goodput_qps), 0),
                  FormatMeanCI(Over(reps, &CellResult::p99_lat_ms), 2),
                  FormatMeanCI(Over(reps, &CellResult::power_w), 1),
                  FormatMeanCI(Over(reps, &CellResult::queries_per_joule), 0),
                  FormatMeanCI(Over(reps, &CellResult::cross_rack_pct), 0),
                  FormatMeanCI(Over(reps, &CellResult::uplink_busy), 2),
                  FormatMeanCI(Over(reps, &CellResult::migration_shards), 0),
                  FormatMeanCI(Over(reps, &CellResult::migration_mb), 1),
                  FormatMeanCI(Over(reps, &CellResult::migration_s), 2)});
  }
  table.Print();

  std::printf(
      "\nShape: replication buys failover for a linear cross-rack "
      "bandwidth tax;\nwrite-heavy load at 32x oversubscription saturates "
      "the rack uplinks and\nbends the goodput curve while p99 blows out; "
      "a join/leave mid-run streams\nits shards over the same fabric and "
      "commits with zero failed requests.\n");
  bench::ExportObs(args, sweep);
  timed.PrintFooter();

  if (json_path.empty()) return 0;
  std::vector<bench::BenchJsonRow> rows;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t r = 0; r < sweep[c].size(); ++r) {
      const CellResult& res = sweep[c][r];
      rows.push_back(
          {std::string("BM_ShardScaleout/") + cells[c].name,
           static_cast<int>(r),
           kMeasureSeconds,
           {bench::JsonFixed("items_per_second", res.goodput_qps, 6),
            bench::JsonFixed("p99_ms", res.p99_lat_ms, 6),
            bench::JsonFixed("queries_per_joule", res.queries_per_joule, 6),
            bench::JsonFixed("error_rate", res.error_rate, 6),
            bench::JsonFixed("cross_rack_pct", res.cross_rack_pct, 3),
            bench::JsonFixed("max_rack_uplink_busy", res.uplink_busy, 6),
            bench::JsonFixed("migration_shards", res.migration_shards, 0),
            bench::JsonFixed("migration_mb", res.migration_mb, 3),
            bench::JsonFixed("migration_seconds", res.migration_s, 6),
            bench::JsonInt("events", static_cast<long long>(res.events))}});
    }
  }
  const std::vector<bench::JsonField> context = {
      bench::JsonString("executable", "bench_shard_scaleout"),
      bench::JsonNumber("window_seconds", kMeasureSeconds),
      bench::JsonInt("replications", args.replications),
      bench::JsonString(
          "note",
          "items_per_second = in-window goodput qps (simulated, "
          "deterministic for a given seed); the O1/O4/O32 write-heavy "
          "cells trace the oversubscription throughput bend")};
  return bench::WriteBenchJson(json_path, context, rows) ? 0 : 1;
}
