// Open-loop SLO sweep (docs/openloop.md): arrival rate x burstiness x
// SLO bound on the small Edison and Dell web tiers, measured
// coordinated-omission-free. Each tier also runs one closed-loop
// reference cell at saturating concurrency so the output can show the
// divergence the open-loop engine exists to expose: past the knee the
// closed-loop p99 (measured from call dispatch) stays flat while the
// open-loop p99 (measured from intended arrival) keeps climbing.
//
// Shares the sweep flag surface (--replications/--threads/--seed,
// common/bench_args.h) plus two of its own:
//
//   --json=FILE      google-benchmark-compatible JSON (committed as
//                    BENCH_slo.json at --replications=1; ctest
//                    bench_slo_json_golden cmps a fresh capture against
//                    it). items_per_second is under-SLO completions per
//                    second for open-loop cells and achieved rps for the
//                    closed-loop references. Every field is simulated and
//                    deterministic, so any diff is a behavioral change.
//   --determinism    print per-replication final stats (a pure function
//                    of cells + seed) and exit; tools/check_trace.sh
//                    diffs this output at --threads=1 vs 8.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/bench_args.h"
#include "common/summary.h"
#include "common/table.h"
#include "load/openloop.h"
#include "web/service.h"
#include "web_bench_util.h"

namespace {

using namespace wimpy;
using bench::WebScale;

// Per-tier shape: the smallest scale-ladder rung of each platform, a
// nominal rate near its saturation knee (calibrated against the
// closed-loop reference cell's achieved rps), and the closed-loop
// concurrency that saturates it.
struct Tier {
  const char* tag;
  WebScale scale;
  double nominal_rps;
  double closed_concurrency;
  int max_outstanding;  // client-side gate: slots, then queue, then shed
  int queue_limit;
};

// Nominal rates sit just under each tier's measured open-loop capacity
// (closed-loop c=256 on 3 Edison reaps ~1010 rps; 1 Dell's open-loop
// ceiling is ~1090 rps — one fresh connection per request concentrates
// TIME_WAIT churn on the single server, the paper's Dell failure mode),
// so the 0.7x cells are comfortable and the 1.3x cells are past the knee.
std::vector<Tier> Tiers() {
  return {
      {"edison3", bench::EdisonScales().front(), 1000.0, 256, 512, 512},
      {"dell1", bench::DellScales().front(), 900.0, 512, 1024, 1024},
  };
}

struct Cell {
  std::string name;
  Tier tier;
  bool closed = false;   // closed-loop reference instead of open-loop
  double rate = 0;       // open-loop offered rps
  bool bursty = false;   // kMmpp (burstiness 8) vs kPoisson
  double slo_ms = 0;
};

// The sweep: per tier, rate {0.7x, 1.3x nominal} x {Poisson, MMPP-8} x
// SLO {100 ms, 400 ms}, plus the closed-loop saturation reference.
std::vector<Cell> BuildCells() {
  std::vector<Cell> cells;
  for (const Tier& tier : Tiers()) {
    for (double mult : {0.7, 1.3}) {
      for (bool bursty : {false, true}) {
        for (double slo_ms : {100.0, 400.0}) {
          Cell c;
          c.tier = tier;
          c.rate = mult * tier.nominal_rps;
          c.bursty = bursty;
          c.slo_ms = slo_ms;
          char buf[96];
          std::snprintf(buf, sizeof(buf), "%s_x%02.0f_%s_slo%.0f", tier.tag,
                        10 * mult, bursty ? "mmpp" : "pois", slo_ms);
          c.name = buf;
          cells.push_back(std::move(c));
        }
      }
    }
    Cell ref;
    ref.tier = tier;
    ref.closed = true;
    ref.name = std::string(tier.tag) + "_closed_c" +
               std::to_string(static_cast<int>(tier.closed_concurrency));
    cells.push_back(std::move(ref));
  }
  return cells;
}

struct CellResult {
  double offered_rps = 0;
  double achieved_rps = 0;
  double error_rate = 0;
  double shed = 0;
  double p99_service_ms = 0;   // dispatch -> completion (closed-loop view)
  double p99_intended_ms = 0;  // intended arrival -> completion (honest)
  double slo_good_fraction = 0;
  double slo_goodput_per_joule = 0;
  double power_w = 0;
  std::uint64_t events = 0;
};

CellResult RunCell(const Cell& cell, Rng& root) {
  web::WebTestbedConfig cfg = bench::TestbedConfig(cell.tier.scale);
  cfg.seed = root.Next();
  web::WebExperiment exp(std::move(cfg));
  CellResult res;
  if (cell.closed) {
    const web::LevelReport r = exp.MeasureClosedLoop(
        web::LightMix(), cell.tier.closed_concurrency,
        web::WebExperiment::TunedCallsPerConnection(
            cell.tier.closed_concurrency),
        bench::WarmupWindow(), bench::MeasureWindow());
    res.offered_rps = r.achieved_rps;  // closed loop offers what it reaps
    res.achieved_rps = r.achieved_rps;
    res.error_rate = r.error_rate;
    res.p99_service_ms = 1000 * r.p99_dispatch;
    res.p99_intended_ms = 1000 * r.p99_conn_intended;
    res.power_w = r.middle_tier_power;
    res.events = r.executed_events;
    return res;
  }
  load::OpenLoopConfig load_config;
  load_config.arrival.model =
      cell.bursty ? load::ArrivalModel::kMmpp : load::ArrivalModel::kPoisson;
  load_config.arrival.rate = cell.rate;
  load_config.arrival.burstiness = 8.0;
  load_config.max_outstanding = cell.tier.max_outstanding;
  load_config.queue_limit = cell.tier.queue_limit;
  load_config.slo = Milliseconds(cell.slo_ms);
  const web::OpenLoopReport r = exp.MeasureOpenLoop(
      web::LightMix(), load_config, bench::MeasureWindow());
  res.offered_rps = r.offered_rps;
  res.achieved_rps = r.achieved_rps;
  res.error_rate = r.error_rate;
  res.shed = static_cast<double>(r.shed);
  res.p99_service_ms = 1000 * r.p99_client;
  res.p99_intended_ms = 1000 * r.p99_intended;
  res.slo_good_fraction = r.slo_good_fraction;
  res.slo_goodput_per_joule = r.slo_goodput_per_joule;
  res.power_w = r.middle_tier_power;
  res.events = r.executed_events;
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
                                        bench::ObsPlanes::kNone);

  const std::vector<Cell> cells = BuildCells();
  const double measure_seconds = bench::MeasureWindow();
  bench::TimedSweep timed(args);
  auto sweep = timed.Run(cells, RunCell);

  if (determinism) {
    // Pure function of (cells, seed, replications); tools/check_trace.sh
    // requires this output byte-identical at --threads=1 vs 8.
    for (std::size_t c = 0; c < cells.size(); ++c) {
      for (std::size_t r = 0; r < sweep[c].size(); ++r) {
        const CellResult& res = sweep[c][r];
        std::printf(
            "BM_SloOpenLoop/%s rep=%zu offered=%.9g achieved=%.9g "
            "err=%.9g shed=%.9g p99_svc_ms=%.9g p99_int_ms=%.9g "
            "slo_good=%.9g sgpj=%.9g power=%.9g events=%llu\n",
            cells[c].name.c_str(), r, res.offered_rps, res.achieved_rps,
            res.error_rate, res.shed, res.p99_service_ms,
            res.p99_intended_ms, res.slo_good_fraction,
            res.slo_goodput_per_joule, res.power_w,
            static_cast<unsigned long long>(res.events));
      }
    }
    return 0;
  }

  for (const Tier& tier : Tiers()) {
    TextTable table(std::string("Open-loop SLO sweep — ") +
                    tier.scale.label +
                    " (p99 from intended arrival; sheds count against "
                    "SLO)");
    table.SetHeader({"Cell", "Offered rps", "Achieved", "Shed/s",
                     "p99 svc ms", "p99 honest ms", "SLO-good %",
                     "SLO-good/J", "Power W"});
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (std::strncmp(cells[c].name.c_str(), tier.tag,
                       std::strlen(tier.tag)) != 0) {
        continue;
      }
      const auto& reps = sweep[c];
      table.AddRow(
          {cells[c].name,
           FormatMeanCI(Over(reps, &CellResult::offered_rps), 0),
           FormatMeanCI(Over(reps, &CellResult::achieved_rps), 0),
           TextTable::Num(Over(reps, &CellResult::shed).mean /
                              measure_seconds, 1),
           FormatMeanCI(Over(reps, &CellResult::p99_service_ms), 1),
           FormatMeanCI(Over(reps, &CellResult::p99_intended_ms), 1),
           TextTable::Num(
               100 * Over(reps, &CellResult::slo_good_fraction).mean, 1),
           TextTable::Num(
               Over(reps, &CellResult::slo_goodput_per_joule).mean, 2),
           TextTable::Num(Over(reps, &CellResult::power_w).mean, 1)});
    }
    table.Print();
    std::printf("\n");
  }

  // The divergence check the bench exists for: on each tier compare the
  // overloaded (1.3x nominal, Poisson) open-loop honest p99 against the
  // closed-loop reference's dispatch-relative p99.
  for (const Tier& tier : Tiers()) {
    double open_p99 = 0, closed_p99 = 0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::string& n = cells[c].name;
      if (n == std::string(tier.tag) + "_x13_pois_slo100") {
        open_p99 = Over(sweep[c], &CellResult::p99_intended_ms).mean;
      }
      if (cells[c].closed && n.rfind(tier.tag, 0) == 0) {
        closed_p99 = Over(sweep[c], &CellResult::p99_service_ms).mean;
      }
    }
    std::printf(
        "%s past the knee: open-loop honest p99 %.1f ms vs closed-loop "
        "dispatch p99 %.1f ms (%.1fx) — %s\n",
        tier.scale.label.c_str(), open_p99, closed_p99,
        closed_p99 > 0 ? open_p99 / closed_p99 : 0.0,
        open_p99 > closed_p99
            ? "closed-loop coordination hides the difference"
            : "WARNING: expected open-loop p99 to exceed closed-loop");
  }
  std::printf(
      "\nShape: under 0.7x load the two views agree and SLO-good/J peaks;\n"
      "past the knee the closed loop self-throttles while the open loop\n"
      "queues and sheds, so honest p99 explodes, SLO-good %% collapses,\n"
      "and burstiness (MMPP) drags the knee earlier (docs/openloop.md).\n");
  timed.PrintFooter();

  if (json_path.empty()) return 0;
  std::vector<bench::BenchJsonRow> rows;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t r = 0; r < sweep[c].size(); ++r) {
      const CellResult& res = sweep[c][r];
      const double items = cells[c].closed
                               ? res.achieved_rps
                               : res.slo_good_fraction * res.offered_rps;
      rows.push_back(
          {"BM_SloOpenLoop/" + cells[c].name,
           static_cast<int>(r),
           measure_seconds,
           {bench::JsonFixed("items_per_second", items, 6),
            bench::JsonFixed("offered_rps", res.offered_rps, 6),
            bench::JsonFixed("shed", res.shed, 0),
            bench::JsonFixed("p99_service_ms", res.p99_service_ms, 6),
            bench::JsonFixed("p99_intended_ms", res.p99_intended_ms, 6),
            bench::JsonFixed("slo_good_fraction", res.slo_good_fraction, 6),
            bench::JsonFixed("slo_goodput_per_joule",
                             res.slo_goodput_per_joule, 6),
            bench::JsonFixed("power_w", res.power_w, 6),
            bench::JsonInt("events", static_cast<long long>(res.events))}});
    }
  }
  const std::vector<bench::JsonField> context = {
      bench::JsonString("executable", "bench_slo_openloop"),
      bench::JsonNumber("window_seconds", measure_seconds),
      bench::JsonInt("replications", args.replications),
      bench::JsonString(
          "note",
          "items_per_second = under-SLO completions per second (open-loop "
          "cells, coordinated-omission-free) or achieved rps (closed-loop "
          "references); simulated and deterministic for a given seed")};
  return bench::WriteBenchJson(json_path, context, rows) ? 0 : 1;
}
