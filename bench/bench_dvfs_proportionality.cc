// Tests the paper's §1 claim that DVFS-based energy proportionality
// underdelivers: "even if the CPU power consumption is proportional to
// workload, other components ... still consume the same energy", with best
// cases around 30% savings [26].
//
// We run a Dell node through a utilisation sweep with three governors and
// report whole-node energy; then contrast the proportionality gap with the
// Edison alternative at equal work.
//
// Supports the shared sweep flags: the duty cells are deterministic (no
// random streams), so --replications only tightens the ±0 intervals, but
// --threads still parallelises the grid and --trace/--metrics export a
// per-cell "duty" span plus per-second node probes
// (docs/parallel.md, docs/observability.md).
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_harness.h"
#include "common/bench_args.h"
#include "common/summary.h"
#include "common/table.h"
#include "hw/dvfs.h"
#include "hw/profiles.h"
#include "sim/process.h"

namespace {

using namespace wimpy;

struct Cell {
  enum Kind { kDuty, kEdisonWork } kind = kDuty;
  double duty = 0;
  bool ondemand = false;
};

struct CellResult {
  double joules = 0;
  double elapsed_s = 0;
  bench::ObsResult obs;
};

// Runs a duty-cycled single-core load for 200 s and returns joules.
CellResult RunDuty(const hw::HardwareProfile& profile,
                   hw::GovernorPolicy* policy, double duty,
                   bool want_trace, bool want_metrics) {
  sim::Scheduler sched;
  hw::ServerNode node(&sched, profile, 0);
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  if (want_metrics) {
    node.PublishMetrics(&registry, "node");
    registry.Start(&sched);
  }
  if (want_trace) {
    tracer.BeginSpanAt(0, "duty", obs::Category::kApp, /*track=*/0,
                       static_cast<std::int64_t>(100 * duty));
  }
  std::unique_ptr<hw::DvfsGovernor> governor;
  if (policy != nullptr) {
    governor = std::make_unique<hw::DvfsGovernor>(
        &node, hw::DefaultDvfsConfig(*policy));
    governor->Start();
  }
  auto loop = [](hw::ServerNode& n, double d) -> sim::Process {
    for (int i = 0; i < 20; ++i) {
      if (d > 0) {
        co_await n.Compute(n.cpu().spec().dmips_per_thread * 10.0 * d);
      }
      co_await sim::Delay(n.scheduler(), 10.0 * (1.0 - d));
    }
  };
  sim::Spawn(sched, loop(node, duty));
  sched.Run(/*until=*/200.0);
  if (governor != nullptr) governor->Stop();
  if (want_metrics) {
    registry.Stop();
    registry.SampleNow();
  }
  if (want_trace) {
    tracer.EndSpanAt(sched.now(), "duty", obs::Category::kApp,
                     /*track=*/0, static_cast<std::int64_t>(100 * duty));
  }
  CellResult res;
  res.joules = node.power().CumulativeJoules();
  sched.Run();
  res.elapsed_s = sched.now();
  if (want_trace) res.obs.trace = tracer.TakeLog();
  if (want_metrics) res.obs.metrics = registry.TakeSeries();
  return res;
}

// The same work on Edison: equal instructions to 0.5 duty x 200 s on one
// Dell thread, both Edison cores busy.
CellResult RunEdisonEqualWork(bool want_trace, bool want_metrics) {
  const auto edison = hw::EdisonProfile();
  sim::Scheduler sched;
  hw::ServerNode node(&sched, edison, 0);
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  if (want_metrics) {
    node.PublishMetrics(&registry, "node");
    registry.Start(&sched);
  }
  if (want_trace) {
    tracer.BeginSpanAt(0, "equal_work", obs::Category::kApp, /*track=*/0);
  }
  // The registry must stop itself when the work completes: its periodic
  // tick would otherwise keep the scheduler alive forever under a
  // horizonless Run().
  auto burn = [](hw::ServerNode& n, obs::MetricsRegistry* reg,
                 bool sampling) -> sim::Process {
    // Same Minstr as 0.5 duty x 200 s on one Dell thread.
    co_await n.Compute(11383.0 * 100.0 / 2.0);
    co_await n.Compute(11383.0 * 100.0 / 2.0);
    if (sampling) {
      reg->Stop();
      reg->SampleNow();
    }
  };
  sim::Spawn(sched, burn(node, &registry, want_metrics));
  sched.Run();
  if (want_trace) {
    tracer.EndSpanAt(sched.now(), "equal_work", obs::Category::kApp,
                     /*track=*/0);
  }
  CellResult res;
  res.joules = node.power().CumulativeJoules();
  res.elapsed_s = sched.now();
  if (want_trace) res.obs.trace = tracer.TakeLog();
  if (want_metrics) res.obs.metrics = registry.TakeSeries();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = bench::ObsArgs(ParseBenchArgs(argc, argv),
                                        bench::ObsPlanes::kTraceMetrics);
  const auto dell = hw::DellR620Profile();

  const std::vector<double> duties = {0.0, 0.1, 0.3, 0.5, 0.9};
  // (fixed, ondemand) per duty, then the Edison equal-work contrast.
  std::vector<Cell> cells;
  for (double duty : duties) {
    cells.push_back({Cell::kDuty, duty, /*ondemand=*/false});
    cells.push_back({Cell::kDuty, duty, /*ondemand=*/true});
  }
  cells.push_back({Cell::kEdisonWork});

  const bool want_trace = !args.trace_path.empty();
  const bool want_metrics = !args.metrics_path.empty();
  bench::TimedSweep timed(args);
  auto sweep = timed.Run(cells, [&](const Cell& cell, Rng& root) {
    (void)root;  // the duty cells are deterministic by construction
    if (cell.kind == Cell::kEdisonWork) {
      return RunEdisonEqualWork(want_trace, want_metrics);
    }
    hw::GovernorPolicy ondemand = hw::GovernorPolicy::kOndemand;
    return RunDuty(dell, cell.ondemand ? &ondemand : nullptr, cell.duty,
                   want_trace, want_metrics);
  });

  TextTable table(
      "DVFS proportionality on a Dell R620 (200 s, one-core duty cycle)");
  table.SetHeader({"CPU duty", "Fixed freq", "Ondemand", "Saving",
                   "Ideal proportional"});
  for (std::size_t d = 0; d < duties.size(); ++d) {
    const double duty = duties[d];
    const MetricSummary fixed = SummarizeOver(
        sweep[2 * d], [](const CellResult& r) { return r.joules; });
    const MetricSummary scaled = SummarizeOver(
        sweep[2 * d + 1], [](const CellResult& r) { return r.joules; });
    // A perfectly proportional server would draw busy power only while
    // working and nothing otherwise.
    const double core_fraction =
        dell.cpu.dmips_per_thread / dell.cpu.total_dmips();
    const Joules ideal =
        duty * 200.0 *
        (dell.power.idle +
         (dell.power.busy - dell.power.idle) * 0.65 * core_fraction);
    table.AddRow({TextTable::Num(100 * duty, 0) + "%",
                  FormatMeanCI(fixed, 0) + " J",
                  FormatMeanCI(scaled, 0) + " J",
                  TextTable::Num(100 * (1 - scaled.mean / fixed.mean), 1) +
                      "%",
                  TextTable::Num(ideal, 0) + " J"});
  }
  table.Print();

  // Dell 0.5-duty fixed is cell index 6 in the grid above.
  const MetricSummary dell_work = SummarizeOver(
      sweep[6], [](const CellResult& r) { return r.joules; });
  const MetricSummary edison_work = SummarizeOver(
      sweep.back(), [](const CellResult& r) { return r.joules; });
  const MetricSummary edison_time = SummarizeOver(
      sweep.back(), [](const CellResult& r) { return r.elapsed_s; });
  std::printf(
      "\nSame instruction count, one Edison node (both cores): %.0f J over "
      "%.0f s vs Dell fixed-frequency %.0f J — the architectural route to "
      "efficiency dwarfs the DVFS route (paper §1).\n",
      edison_work.mean, edison_time.mean, dell_work.mean);
  bench::ExportObs(args, sweep);
  timed.PrintFooter();
  return 0;
}
