#include "core/proportionality.h"

#include <algorithm>

#include "hw/server_node.h"
#include "sim/process.h"

namespace wimpy::core {

namespace {

// Drives every hardware thread at `load` utilisation via short duty
// cycles for `duration` seconds.
sim::Process DriveLoad(hw::ServerNode& node, double load,
                       Duration duration) {
  const double period = 1.0;
  const int cycles = static_cast<int>(duration / period);
  const int threads = node.cpu().vcores();
  for (int c = 0; c < cycles; ++c) {
    if (load > 0) {
      std::vector<sim::ProcessRef> refs;
      for (int t = 0; t < threads; ++t) {
        auto burn = [](hw::ServerNode& n, double work) -> sim::Process {
          co_await n.Compute(work);
        };
        refs.push_back(sim::SpawnJoinable(
            node.scheduler(),
            burn(node,
                 node.cpu().spec().dmips_per_thread * period * load)));
      }
      for (auto& ref : refs) co_await ref.Join();
    }
    // Sleep out the remainder of this duty period.
    const Duration rest = (c + 1) * period - node.scheduler().now();
    if (rest > 0) co_await sim::Delay(node.scheduler(), rest);
  }
}

}  // namespace

ProportionalityReport MeasureProportionality(
    const hw::HardwareProfile& profile, const std::vector<double>& loads,
    bool capture_trace, bool capture_metrics) {
  ProportionalityReport report;
  report.idle_power = profile.power.idle;
  report.busy_power = profile.power.busy;
  report.dynamic_range =
      (profile.power.busy - profile.power.idle) / profile.power.busy;

  constexpr Duration kWindow = Seconds(60);
  double gap_sum = 0;
  int point_index = 0;
  for (double load : loads) {
    sim::Scheduler sched;
    hw::ServerNode node(&sched, profile, 0);
    // Per-point sinks: each point's node registers fresh probes, so the
    // registry must not outlive its scheduler.
    obs::Tracer tracer;
    obs::MetricsRegistry registry;
    if (capture_metrics) {
      node.PublishMetrics(&registry, "node");
      registry.Start(&sched);
    }
    if (capture_trace) {
      tracer.BeginSpanAt(0, "load_point", obs::Category::kApp,
                         /*track=*/0, point_index);
    }
    sim::Spawn(sched, DriveLoad(node, std::clamp(load, 0.0, 1.0),
                                kWindow));
    sched.Run(kWindow);
    if (capture_metrics) {
      registry.Stop();
      registry.SampleNow();
    }
    if (capture_trace) {
      tracer.EndSpanAt(sched.now(), "load_point", obs::Category::kApp,
                       /*track=*/0, point_index);
    }
    PowerCurvePoint point;
    point.load = load;
    point.power = node.power().CumulativeJoules() / kWindow;
    point.normalized = point.power / profile.power.busy;
    report.curve.push_back(point);
    gap_sum += point.normalized - load *
        (profile.power.busy - 0) / profile.power.busy;
    sched.Run();
    if (capture_trace) report.point_traces.push_back(tracer.TakeLog());
    if (capture_metrics) {
      report.point_metrics.push_back(registry.TakeSeries());
    }
    ++point_index;
  }
  report.proportionality_gap =
      gap_sum / static_cast<double>(loads.size());
  report.ep_coefficient =
      1.0 - report.proportionality_gap / 0.5;
  return report;
}

}  // namespace wimpy::core
