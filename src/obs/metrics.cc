#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/check.h"

namespace wimpy::obs {

namespace {
[[noreturn]] void DieDetached(const char* what) {
  std::fprintf(stderr,
               "MetricsRegistry::%s on a detached registry: probes were "
               "severed because their components are gone\n",
               what);
  std::abort();
}
}  // namespace

std::vector<double> MetricsSeries::Column(std::string_view name) const {
  const auto it = std::find(names.begin(), names.end(), name);
  Check(it != names.end(), "obs::MetricsSeries", "no column by that name");
  const auto col = static_cast<std::size_t>(it - names.begin());
  std::vector<double> values;
  values.reserve(rows.size());
  for (const auto& row : rows) values.push_back(row[col]);
  return values;
}

MetricsRegistry::~MetricsRegistry() { Stop(); }

void MetricsRegistry::Add(std::string name, std::function<double()> probe) {
  // A late column would leave the earlier rows shorter than `names`, and
  // MetricsSeries::Column would read past their end.
  Check(series_.times.empty(), "obs::MetricsRegistry",
        "probe registered after the first sample");
  // Registering a live probe re-arms a detached registry: the guard
  // exists to catch sampling through *severed* closures, not to make
  // registries single-use.
  detached_ = false;
  probes_.push_back(Probe{std::move(name), std::move(probe)});
  series_.names.push_back(probes_.back().name);
}

void MetricsRegistry::AddGauge(std::string name,
                               std::function<double()> probe) {
  Add(std::move(name), std::move(probe));
}

void MetricsRegistry::AddCounter(std::string name,
                                 std::function<double()> probe) {
  Add(std::move(name), std::move(probe));
}

void MetricsRegistry::Start(sim::Scheduler* sched) {
  if (detached_) DieDetached("Start");
  Stop();
  sched_ = sched;
  running_ = true;
  Tick();
}

void MetricsRegistry::Stop() {
  running_ = false;
  if (pending_ != 0 && sched_ != nullptr) {
    sched_->Cancel(pending_);
    pending_ = 0;
  }
}

void MetricsRegistry::Detach() {
  Stop();
  for (Probe& probe : probes_) probe.fn = nullptr;
  detached_ = true;
}

void MetricsRegistry::SampleNow() {
  if (detached_) DieDetached("SampleNow");
  if (sched_ == nullptr) return;
  series_.times.push_back(sched_->now());
  auto& row = series_.rows.emplace_back();
  row.reserve(probes_.size());
  for (const Probe& probe : probes_) row.push_back(probe.fn());
}

void MetricsRegistry::Tick() {
  if (!running_) return;
  SampleNow();
  pending_ = sched_->ScheduleAfter(kMetricsPeriod, [this] {
    pending_ = 0;
    Tick();
  });
}

MetricsSeries MetricsRegistry::TakeSeries() {
  MetricsSeries out = std::move(series_);
  series_ = MetricsSeries{};
  series_.names = out.names;  // probes remain registered
  return out;
}

}  // namespace wimpy::obs
