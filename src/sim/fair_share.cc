#include "sim/fair_share.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/check.h"

namespace wimpy::sim {

namespace {
// Completion slack guards against floating-point residue when the minimum
// job is advanced exactly to its threshold.
constexpr double kRelativeTolerance = 1e-9;

// Build-time rate setters run in every build type: a zero, negative or
// NaN rate would schedule completions at +inf or in the past.
void CheckRate(double rate, const char* what) {
  Check(rate > 0, "sim::FairShareServer", what);
}
}  // namespace

FairShareServer::FairShareServer(Scheduler* sched, double capacity,
                                 double per_job_cap)
    : sched_(sched),
      capacity_(capacity),
      per_job_cap_(per_job_cap > 0 ? per_job_cap : capacity) {
  Check(sched != nullptr, "sim::FairShareServer",
        "scheduler must not be null");
  CheckRate(capacity, "capacity must be > 0");
  last_update_ = sched_->now();
  busy_history_.Set(last_update_, 0.0);
}

FairShareServer::~FairShareServer() {
  if (pending_event_ != 0) sched_->Cancel(pending_event_);
}

double FairShareServer::CurrentRatePerJob() const {
  if (jobs_.empty()) return 0.0;
  return std::min(per_job_cap_,
                  capacity_ / static_cast<double>(jobs_.size()));
}

double FairShareServer::busy_fraction() const {
  if (jobs_.empty()) return 0.0;
  const double used = std::min(
      capacity_, per_job_cap_ * static_cast<double>(jobs_.size()));
  return used / capacity_;
}

double FairShareServer::AverageBusyFraction() const {
  return busy_history_.AverageUntil(sched_->now());
}

void FairShareServer::SetUsageListener(
    std::function<void(double)> listener) {
  usage_listener_ = std::move(listener);
}

void FairShareServer::SetRates(double capacity, double per_job_cap) {
  CheckRate(capacity, "capacity must be > 0");
  CheckRate(per_job_cap, "per_job_cap must be > 0");
  Advance();
  capacity_ = capacity;
  per_job_cap_ = per_job_cap;
  Reschedule();
}

void FairShareServer::AddJob(double demand, std::coroutine_handle<> handle,
                             std::uint32_t* countdown) {
  assert(demand > 0);
  Advance();
  // Rebase the aggregate counter whenever the server is empty: no
  // outstanding thresholds reference it, and keeping its magnitude small
  // preserves floating-point resolution over arbitrarily long runs.
  if (jobs_.empty()) served_per_job_ = 0.0;
  // Every active job receives service at the same (time-varying) rate, so
  // a job that arrives when the aggregate per-job service counter is A
  // finishes when the counter reaches A + demand. This keeps each event
  // O(log n) instead of O(n).
  Job job;
  job.finish_threshold = served_per_job_ + demand;
  job.tolerance = std::max(1.0, demand) * kRelativeTolerance;
  job.handle = handle;
  job.countdown = countdown;
  jobs_.push(job);
  Reschedule();
}

void FairShareServer::FinishJob(const Job& job) {
  if (job.countdown == nullptr || --*job.countdown == 0) {
    sched_->ResumeLater(job.handle);
  }
}

void FairShareServer::Advance() {
  const SimTime now = sched_->now();
  const double dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0 || jobs_.empty()) return;
  const double rate = CurrentRatePerJob();
  served_per_job_ += rate * dt;
  total_served_ += rate * dt * static_cast<double>(jobs_.size());
}

void FairShareServer::Reschedule() {
  if (jobs_.empty() && pending_event_ != 0) {
    sched_->Cancel(pending_event_);
    pending_event_ = 0;
  }

  const double busy = busy_fraction();
  if (busy != last_busy_fraction_) {
    last_busy_fraction_ = busy;
    busy_history_.Set(sched_->now(), busy);
    if (usage_listener_) usage_listener_(busy);
  }

  if (jobs_.empty()) return;

  const double rate = CurrentRatePerJob();
  const double min_remaining =
      std::max(0.0, jobs_.top().finish_threshold - served_per_job_);
  const Duration delay = min_remaining / rate;
  // Re-arm the pending completion event in place when one exists: same
  // semantics as Cancel + ScheduleAfter (fresh sequence number, identical
  // ordering) but the heap slot and closure are reused, so the dominant
  // arrival path pays no slot free/acquire pair and leaves no dead link.
  if (pending_event_ != 0) {
    pending_event_ = sched_->RescheduleAfter(pending_event_, delay);
    if (pending_event_ != 0) return;
  }
  pending_event_ = sched_->ScheduleAfter(delay,
                                         [this] { OnCompletionEvent(); });
}

void FairShareServer::OnCompletionEvent() {
  pending_event_ = 0;
  Advance();
  // The pending event is cancelled and rebuilt whenever membership or
  // capacity changes, so when it actually fires the heap top is due by
  // construction. Pop it unconditionally: relying on the tolerance alone
  // can live-lock when the counter is so large that the residue exceeds
  // the tolerance but is below one representable step of simulated time.
  if (!jobs_.empty()) {
    FinishJob(jobs_.top());
    jobs_.pop();
  }
  while (!jobs_.empty() &&
         jobs_.top().finish_threshold - served_per_job_ <=
             jobs_.top().tolerance) {
    FinishJob(jobs_.top());
    jobs_.pop();
  }
  if (jobs_.empty()) served_per_job_ = 0.0;
  Reschedule();
}

}  // namespace wimpy::sim
