// Generalised processor-sharing server with a per-job rate cap.
//
// This single primitive models every rate-shared hardware resource in the
// library:
//
//   * CPU:   capacity = cores × per-thread rate, per-job cap = one thread's
//            rate (a single task cannot use more than one hardware thread);
//   * NIC:   capacity = link bandwidth, per-job cap = link bandwidth
//            (flows share the wire fairly);
//   * disk:  capacity = device throughput, per-job cap = device throughput;
//   * memory bus: capacity = peak bandwidth, per-job cap = single-thread
//            achievable bandwidth.
//
// With n active jobs each receives rate
//     r(n) = min(per_job_cap, capacity / n)
// so utilisation rises linearly with n until the capacity saturates —
// exactly the behaviour the paper measures for threads-vs-time curves
// (Figures 2/3) and memory-bandwidth saturation (Section 4.2).
//
// Jobs submit a demand in abstract units; `co_await server.Serve(demand)`
// resumes when the demand has been delivered. The server emits utilisation
// change events that the power model integrates into joules.
#ifndef WIMPY_SIM_FAIR_SHARE_H_
#define WIMPY_SIM_FAIR_SHARE_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/stats.h"
#include "sim/scheduler.h"

namespace wimpy::sim {

class FairShareServer {
 public:
  // `capacity` and `per_job_cap` are in units/second; both must be > 0.
  // `per_job_cap` defaults to the full capacity (pure processor sharing).
  FairShareServer(Scheduler* sched, double capacity, double per_job_cap = 0);

  FairShareServer(const FairShareServer&) = delete;
  FairShareServer& operator=(const FairShareServer&) = delete;

  ~FairShareServer();

  // Awaitable service of `demand` units. Zero/negative demand completes
  // immediately without suspension.
  auto Serve(double demand) {
    struct Awaiter {
      FairShareServer* server;
      double demand;
      bool await_ready() const { return demand <= 0.0; }
      void await_suspend(std::coroutine_handle<> h) {
        server->AddJob(demand, h);
      }
      void await_resume() const {}
    };
    return Awaiter{this, demand};
  }

  // Submits `demand` as one leg of a multi-segment join (see
  // net::Fabric::Transfer): when the job completes, `*countdown` is
  // decremented and `handle` is resumed only when it reaches zero — the
  // slowest segment wakes the awaiting coroutine. `*countdown` must
  // outlive all joined jobs (it lives in the awaiting coroutine's frame).
  // Completion is always asynchronous, via the same-time resume lane.
  void ServeJoined(double demand, std::uint32_t* countdown,
                   std::coroutine_handle<> handle) {
    AddJob(demand, handle, countdown);
  }

  // Instantaneous per-job service rate for the current job count.
  double CurrentRatePerJob() const;

  // Fraction of capacity currently in use, in [0, 1].
  double busy_fraction() const;

  // Time-averaged busy fraction since construction.
  double AverageBusyFraction() const;

  std::size_t active_jobs() const { return jobs_.size(); }
  double capacity() const { return capacity_; }
  double per_job_cap() const { return per_job_cap_; }
  double total_work_served() const { return total_served_; }

  // Invoked with the new busy fraction whenever it changes (job arrives or
  // departs). The power model subscribes here.
  void SetUsageListener(std::function<void(double busy_fraction)> listener);

  // Changes capacity and per-job cap together (frequency scaling affects
  // both the pool and a single thread's speed). In-flight jobs continue
  // with the new rate from the current instant.
  void SetRates(double capacity, double per_job_cap);

 private:
  // Jobs all progress at the same per-job rate, so each job is fully
  // described by the value the aggregate per-job service counter must
  // reach for it to finish. A min-heap on that threshold yields the next
  // completion in O(log n).
  struct Job {
    double finish_threshold;
    double tolerance;  // completion slack, relative to original demand
    std::coroutine_handle<> handle;
    // Non-null for joined jobs: decrement on completion, resume `handle`
    // only at zero.
    std::uint32_t* countdown = nullptr;
  };
  struct JobOrder {
    bool operator()(const Job& a, const Job& b) const {
      return a.finish_threshold > b.finish_threshold;  // min-heap
    }
  };

  void AddJob(double demand, std::coroutine_handle<> handle,
              std::uint32_t* countdown = nullptr);
  // Resumes the job's awaiter (or decrements its join countdown).
  void FinishJob(const Job& job);
  // Integrates the aggregate service counter from last_update_ to now.
  void Advance();
  // Recomputes the shared rate, fires the usage listener if the busy
  // fraction changed, and (re)schedules the next completion event.
  void Reschedule();
  void OnCompletionEvent();

  Scheduler* sched_;
  double capacity_;
  double per_job_cap_;

  std::priority_queue<Job, std::vector<Job>, JobOrder> jobs_;
  double served_per_job_ = 0.0;  // aggregate service delivered per job
  SimTime last_update_ = 0.0;
  EventId pending_event_ = 0;
  double total_served_ = 0.0;
  double last_busy_fraction_ = 0.0;
  TimeWeightedAverage busy_history_;
  std::function<void(double)> usage_listener_;
};

}  // namespace wimpy::sim

#endif  // WIMPY_SIM_FAIR_SHARE_H_
