// Open-loop admission control and coordinated-omission-free measurement
// (docs/openloop.md).
//
// The arrival engine (arrival.h) decides *when* work should start; this
// header decides *whether* it can start now and records latency against
// the intended start time either way. Three pieces:
//
//   * `OpenLoopConfig` — the knobs one experiment cell needs: arrival
//     model, client-side concurrency cap, waiting-room size, SLO bound.
//   * `AdmissionGate<Payload>` — bounded client-side concurrency. When
//     `max_outstanding` dispatch slots are busy, a new arrival waits in a
//     FIFO of at most `queue_limit` entries; beyond that it is shed. The
//     gate never drops the intended timestamp: a queued request that
//     finally dispatches still measures from its arrival.
//   * `OpenLoopRecorder` — windowed counters plus the intended latency
//     (arrival→completion, coordinated-omission-free) of every OK
//     request. SLO accounting is against intended latency, and sheds
//     count against the offered denominator — overload cannot flatter
//     the tail by not measuring.
#ifndef WIMPY_LOAD_OPENLOOP_H_
#define WIMPY_LOAD_OPENLOOP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <utility>

#include "common/stats.h"
#include "common/units.h"
#include "load/arrival.h"

namespace wimpy::load {

struct OpenLoopConfig {
  ArrivalConfig arrival;
  // Client-side dispatch slots. 0 = unbounded (pure open loop: every
  // arrival dispatches immediately).
  int max_outstanding = 0;
  // Waiting room once the slots are full; 0 = shed immediately. Ignored
  // when max_outstanding == 0.
  int queue_limit = 0;
  // Latency bound for SLO-conditioned goodput, measured against intended
  // arrival time. 0 = SLO accounting off.
  Duration slo = 0.0;
};

enum class Admission { kDispatch, kQueue, kShed };

// Protocol per arrival:
//   switch (gate.Admit()) {
//     case kDispatch: start the request now;            break;
//     case kQueue:    gate.Enqueue(intended, payload);  break;
//     case kShed:     record the shed and move on;      break;
//   }
// and per completed dispatch: if `gate.OnComplete()` returns a pending
// entry, start it immediately (it inherits the freed slot).
template <typename Payload>
class AdmissionGate {
 public:
  struct Pending {
    SimTime intended;
    Payload payload;
  };

  explicit AdmissionGate(const OpenLoopConfig& config)
      : max_outstanding_(config.max_outstanding),
        queue_limit_(config.queue_limit) {}

  Admission Admit() {
    ++offered_;
    if (max_outstanding_ <= 0 || outstanding_ < max_outstanding_) {
      ++outstanding_;
      ++dispatched_;
      return Admission::kDispatch;
    }
    if (static_cast<int>(queue_.size()) < queue_limit_) {
      ++queued_;
      return Admission::kQueue;
    }
    ++shed_;
    return Admission::kShed;
  }

  void Enqueue(SimTime intended, Payload payload) {
    queue_.push_back(Pending{intended, std::move(payload)});
  }

  std::optional<Pending> OnComplete() {
    if (!queue_.empty()) {
      // The freed slot passes straight to the head of the queue, so
      // `outstanding_` is unchanged.
      Pending next = std::move(queue_.front());
      queue_.pop_front();
      ++dispatched_;
      return next;
    }
    --outstanding_;
    return std::nullopt;
  }

  int outstanding() const { return outstanding_; }
  std::size_t queue_depth() const { return queue_.size(); }
  // Conservation invariant: offered == dispatched + queue_depth + shed.
  std::int64_t offered() const { return offered_; }
  std::int64_t dispatched() const { return dispatched_; }
  std::int64_t queued() const { return queued_; }
  std::int64_t shed() const { return shed_; }

 private:
  int max_outstanding_;
  int queue_limit_;
  int outstanding_ = 0;
  std::int64_t offered_ = 0;
  std::int64_t dispatched_ = 0;
  std::int64_t queued_ = 0;
  std::int64_t shed_ = 0;
  std::deque<Pending> queue_;
};

// The gate of every open-loop experiment: a pending request carries its
// own forked random stream (load/driver.h).
using OpenLoopGate = AdmissionGate<Rng>;

// Optional live taps off the recorder: every shed and every completion
// (windowed or not) is streamed as it happens, so an online consumer
// (obs::Telemetry via obs::SloStreamInto) sees the same event stream the
// post-hoc report is computed from. Plain std::functions keep this
// header free of any obs dependency.
struct SloStreamHooks {
  // honest_latency is finished - intended (coordinated-omission-free);
  // under_slo implies ok and is false when SLO accounting is off.
  std::function<void(SimTime intended, Duration honest_latency, bool ok,
                     bool under_slo)>
      on_complete;
  std::function<void(SimTime intended)> on_shed;
};

class OpenLoopRecorder {
 public:
  OpenLoopRecorder(SimTime window_start, SimTime window_end, Duration slo)
      : window_start_(window_start), window_end_(window_end), slo_(slo) {}

  void set_stream(SloStreamHooks stream) { stream_ = std::move(stream); }

  // Window membership is decided by the *intended* arrival time: overload
  // pushing a dispatch past the window edge must not un-count the request.
  bool InWindow(SimTime intended) const {
    return intended >= window_start_ && intended < window_end_;
  }

  void OnShed(SimTime intended) {
    if (stream_.on_shed) stream_.on_shed(intended);
    if (InWindow(intended)) ++shed_;
  }

  void OnComplete(SimTime intended, SimTime finished, bool ok) {
    const Duration honest = finished - intended;
    const bool under_slo = ok && slo_ > 0.0 && honest <= slo_;
    if (stream_.on_complete) {
      stream_.on_complete(intended, honest, ok, under_slo);
    }
    if (!InWindow(intended)) return;
    ++completed_;
    if (!ok) {
      ++errors_;
      return;
    }
    ++ok_;
    intended_latency_.Add(honest);
    intended_percentiles_.Add(honest);
    if (under_slo) ++slo_good_;
  }

  SimTime window_start() const { return window_start_; }
  SimTime window_end() const { return window_end_; }
  Duration window_length() const { return window_end_ - window_start_; }
  Duration slo() const { return slo_; }

  std::int64_t completed() const { return completed_; }
  std::int64_t ok() const { return ok_; }
  std::int64_t errors() const { return errors_; }
  std::int64_t shed() const { return shed_; }
  std::int64_t slo_good() const { return slo_good_; }
  // Everything the window asked for: completions + errors + sheds.
  std::int64_t offered() const { return completed_ + shed_; }

  const OnlineStats& intended_latency() const { return intended_latency_; }
  const PercentileTracker& intended_percentiles() const {
    return intended_percentiles_;
  }

  // Fraction of offered-in-window requests that completed OK within the
  // SLO. Sheds and errors count against it — that is the point.
  double SloGoodFraction() const {
    const std::int64_t denom = offered();
    return denom == 0 ? 0.0
                      : static_cast<double>(slo_good_) /
                            static_cast<double>(denom);
  }

  // Under-SLO completions per joule of window energy (∫P dt over the
  // measurement window) — "p99-under-SLO work per joule".
  double SloGoodputPerJoule(Joules window_joules) const {
    return window_joules > 0.0
               ? static_cast<double>(slo_good_) / window_joules
               : 0.0;
  }

 private:
  SimTime window_start_;
  SimTime window_end_;
  Duration slo_;
  std::int64_t completed_ = 0;
  std::int64_t ok_ = 0;
  std::int64_t errors_ = 0;
  std::int64_t shed_ = 0;
  std::int64_t slo_good_ = 0;
  OnlineStats intended_latency_;
  PercentileTracker intended_percentiles_;
  SloStreamHooks stream_;
};

}  // namespace wimpy::load

#endif  // WIMPY_LOAD_OPENLOOP_H_
