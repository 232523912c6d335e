// Golden event-trace tests for the discrete-event engine, recorded
// through the obs::Tracer observability subsystem (docs/observability.md).
//
// The engine guarantees deterministic execution: events run in (time,
// sequence) order, FIFO at equal timestamps, with one sequence number
// consumed per ScheduleAt/ScheduleAfter/ResumeLater call. These tests pin
// that contract down two ways:
//
//  1. A differential test drives the production Scheduler and an embedded
//     reference engine (the original priority_queue + tombstone-set
//     implementation this engine replaced) through an identical
//     deterministic op mix — schedules, nested schedules, coroutine
//     wake-ups, cancels (including cancel of the earliest pending event
//     and double-cancel), and a same-instant run of 1,000+ events that
//     cancel, reschedule, wake coroutines and schedule at the current
//     instant from inside their callbacks — and requires bit-identical
//     traces. The
//     tracer's explicit-time InstantAt form lets the reference engine's
//     clock feed the same record path the real engine uses.
//
//  2. A golden full-stack workload (web-style fair-share + semaphore
//     request flow, MapReduce-style wait-queue workers, and a cancel/re-arm
//     churn loop) whose complete (time, label) trace hash was captured from
//     the seed engine. Any reordering, dropped event, or clock drift in a
//     future engine change breaks the hash. A second tracer rides the
//     scheduler's engine hook and must see exactly one kEngine record per
//     executed event.
#include <gtest/gtest.h>

#include <cmath>
#include <coroutine>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/tracer.h"
#include "sim/fair_share.h"
#include "sim/process.h"
#include "sim/scheduler.h"
#include "sim/semaphore.h"
#include "sim/wait_queue.h"

namespace wimpy::sim {
namespace {

using obs::Category;
using obs::TraceEvent;
using obs::Tracer;

void Log(Tracer& trace, SimTime t, std::int64_t label) {
  trace.InstantAt(t, "evt", Category::kApp, 0, label);
}

// FNV-1a over the raw (time, label) stream — the same digest the seed
// test computed over its local trace struct, now over tracer events.
std::uint64_t TraceHash(const Tracer& trace) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const TraceEvent& e : trace.events()) {
    std::uint64_t bits;
    std::memcpy(&bits, &e.time, sizeof(bits));
    mix(bits);
    mix(static_cast<std::uint64_t>(e.arg));
  }
  return h;
}

// Reference engine: the seed implementation (binary heap of (time, id)
// ordered std::function events, cancellation via a tombstone set), with
// exact pending accounting. One id per schedule call, ResumeLater modelled
// as a schedule at the current time — the ordering contract the optimized
// engine must reproduce.
class ReferenceScheduler {
 public:
  SimTime now() const { return now_; }

  std::uint64_t ScheduleAt(SimTime t, std::function<void()> fn) {
    if (t < now_) t = now_;
    const std::uint64_t id = next_id_++;
    queue_.push(Event{t, id, std::move(fn)});
    live_.insert(id);
    return id;
  }

  std::uint64_t ScheduleAfter(Duration delay, std::function<void()> fn) {
    if (delay < 0) delay = 0;
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  bool Cancel(std::uint64_t id) { return live_.erase(id) > 0; }

  void ResumeLater(std::function<void()> fn) {
    ScheduleAt(now_, std::move(fn));
  }

  std::size_t Run(SimTime until =
                      std::numeric_limits<SimTime>::infinity()) {
    std::size_t executed = 0;
    if (until < now_) return 0;
    for (;;) {
      while (!queue_.empty() && live_.count(queue_.top().id) == 0) {
        queue_.pop();  // tombstone
      }
      if (queue_.empty()) {
        if (until > now_ && std::isfinite(until)) now_ = until;
        break;
      }
      if (queue_.top().time > until) {
        if (until > now_) now_ = until;
        break;
      }
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      live_.erase(ev.id);
      now_ = ev.time;
      ++executed_;
      ++executed;
      ev.fn();
    }
    return executed;
  }

  std::size_t pending_events() const { return live_.size(); }
  std::size_t executed_events() const { return executed_; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t id;
    std::function<void()> fn;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  SimTime now_ = 0.0;
  std::uint64_t next_id_ = 1;
  std::size_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
  std::unordered_set<std::uint64_t> live_;
};

// Minimal self-destroying coroutine used to exercise ResumeLater: resuming
// the handle logs once and the frame frees itself.
struct FireOnce {
  struct promise_type {
    FireOnce get_return_object() {
      return {std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::abort(); }
  };
  std::coroutine_handle<promise_type> handle;
};

FireOnce LogOnResume(Tracer& trace, Scheduler& sched, std::int64_t label,
                     std::function<void()> body) {
  Log(trace, sched.now(), label);
  if (body) body();
  co_return;
}

// Adapters so one op script can drive both engines. `Resume` posts a
// same-time coroutine wake-up on the real engine and the equivalent
// same-time callback on the reference; either logs, then runs `body`.
struct RealEngine {
  Scheduler sched;
  Tracer trace;

  std::uint64_t Schedule(SimTime t, std::int64_t label,
                         std::function<void()> body) {
    return sched.ScheduleAt(t, [this, label, body = std::move(body)] {
      Log(trace, sched.now(), label);
      if (body) body();
    });
  }
  bool Cancel(std::uint64_t id) { return sched.Cancel(id); }
  void Resume(std::int64_t label, std::function<void()> body = nullptr) {
    sched.ResumeLater(
        LogOnResume(trace, sched, label, std::move(body)).handle);
  }
  // In place: the closure travels with the event, so `label` and `body`
  // are only the reference engine's to rebuild.
  std::uint64_t Reschedule(std::uint64_t id, Duration delay,
                           std::int64_t /*label*/,
                           std::function<void()> /*body*/) {
    return sched.RescheduleAfter(id, delay);
  }
  SimTime Now() const { return sched.now(); }
  void Run(SimTime until) { sched.Run(until); }
  void RunAll() { sched.Run(); }
};

struct RefEngine {
  ReferenceScheduler sched;
  Tracer trace;

  std::uint64_t Schedule(SimTime t, std::int64_t label,
                         std::function<void()> body) {
    return sched.ScheduleAt(t, [this, label, body = std::move(body)] {
      Log(trace, sched.now(), label);
      if (body) body();
    });
  }
  bool Cancel(std::uint64_t id) { return sched.Cancel(id); }
  void Resume(std::int64_t label, std::function<void()> body = nullptr) {
    sched.ResumeLater([this, label, body = std::move(body)] {
      Log(trace, sched.now(), label);
      if (body) body();
    });
  }
  // Reference semantics: cancel + schedule a fresh event, one sequence
  // number either way.
  std::uint64_t Reschedule(std::uint64_t id, Duration delay,
                           std::int64_t label, std::function<void()> body) {
    if (!Cancel(id)) return 0;
    return Schedule(Now() + delay, label, std::move(body));
  }
  SimTime Now() const { return sched.now(); }
  void Run(SimTime until) { sched.Run(until); }
  void RunAll() { sched.Run(); }
};

// Deterministic op mix. All decisions derive from a counter-seeded LCG so
// the two engines see byte-identical scripts; `cancel_log` records Cancel
// return values for cross-engine comparison.
template <typename Engine>
void RunOpMix(Engine& eng, std::vector<int>& cancel_log) {
  std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
  auto next = [&lcg]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(lcg >> 33);
  };

  // Pending ids with their scheduled times, tracked by the driver so both
  // engines cancel the "same" event (chosen by index, not by id value).
  // `live` flips to false when the event fires or is cancelled, keeping the
  // script on the well-defined cancel-a-pending-event path.
  struct Armed {
    std::uint64_t id;
    SimTime time;
    bool live;
  };
  auto armed = std::make_shared<std::vector<Armed>>();

  std::function<void(int, int)> plant =
      [&eng, &next, armed, &plant, &cancel_log](int label, int depth) {
        const SimTime t = eng.Now() + 0.125 * (1 + next() % 40);
        const std::uint32_t action = next() % 10;
        std::function<void()> action_body;
        if (depth < 3 && action < 4) {
          action_body = [&plant, label, depth] {
            plant(label + 1000, depth + 1);
          };
        } else if (action < 6) {
          action_body = [&eng, label] { eng.Resume(50000 + label); };
        } else if (action >= 8 && !armed->empty()) {
          // Cancel a deterministically-chosen earlier event from inside a
          // running event; skipped (but logged) if it already fired.
          const std::size_t pick = next() % armed->size();
          action_body = [&eng, armed, pick, &cancel_log] {
            auto& slot = (*armed)[pick];
            if (slot.live) {
              cancel_log.push_back(eng.Cancel(slot.id) ? 1 : 0);
              slot.live = false;
            } else {
              cancel_log.push_back(2);
            }
          };
        }
        const std::size_t idx = armed->size();
        const std::uint64_t id = eng.Schedule(
            t, label, [armed, idx, action_body = std::move(action_body)] {
              (*armed)[idx].live = false;  // fired
              if (action_body) action_body();
            });
        armed->push_back({id, t, true});
      };

  for (int i = 0; i < 64; ++i) plant(i, 0);

  // Cancel the earliest-time pending event (the heap top) and double-cancel
  // it, plus a scattering of mid-heap cancels, before running.
  std::size_t top = 0;
  for (std::size_t i = 1; i < armed->size(); ++i) {
    if ((*armed)[i].time < (*armed)[top].time) top = i;
  }
  cancel_log.push_back(eng.Cancel((*armed)[top].id) ? 1 : 0);
  cancel_log.push_back(eng.Cancel((*armed)[top].id) ? 1 : 0);  // double
  (*armed)[top].live = false;
  for (std::size_t i = 0; i < armed->size(); i += 7) {
    if (!(*armed)[i].live) continue;
    cancel_log.push_back(eng.Cancel((*armed)[i].id) ? 1 : 0);
    (*armed)[i].live = false;
  }

  // A same-instant run of 1,000+ events at t = 2 (where script events
  // land too) whose callbacks cancel, reschedule to the same instant and
  // later, post fast-lane wake-ups and schedule more work at the current
  // instant. Each callback draws its action when it runs, so the two
  // engines stay in step only while they execute in the same order.
  struct BurstEvent {
    std::uint64_t id;
    bool live;
  };
  constexpr std::size_t kBurst = 1000;
  constexpr std::size_t kBurstCap = 1400;
  std::vector<BurstEvent> burst;
  auto burst_label = [](std::size_t idx) {
    return static_cast<std::int64_t>(70000 + idx);
  };
  std::function<std::function<void()>(std::size_t)> burst_body;
  auto burst_plant = [&eng, &burst, &burst_label, &burst_body](SimTime t) {
    const std::size_t idx = burst.size();
    burst.push_back({0, true});
    burst[idx].id = eng.Schedule(t, burst_label(idx), burst_body(idx));
  };
  burst_body = [&eng, &next, &burst, &burst_label, &burst_body, &burst_plant,
                &cancel_log](std::size_t idx) {
    return std::function<void()>([&eng, &next, &burst, &burst_label,
                                  &burst_body, &burst_plant, &cancel_log,
                                  idx] {
      burst[idx].live = false;  // fired
      const std::uint32_t action = next() % 8;
      const std::size_t pick = next() % burst.size();
      switch (action) {
        case 0:  // cancel
          if (burst[pick].live) {
            cancel_log.push_back(eng.Cancel(burst[pick].id) ? 1 : 0);
            burst[pick].live = false;
          } else {
            cancel_log.push_back(2);
          }
          break;
        case 1:    // reschedule to this instant
        case 2: {  // reschedule later
          if (!burst[pick].live) {
            cancel_log.push_back(2);
            break;
          }
          const Duration delay = action == 1 ? 0.0 : 0.125 * (1 + next() % 3);
          burst[pick].id = eng.Reschedule(burst[pick].id, delay,
                                          burst_label(pick), burst_body(pick));
          cancel_log.push_back(burst[pick].id != 0 ? 1 : 0);
          break;
        }
        case 3:
          eng.Resume(80000 + static_cast<std::int64_t>(idx));
          break;
        case 4:
          if (burst.size() < kBurstCap) burst_plant(eng.Now());
          break;
        default:
          break;
      }
    });
  };
  for (std::size_t i = 0; i < kBurst; ++i) burst_plant(2.0);

  // Run in bounded windows (exercising the drained-queue clock advance),
  // then to completion.
  eng.Run(1.0);
  for (int i = 0; i < 8; ++i) eng.Resume(60000 + i);
  eng.Run(3.5);
  eng.RunAll();
}

TEST(EventTraceTest, MatchesReferenceEngineOnMixedOps) {
  RealEngine real;
  RefEngine ref;
  std::vector<int> real_cancels;
  std::vector<int> ref_cancels;
  RunOpMix(real, real_cancels);
  RunOpMix(ref, ref_cancels);

  EXPECT_EQ(real_cancels, ref_cancels);
  ASSERT_EQ(real.trace.size(), ref.trace.size());
  for (std::size_t i = 0; i < real.trace.size(); ++i) {
    const TraceEvent& a = real.trace.events()[i];
    const TraceEvent& b = ref.trace.events()[i];
    EXPECT_EQ(a.time, b.time) << "entry " << i;
    EXPECT_EQ(a.arg, b.arg) << "entry " << i;
  }
  EXPECT_EQ(TraceHash(real.trace), TraceHash(ref.trace));
  EXPECT_EQ(real.sched.executed_events(), ref.sched.executed_events());
  EXPECT_EQ(real.sched.pending_events(), 0u);
  EXPECT_EQ(ref.sched.pending_events(), 0u);
  EXPECT_EQ(real.Now(), ref.Now());
}

// Differential reschedules across delay scales: the real engine's
// in-place RescheduleAfter (short -> long, long -> short, and sub-µs
// nudges) must produce the byte-identical event stream of the reference
// engine's Cancel + ScheduleAfter. Delays run from 0.5 ms to several
// seconds so every kind of move appears in one script.
template <typename Engine, typename Resched>
void RunRescheduleMix(Engine& eng, Resched resched) {
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 24; ++i) {
    // Even events start short-delay, odd start far-future.
    const SimTime t = (i % 2 == 0) ? 0.0005 * (1 + i % 8)
                                   : 0.5 + 0.125 * (i % 6);
    ids.push_back(eng.Schedule(t, i, nullptr));
  }
  for (int i = 0; i < 24; i += 3) {
    // Even (short) events move seconds out; odd (far) events move to
    // within a few milliseconds.
    const double delay =
        (i % 2 == 0) ? 1.0 + 0.25 * i : 0.001 * (1 + i % 4);
    ids[i] = resched(eng, ids[i], i, delay);
  }
  // Sub-microsecond re-aim: nudge an event by far less than 1 µs.
  ids[2] = resched(eng, ids[2], 2, 0.0015 + 4e-10);
  // A window run between reschedule volleys, then a second volley from a
  // nonzero clock, then drain.
  eng.Run(0.01);
  for (int i = 1; i < 24; i += 4) {
    const double delay = (i % 3 == 0) ? 2.0 : 0.002 * (1 + i % 3);
    const std::uint64_t moved = resched(eng, ids[i], i, delay);
    if (moved != 0) ids[i] = moved;  // already fired -> no-op, like ref
  }
  eng.RunAll();
}

TEST(EventTraceTest, RescheduleAcrossDelayScalesMatchesReference) {
  RealEngine real;
  RefEngine ref;
  RunRescheduleMix(real, [](RealEngine& e, std::uint64_t id, int /*label*/,
                           double delay) {
    // In place: the closure (and its label) travels with the event.
    return e.sched.RescheduleAfter(id, delay);
  });
  RunRescheduleMix(ref, [](RefEngine& e, std::uint64_t id, int label,
                          double delay) -> std::uint64_t {
    // Reference semantics: cancel + schedule a fresh event, one sequence
    // number either way.
    if (!e.Cancel(id)) return 0;
    return e.Schedule(e.Now() + delay, label, nullptr);
  });
  ASSERT_EQ(real.trace.size(), ref.trace.size());
  for (std::size_t i = 0; i < real.trace.size(); ++i) {
    const TraceEvent& a = real.trace.events()[i];
    const TraceEvent& b = ref.trace.events()[i];
    EXPECT_EQ(a.time, b.time) << "entry " << i;
    EXPECT_EQ(a.arg, b.arg) << "entry " << i;
  }
  EXPECT_EQ(TraceHash(real.trace), TraceHash(ref.trace));
  EXPECT_EQ(real.Now(), ref.Now());
  EXPECT_EQ(real.sched.pending_events(), 0u);
}

// ---------------------------------------------------------------------------
// Hazards of the monotone pending set. The engine buckets entries by the
// bits of their time relative to the last *executed* timed event, which is
// only sound while every push lands at or after that reference time. Each
// script below would let a later push land below an entry the engine has
// already looked at, if looking (a `Run(until)` peek, a discard) moved the
// reference time. Both engines run the script and must agree bit for bit.

template <typename Script>
void ExpectEnginesAgree(Script script) {
  RealEngine real;
  RefEngine ref;
  script(real);
  script(ref);
  ASSERT_EQ(real.trace.size(), ref.trace.size());
  for (std::size_t i = 0; i < real.trace.size(); ++i) {
    const TraceEvent& a = real.trace.events()[i];
    const TraceEvent& b = ref.trace.events()[i];
    EXPECT_EQ(a.time, b.time) << "entry " << i;
    EXPECT_EQ(a.arg, b.arg) << "entry " << i;
  }
  // The hash mixes raw bits, so it also tells -0.0 from +0.0.
  EXPECT_EQ(TraceHash(real.trace), TraceHash(ref.trace));
  EXPECT_EQ(real.sched.executed_events(), ref.sched.executed_events());
  EXPECT_EQ(real.sched.pending_events(), ref.sched.pending_events());
  EXPECT_EQ(real.Now(), ref.Now());
  EXPECT_EQ(std::signbit(real.Now()), std::signbit(ref.Now()));
}

TEST(EventTraceTest, RunUntilPeekThenScheduleBelowFarEventMatchesReference) {
  ExpectEnginesAgree([](auto& eng) {
    eng.Schedule(10.0, 1, nullptr);  // far events the windows stop short of
    eng.Schedule(10.0 + 1.0 / 64, 2, nullptr);
    eng.Schedule(0.5, 3, nullptr);
    eng.Run(1.0);
    // Between `until` and the far events, spread over many buckets, and
    // one at the landed clock itself.
    for (int i = 0; i < 24; ++i) {
      eng.Schedule(1.0 + 0.375 * i, 10 + i, nullptr);
    }
    eng.Schedule(eng.Now(), 40, nullptr);
    eng.Run(3.0);
    for (int i = 0; i < 8; ++i) {
      eng.Schedule(3.0 + 0.8 * i, 50 + i, [&eng, i] {
        eng.Schedule(eng.Now() + 0.0625 * i, 60 + i, nullptr);
      });
    }
    eng.Run(9.0);
    eng.Run(9.5);  // a second peek at the same far event
    eng.Schedule(9.75, 70, nullptr);
    // A window that drains the near events and lands between the two far
    // ones' neighbours.
    eng.Run(10.0);
    eng.Schedule(10.0 + 1.0 / 128, 71, nullptr);
    eng.RunAll();
  });
}

TEST(EventTraceTest, DiscardedFarTopThenRingSchedulesEarlierMatchesReference) {
  ExpectEnginesAgree([](auto& eng) {
    // A cancelled and a rescheduled (stale) entry are the minimum far
    // ahead; live far events sit in several buckets behind them.
    const std::uint64_t cancelled = eng.Schedule(10.0, 1, nullptr);
    const std::uint64_t moved = eng.Schedule(10.25, 2, nullptr);
    for (int i = 0; i < 6; ++i) eng.Schedule(10.5 + 1.5 * i, 3 + i, nullptr);
    eng.Schedule(1.0, 20, [&eng, cancelled, moved] {
      eng.Cancel(cancelled);
      eng.Reschedule(moved, 20.0, 2, nullptr);
      // Runs after the dead entries were dropped, and schedules below
      // where they were.
      eng.Resume(21, [&eng] {
        for (int i = 0; i < 6; ++i) {
          eng.Schedule(eng.Now() + 0.25 + 0.75 * i, 30 + i, nullptr);
        }
      });
    });
    eng.RunAll();

    // The same through a Run(until) window: the dead top is dropped by the
    // window's peek, then the clock lands and a wake-up schedules below it.
    const std::uint64_t dead = eng.Schedule(eng.Now() + 8.0, 40, nullptr);
    for (int i = 0; i < 4; ++i) {
      eng.Schedule(eng.Now() + 8.5 + i, 41 + i, nullptr);
    }
    eng.Cancel(dead);
    eng.Run(eng.Now() + 1.0);
    eng.Resume(50, [&eng] {
      eng.Schedule(eng.Now() + 0.5, 51, nullptr);
      eng.Schedule(eng.Now() + 2.0, 52, nullptr);
    });
    eng.RunAll();
  });
}

TEST(EventTraceTest, ThousandsOfSameInstantEventsStayFifoMatchesReference) {
  ExpectEnginesAgree([](auto& eng) {
    constexpr SimTime kT = 5.0;
    // Entries for kT pushed from several earlier instants, so each bucket
    // list mixes push orders before the tie is rebucketed into bucket 0.
    auto ids = std::make_shared<std::vector<std::uint64_t>>();
    for (int i = 0; i < 200; ++i) {
      ids->push_back(eng.Schedule(kT, 1000 + i, nullptr));
    }
    for (int k = 1; k <= 4; ++k) {
      eng.Schedule(1.0 * k, 100 + k, [&eng, k] {
        for (int i = 0; i < 100; ++i) {
          eng.Schedule(kT, 2000 + 100 * k + i, nullptr);
          // Neighbours just before and after kT keep the tie moving
          // between buckets.
          if (i % 25 == 0) {
            eng.Schedule(kT - 0.5 / k, 3000 + 100 * k + i, nullptr);
            eng.Schedule(kT + 0.5 / k, 4000 + 100 * k + i, nullptr);
          }
        }
      });
    }
    // Reschedule some early ties onto kT again (fresh sequence numbers)
    // and cancel others.
    eng.Schedule(4.5, 150, [&eng, ids] {
      for (std::size_t i = 0; i < ids->size(); ++i) {
        if (i % 10 == 3) {
          eng.Reschedule((*ids)[i], 0.5, 1000 + static_cast<int>(i), nullptr);
        } else if (i % 7 == 5) {
          eng.Cancel((*ids)[i]);
        }
      }
    });
    // One tie pushes 600 more at the current instant straight into the
    // tie's bucket, some of which push again and wake coroutines.
    eng.Schedule(kT, 5000, [&eng] {
      for (int i = 0; i < 600; ++i) {
        eng.Schedule(eng.Now(), 6000 + i, [&eng, i] {
          if (i % 50 == 0) eng.Schedule(eng.Now(), 7000 + i, nullptr);
          if (i % 75 == 0) eng.Resume(8000 + i);
        });
      }
    });
    eng.RunAll();
  });
}

TEST(EventTraceTest, NegativeZeroAndInfiniteTimesMatchReference) {
  ExpectEnginesAgree([](auto& eng) {
    constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
    eng.Schedule(-0.0, 1, nullptr);
    eng.Schedule(0.0, 2, nullptr);
    eng.Schedule(-0.0, 3, [&eng] {
      eng.Schedule(-0.0, 4, nullptr);
      eng.Schedule(eng.Now(), 5, nullptr);
      eng.Resume(6);
    });
    eng.Schedule(kInf, 7, [&eng] {
      eng.Schedule(eng.Now() + 1.0, 8, nullptr);
      eng.Resume(9);
      eng.Schedule(kInf, 10, nullptr);
    });
    eng.Schedule(kInf, 11, nullptr);
    eng.Schedule(1.0, 12, nullptr);
    eng.Run(2.0);  // stops short of +inf; the clock lands on 2
    eng.Schedule(3.0, 13, nullptr);
    eng.RunAll();
  });
}

// ---------------------------------------------------------------------------
// Golden full-stack workload: web + MapReduce + cancel churn.

Process WebClient(Scheduler& sched, FairShareServer& cpu,
                  FairShareServer& nic, Semaphore& threads, Tracer& trace,
                  int id) {
  for (int r = 0; r < 15; ++r) {
    co_await Delay(sched, 0.013 * ((id * 7 + r * 3) % 11));
    SemaphoreGuard guard(threads, 1);
    co_await guard.Acquired();
    co_await cpu.Serve(1.0 + (id + r) % 5);
    co_await nic.Serve(0.5 + (r % 3));
    guard.Release();
    Log(trace, sched.now(), 100000 + id * 100 + r);
  }
}

Process MrWorker(Scheduler& sched, WaitQueue<int>& tasks,
                 FairShareServer& cpu, FairShareServer& disk, Tracer& trace,
                 int id) {
  for (;;) {
    const int task = co_await tasks.Get();
    if (task < 0) {
      Log(trace, sched.now(), 300000 + id);
      co_return;
    }
    co_await cpu.Serve(2.0 + task % 7);
    co_await disk.Serve(1.0 + task % 4);
    Log(trace, sched.now(), 200000 + task);
  }
}

Process MrDriver(Scheduler& sched, WaitQueue<int>& tasks, int n_tasks,
                 int n_workers) {
  for (int t = 0; t < n_tasks; ++t) {
    co_await Delay(sched, 0.021 * (t % 13));
    tasks.Push(t);
  }
  for (int w = 0; w < n_workers; ++w) tasks.Push(-1);
}

// Arm/cancel churn mimicking FairShareServer::Reschedule: a timeout is
// armed 1.7 s out and normally cancelled 0.3 s later; every fifth round the
// next tick is delayed past the timeout so it actually fires.
struct CancelChurn {
  Scheduler* sched;
  Tracer* trace;
  int remaining;
  int i = 0;
  EventId armed = 0;

  void Tick() {
    if (armed != 0) {
      const bool ok = sched->Cancel(armed);
      Log(*trace, sched->now(), 400000 + (ok ? 1 : 0));
      armed = 0;
    }
    if (remaining-- <= 0) return;
    const int round = i++;
    armed = sched->ScheduleAt(sched->now() + 1.7, [this, round] {
      Log(*trace, sched->now(), 450000 + round);
      armed = 0;
    });
    const Duration gap = (round % 5 == 4) ? 2.0 : 0.3;
    sched->ScheduleAfter(gap, [this] { Tick(); });
  }
};

TEST(EventTraceTest, GoldenMixedWorkloadTrace) {
  Scheduler sched;
  Tracer trace;
  // A second tracer rides the engine hook: one kEngine instant per
  // executed event, without disturbing the app-level golden stream.
  Tracer engine_trace;
  engine_trace.AttachEngineHook(&sched);
  FairShareServer cpu(&sched, 12.0, 4.0);
  FairShareServer nic(&sched, 8.0, 8.0);
  FairShareServer disk(&sched, 6.0, 6.0);
  Semaphore threads(&sched, 4);
  WaitQueue<int> tasks(&sched);

  std::vector<ProcessRef> refs;
  for (int c = 0; c < 6; ++c) {
    refs.push_back(
        SpawnJoinable(sched, WebClient(sched, cpu, nic, threads, trace, c)));
  }
  for (int w = 0; w < 3; ++w) {
    refs.push_back(
        SpawnJoinable(sched, MrWorker(sched, tasks, cpu, disk, trace, w)));
  }
  refs.push_back(SpawnJoinable(sched, MrDriver(sched, tasks, 40, 3)));

  CancelChurn churn{&sched, &trace, 20};
  sched.ScheduleAt(0.05, [&churn] { churn.Tick(); });

  sched.Run();

  for (const auto& ref : refs) EXPECT_TRUE(ref.done());
  EXPECT_EQ(sched.pending_events(), 0u);

  // Golden values captured from the seed engine (priority_queue +
  // tombstone set). The optimized engine must reproduce the identical
  // (time, sequence) execution order.
  EXPECT_EQ(trace.size(), 153u);
  EXPECT_EQ(TraceHash(trace), 7137018536558014104ull) << "trace hash";
  EXPECT_EQ(sched.executed_events(), 770u) << "executed";
  EXPECT_EQ(sched.now(), 0x1.408dc4a20e82ep+5) << "final time";

  // The engine hook saw every executed event, in execution order.
  ASSERT_EQ(engine_trace.size(), sched.executed_events());
  SimTime prev_time = 0;
  for (const TraceEvent& e : engine_trace.events()) {
    EXPECT_EQ(e.category, Category::kEngine);
    EXPECT_GE(e.time, prev_time);
    prev_time = e.time;
  }
}

}  // namespace
}  // namespace wimpy::sim
