// Stress and allocation tests for the scheduler hot path.
//
// The stress tests drive interleaved ScheduleAt / Cancel / Run against a
// simple model and check the engine's accounting (`pending_events`,
// `executed_events`, Cancel return values) stays exact through
// cancel-after-fire, double-cancel, cancel of the earliest pending event
// (the heap top), and cancels issued from inside running events — once
// with coarse, tie-heavy delays and once with delays from 1 µs to
// ~130 ms, where an execute hook also checks that the clock never steps
// backwards.
//
// The allocation tests override global operator new to prove the two hot
// paths are allocation-free once the scheduler's buffers are warm:
// ResumeLater never allocates, and ScheduleAt with captures within
// EventFn::kInlineCapacity never allocates (oversized captures spill and
// are counted by fn_heap_allocations()).
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/process.h"
#include "sim/scheduler.h"

namespace {

std::uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace wimpy;

static_assert(sizeof(sim::EventFn) == 48,
              "EventFn grew; scheduler slots no longer fit a cache line");

// Deterministic 64-bit LCG, same family as the trace tests.
struct Lcg {
  std::uint64_t state;
  std::uint32_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(state >> 33);
  }
};

struct Rec {
  sim::EventId id = 0;
  double time = 0.0;
  bool fired = false;
  bool cancelled = false;
};

// Execute hook that checks the clock never steps backwards between
// executed events. Counted and EXPECTed by the caller rather than
// asserted, so the check holds in NDEBUG builds too.
struct ClockWatch {
  double last = 0.0;
  int backwards = 0;
  static void Hook(void* ctx, double time, std::uint64_t /*seq*/) {
    auto* w = static_cast<ClockWatch*>(ctx);
    if (time < w->last) ++w->backwards;
    w->last = time;
  }
};

// Drives interleaved ScheduleAt / Cancel / Run(until) against a model.
// `next_time(now, recs, rng)` picks each new event's timestamp and
// `step` is the Run(until) window unit.
template <typename NextTime>
void RunStress(std::uint64_t seed, int rounds, double step,
               NextTime next_time) {
  sim::Scheduler sched;
  ClockWatch watch;
  sched.SetExecuteHook(&ClockWatch::Hook, &watch);
  Lcg rng{seed};
  std::vector<Rec> recs;
  recs.reserve(4096);

  auto live = [&](std::size_t i) {
    return !recs[i].fired && !recs[i].cancelled;
  };
  auto model_pending = [&] {
    std::size_t n = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) n += live(i);
    return n;
  };
  auto model_fired = [&] {
    std::size_t n = 0;
    for (const Rec& r : recs) n += r.fired;
    return n;
  };
  // Index of the earliest live event in (time, schedule order) — the
  // engine's current heap top.
  auto earliest_live = [&]() -> std::ptrdiff_t {
    std::ptrdiff_t best = -1;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (!live(i)) continue;
      if (best < 0 || recs[i].time < recs[best].time) best = i;
    }
    return best;
  };

  for (int round = 0; round < rounds; ++round) {
    // Schedule a burst.
    const int burst = 1 + static_cast<int>(rng.Next() % 8);
    for (int k = 0; k < burst; ++k) {
      const double t = next_time(sched.now(), recs, rng);
      const std::size_t idx = recs.size();
      recs.push_back(Rec{0, t, false, false});
      std::vector<Rec>* rs = &recs;
      recs[idx].id = sched.ScheduleAt(t, [rs, idx] {
        ASSERT_FALSE((*rs)[idx].fired) << "event fired twice";
        ASSERT_FALSE((*rs)[idx].cancelled) << "cancelled event fired";
        (*rs)[idx].fired = true;
      });
      EXPECT_NE(recs[idx].id, 0u);
    }

    // Random cancels, including already-fired and already-cancelled ids:
    // Cancel must return exactly the model's liveness, and a second
    // Cancel of the same id must return false.
    for (int k = 0; k < 3; ++k) {
      const std::size_t i = rng.Next() % recs.size();
      const bool was_live = live(i);
      EXPECT_EQ(sched.Cancel(recs[i].id), was_live) << "idx " << i;
      if (was_live) recs[i].cancelled = true;
      EXPECT_FALSE(sched.Cancel(recs[i].id)) << "double-cancel idx " << i;
    }

    // Periodically cancel the engine's current heap top.
    if (round % 5 == 0) {
      const std::ptrdiff_t top = earliest_live();
      if (top >= 0) {
        EXPECT_TRUE(sched.Cancel(recs[top].id));
        recs[top].cancelled = true;
      }
    }

    // Occasionally schedule an event that cancels another one in-flight.
    if (round % 7 == 0 && !recs.empty()) {
      const std::size_t victim = rng.Next() % recs.size();
      const double t = next_time(sched.now(), recs, rng);
      const std::size_t idx = recs.size();
      recs.push_back(Rec{0, t, false, false});
      std::vector<Rec>* rs = &recs;
      sim::Scheduler* sp = &sched;
      recs[idx].id = sched.ScheduleAt(t, [rs, idx, victim, sp] {
        (*rs)[idx].fired = true;
        Rec& v = (*rs)[victim];
        const bool was_live = !v.fired && !v.cancelled;
        EXPECT_EQ(sp->Cancel(v.id), was_live) << "in-event cancel";
        if (was_live) v.cancelled = true;
      });
    }

    EXPECT_EQ(sched.pending_events(), model_pending());

    // Advance a short window and reconcile against the model.
    const double until = sched.now() + (rng.Next() % 12) * step;
    sched.Run(until);
    EXPECT_EQ(sched.now(), until);
    watch.last = until;  // the clock stands here; nothing may run earlier
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs[i].cancelled) {
        EXPECT_FALSE(recs[i].fired) << "idx " << i;
      } else {
        EXPECT_EQ(recs[i].fired, recs[i].time <= until) << "idx " << i;
      }
    }
    EXPECT_EQ(sched.executed_events(), model_fired());
    EXPECT_EQ(sched.pending_events(), model_pending());
  }

  // Drain: everything not cancelled fires exactly once.
  sched.Run();
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.executed_events(), model_fired());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_NE(recs[i].fired, recs[i].cancelled) << "idx " << i;
  }
  EXPECT_EQ(watch.backwards, 0) << "the clock stepped backwards";
  EXPECT_EQ(sched.fn_heap_allocations(), 0u)
      << "a stress-test capture spilled past EventFn::kInlineCapacity";
}

TEST(SchedulerStressTest, InterleavedScheduleCancelRunKeepsExactAccounting) {
  // Coarse timestamps force same-time runs.
  RunStress(12345, 300, 0.5,
            [](double now, const std::vector<Rec>&, Lcg& rng) {
              return now + (rng.Next() % 64) * 0.25;
            });
}

TEST(SchedulerStressTest, MixedScaleDelaysKeepClockMonotonic) {
  // Delays in whole microseconds: under 256 µs, under 65.5 ms, and up to
  // ~131 ms. A quarter of the events land a few microseconds after the
  // earliest pending event, so fresh events keep slotting in just behind
  // the heap top: each must still fire at its own time, with the clock
  // never stepping backwards.
  constexpr double kTick = 1e-6;
  RunStress(
      777, 600, 2e-3,
      [kTick](double now, const std::vector<Rec>& recs, Lcg& rng) {
        switch (rng.Next() % 4) {
          case 0:
            return now + (rng.Next() % 256) * kTick;
          case 1:
            return now + (256 + rng.Next() % 65280) * kTick;
          case 2:
            return now + (65536 + rng.Next() % 65536) * kTick;
          default: {
            // A few ticks after the earliest pending event.
            double base = now;
            bool any = false;
            for (const Rec& r : recs) {
              if (r.fired || r.cancelled || r.time <= now) continue;
              if (!any || r.time < base) base = r.time;
              any = true;
            }
            return base + (1 + rng.Next() % 64) * kTick;
          }
        }
      });
}

// Minimal self-destroying coroutine: resuming it runs the body once and
// frees the frame at final suspend.
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

FireOnce Bump(int* counter) {
  ++*counter;
  co_return;
}

TEST(SchedulerAllocationTest, ResumeLaterPathIsAllocationFree) {
  constexpr int kWaves = 64;
  sim::Scheduler sched;
  int resumed = 0;

  // Warm-up wave: grows the fast-lane ring (and allocates the coroutine
  // frames for this wave) before measurement starts.
  std::vector<std::coroutine_handle<>> handles;
  handles.reserve(kWaves);
  for (int i = 0; i < kWaves; ++i) handles.push_back(Bump(&resumed).handle);
  for (auto h : handles) sched.ResumeLater(h);
  sched.Run();
  ASSERT_EQ(resumed, kWaves);

  // Measured wave: frames are allocated up front; the ResumeLater calls
  // and the drain must not allocate at all.
  handles.clear();
  for (int i = 0; i < kWaves; ++i) handles.push_back(Bump(&resumed).handle);
  const std::uint64_t before = g_allocations;
  for (auto h : handles) sched.ResumeLater(h);
  sched.Run();
  EXPECT_EQ(g_allocations, before) << "ResumeLater/drain allocated";
  EXPECT_EQ(resumed, 2 * kWaves);
  EXPECT_EQ(sched.fast_lane_resumes(), 2u * kWaves);
}

TEST(SchedulerAllocationTest, SmallCaptureSchedulePathIsAllocationFree) {
  constexpr int kEvents = 256;
  sim::Scheduler sched;
  int fired = 0;

  // Warm-up: sizes the slot pool and the heap.
  for (int i = 0; i < kEvents; ++i) {
    sched.ScheduleAt(static_cast<double>(i % 17), [&fired] { ++fired; });
  }
  sched.Run();
  ASSERT_EQ(fired, kEvents);

  const std::uint64_t before = g_allocations;
  for (int i = 0; i < kEvents; ++i) {
    sched.ScheduleAfter(static_cast<double>(i % 17), [&fired] { ++fired; });
  }
  sched.Run();
  EXPECT_EQ(g_allocations, before) << "warm schedule/run allocated";
  EXPECT_EQ(fired, 2 * kEvents);
  EXPECT_EQ(sched.fn_heap_allocations(), 0u);
}

TEST(SchedulerAllocationTest, OversizedCaptureSpillsAndIsCounted) {
  sim::Scheduler sched;
  char big[sim::EventFn::kInlineCapacity + 24] = {1};
  bool fired = false;
  sched.ScheduleAt(1.0, [big, &fired] { fired = big[0] == 1; });
  EXPECT_EQ(sched.fn_heap_allocations(), 1u);
  sched.Run();
  EXPECT_TRUE(fired);
}

}  // namespace
