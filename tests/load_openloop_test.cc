// Open-loop load engine (src/load/): arrival-model statistics, schedule
// determinism across sweep threads, admission-gate conservation, the
// coordinated-omission property the recorder exists for, and the arrival
// driver's draw order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "load/arrival.h"
#include "load/driver.h"
#include "load/openloop.h"
#include "sim/process.h"
#include "sim/replication.h"
#include "sim/scheduler.h"

namespace wimpy::load {
namespace {

// Poisson gaps at rate r are Exponential(r): mean 1/r, variance 1/r^2.
// With n = 200k samples the sample mean is Gaussian with sd
// 1/(r*sqrt(n)); +-5 sd bounds make the test deterministic-in-practice
// for any fixed seed while still catching a mis-scaled generator.
TEST(ArrivalProcessTest, PoissonInterarrivalMeanAndVariance) {
  const double rate = 1000.0;
  ArrivalConfig config;
  config.model = ArrivalModel::kPoisson;
  config.rate = rate;
  ArrivalProcess arrivals(config);
  Rng rng(2016);
  const int n = 200000;
  double sum = 0, sumsq = 0;
  for (int i = 0; i < n; ++i) {
    const Duration gap = arrivals.NextGap(rng);
    ASSERT_GT(gap, 0.0);
    sum += gap;
    sumsq += gap * gap;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  const double mean_sd = 1.0 / (rate * std::sqrt(static_cast<double>(n)));
  EXPECT_NEAR(mean, 1.0 / rate, 5 * mean_sd);
  // Exponential variance estimator sd ~ sqrt(8)/ (r^2 sqrt(n)).
  EXPECT_NEAR(var, 1.0 / (rate * rate),
              5 * std::sqrt(8.0) / (rate * rate * std::sqrt(1.0 * n)));
}

// Golden-compatibility contract (docs/openloop.md): the Poisson model
// draws exactly one Exponential per gap, so an ArrivalProcess is
// stream-identical to the inline rng.Exponential(rate) it replaced.
TEST(ArrivalProcessTest, PoissonMatchesInlineExponentialStream) {
  ArrivalConfig config;
  config.rate = 350.0;
  ArrivalProcess arrivals(config);
  Rng a(99), b(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(arrivals.NextGap(a), b.Exponential(350.0));
  }
}

// MMPP normalisation: the time-averaged rate stays `rate` regardless of
// burstiness, while dispersion of windowed counts exceeds Poisson's
// (variance/mean of counts in fixed windows > 1; == 1 for Poisson).
TEST(ArrivalProcessTest, MmppMeanRatePreservedAndOverdispersed) {
  const double rate = 1000.0;
  ArrivalConfig config;
  config.model = ArrivalModel::kMmpp;
  config.rate = rate;
  config.burstiness = 8.0;
  config.burst_fraction = 0.2;
  config.cycle = Seconds(0.5);
  ArrivalProcess arrivals(config);
  Rng rng(424242);

  const double window = 0.25;  // half a burst dwell: counts stay lumpy
  std::vector<int> counts;
  double t = 0, edge = window;
  int in_window = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    t += arrivals.NextGap(rng);
    while (t >= edge) {
      counts.push_back(in_window);
      in_window = 0;
      edge += window;
    }
    ++in_window;
  }
  const double mean_rate = n / t;
  EXPECT_NEAR(mean_rate, rate, 0.05 * rate);

  double sum = 0;
  for (int c : counts) sum += c;
  const double mean_count = sum / counts.size();
  double var = 0;
  for (int c : counts) var += (c - mean_count) * (c - mean_count);
  var /= counts.size();
  // Poisson would give var/mean == 1; MMPP-8 at 20% burst is far above.
  EXPECT_GT(var / mean_count, 2.0);
}

// An arrival schedule is a pure function of (cell, seed): RunSweep must
// produce bit-identical schedules at --threads=1 and --threads=8.
TEST(ArrivalProcessTest, SchedulesBitIdenticalAcrossSweepThreads) {
  struct Cell {
    ArrivalModel model;
    double rate;
  };
  const std::vector<Cell> cells = {{ArrivalModel::kPoisson, 500.0},
                                   {ArrivalModel::kMmpp, 500.0},
                                   {ArrivalModel::kMmpp, 4000.0}};
  auto schedule = [](const Cell& cell, Rng& root) {
    ArrivalConfig config;
    config.model = cell.model;
    config.rate = cell.rate;
    ArrivalProcess arrivals(config);
    Rng rng(root.Next());
    std::vector<double> times;
    double t = 0;
    for (int i = 0; i < 512; ++i) {
      t += arrivals.NextGap(rng);
      times.push_back(t);
    }
    return times;
  };
  const auto one = sim::RunSweep(cells, sim::SweepPlan{3, 1, 77}, schedule);
  const auto eight = sim::RunSweep(cells, sim::SweepPlan{3, 8, 77}, schedule);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t c = 0; c < one.size(); ++c) {
    ASSERT_EQ(one[c].size(), eight[c].size());
    for (std::size_t r = 0; r < one[c].size(); ++r) {
      EXPECT_EQ(one[c][r], eight[c][r]);  // exact, not approximate
    }
  }
}

TEST(AdmissionGateTest, ShedVsQueueConservation) {
  OpenLoopConfig config;
  config.max_outstanding = 2;
  config.queue_limit = 2;
  AdmissionGate<int> gate(config);

  // Two dispatches fill the slots.
  EXPECT_EQ(gate.Admit(), Admission::kDispatch);
  EXPECT_EQ(gate.Admit(), Admission::kDispatch);
  EXPECT_EQ(gate.outstanding(), 2);
  // Two more queue.
  EXPECT_EQ(gate.Admit(), Admission::kQueue);
  gate.Enqueue(1.0, 100);
  EXPECT_EQ(gate.Admit(), Admission::kQueue);
  gate.Enqueue(2.0, 200);
  EXPECT_EQ(gate.queue_depth(), 2u);
  // The waiting room is full: shed.
  EXPECT_EQ(gate.Admit(), Admission::kShed);
  EXPECT_EQ(gate.offered(),
            gate.dispatched() + static_cast<std::int64_t>(gate.queue_depth()) +
                gate.shed());

  // A completion hands its slot to the queue head in FIFO order;
  // outstanding stays pinned at the cap.
  auto next = gate.OnComplete();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->intended, 1.0);
  EXPECT_EQ(next->payload, 100);
  EXPECT_EQ(gate.outstanding(), 2);
  next = gate.OnComplete();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->intended, 2.0);
  // Queue drained: completions free slots.
  EXPECT_FALSE(gate.OnComplete().has_value());
  EXPECT_FALSE(gate.OnComplete().has_value());
  EXPECT_EQ(gate.outstanding(), 0);
  EXPECT_EQ(gate.offered(), 5);
  EXPECT_EQ(gate.dispatched(), 4);
  EXPECT_EQ(gate.shed(), 1);
  EXPECT_EQ(gate.queue_depth(), 0u);

  // Unbounded gate never queues or sheds.
  AdmissionGate<int> open(OpenLoopConfig{});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(open.Admit(), Admission::kDispatch);
  }
  EXPECT_EQ(open.outstanding(), 100);
}

// The recorder's reason to exist: under overload, service latency
// (dispatch -> completion) stays flat at the service time while intended
// latency (arrival -> completion) grows with the backlog. Synthetic
// overload: arrivals every 1 ms, service takes exactly 2 ms, one server.
TEST(OpenLoopRecorderTest, IntendedTailDominatesServiceTailUnderOverload) {
  OpenLoopRecorder recorder(0.0, 10.0, /*slo=*/Milliseconds(20));
  const Duration service = 0.002;
  double server_free = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const SimTime intended = i * 0.001;
    const SimTime finished = std::max(server_free, intended) + service;
    server_free = finished;
    recorder.OnComplete(intended, finished, true);
  }
  const double intended_p99 =
      recorder.intended_percentiles().Percentile(0.99);
  // Backlog grows ~1 ms per arrival: the honest p99 is ~1 s by the end.
  EXPECT_GT(intended_p99, 100 * service);
  // SLO accounting is against intended latency: only the first handful
  // of requests finish within 20 ms of their arrival.
  EXPECT_LT(recorder.SloGoodFraction(), 0.05);
  EXPECT_GT(recorder.slo_good(), 0);
}

TEST(OpenLoopRecorderTest, WindowingByIntendedArrivalAndSheds) {
  OpenLoopRecorder recorder(1.0, 2.0, /*slo=*/0.1);
  // Intended before the window: ignored even though it finishes inside.
  recorder.OnComplete(0.5, 1.5, true);
  // Intended inside, finishes after the window edge: still counted.
  recorder.OnComplete(1.9, 2.5, true);
  // Error completion: counted offered, never SLO-good.
  recorder.OnComplete(1.5, 1.55, false);
  recorder.OnShed(1.2);
  recorder.OnShed(2.7);  // outside the window: ignored
  EXPECT_EQ(recorder.completed(), 2);
  EXPECT_EQ(recorder.ok(), 1);
  EXPECT_EQ(recorder.errors(), 1);
  EXPECT_EQ(recorder.shed(), 1);
  EXPECT_EQ(recorder.offered(), 3);
  EXPECT_EQ(recorder.slo_good(), 0);  // the one OK took 0.6 s > 0.1 s
  EXPECT_EQ(recorder.SloGoodFraction(), 0.0);
  EXPECT_EQ(recorder.SloGoodputPerJoule(50.0), 0.0);

  OpenLoopRecorder good(0.0, 1.0, 0.1);
  good.OnComplete(0.5, 0.55, true);
  EXPECT_EQ(good.slo_good(), 1);
  EXPECT_EQ(good.SloGoodFraction(), 1.0);
  EXPECT_NEAR(good.SloGoodputPerJoule(50.0), 1.0 / 50.0, 1e-15);
}

// One arrival as the driver saw it: intended time and the first draw of
// the request's forked stream (0 for a shed, which has no stream).
struct SeenArrival {
  SimTime intended;
  std::uint64_t first_draw;
};

// A fixed-delay request: takes its stream's first draw, holds a dispatch
// slot for 5 ms, and hands the slot to the gate's queue head.
sim::Process FixedDelayRequest(sim::Scheduler& sched, OpenLoopGate& gate,
                               OpenLoopRecorder& recorder, SimTime intended,
                               Rng rng, std::vector<SeenArrival>* seen) {
  seen->push_back({intended, rng.Next()});
  co_await sim::Delay(sched, Milliseconds(5));
  recorder.OnComplete(intended, sched.now(), /*ok=*/true);
  if (auto next = gate.OnComplete()) {
    sim::Spawn(sched, FixedDelayRequest(sched, gate, recorder,
                                        next->intended,
                                        std::move(next->payload), seen));
  }
}

TEST(OpenLoopDriverTest, DrawsLikeTheHandRolledLoopAndConserves) {
  OpenLoopConfig config;
  config.arrival.model = ArrivalModel::kMmpp;
  config.arrival.rate = 1000.0;
  config.max_outstanding = 4;  // 4 slots x 5 ms = 800/s < 1000/s offered
  config.queue_limit = 8;
  const SimTime end = Seconds(2);
  const std::uint64_t seed = 77;

  sim::Scheduler sched;
  OpenLoopGate gate(config);
  OpenLoopRecorder recorder(0.0, end, /*slo=*/0.0);
  std::vector<SeenArrival> seen;
  recorder.set_stream({.on_complete = nullptr, .on_shed = [&](SimTime t) {
                         seen.push_back({t, 0});
                       }});
  sim::Spawn(sched, DriveOpenLoop(sched, config.arrival, end, gate, recorder,
                                  Rng(seed), [&](SimTime intended, Rng rng) {
                                    sim::Spawn(sched, FixedDelayRequest(
                                                          sched, gate,
                                                          recorder, intended,
                                                          std::move(rng),
                                                          &seen));
                                  }));
  sched.Run();

  // The same draws by hand: gap, then fork, per arrival before `end`.
  std::vector<SeenArrival> expected;
  Rng rng(seed);
  ArrivalProcess arrivals(config.arrival);
  for (SimTime t = arrivals.NextGap(rng); t < end;
       t += arrivals.NextGap(rng)) {
    Rng child = rng.Fork();
    expected.push_back({t, child.Next()});
  }

  auto by_time = [](const SeenArrival& a, const SeenArrival& b) {
    return a.intended < b.intended;
  };
  std::stable_sort(seen.begin(), seen.end(), by_time);
  ASSERT_EQ(seen.size(), expected.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].intended, expected[i].intended) << i;
    if (seen[i].first_draw != 0) {  // sheds carry no stream
      EXPECT_EQ(seen[i].first_draw, expected[i].first_draw) << i;
    }
  }

  // Overload exercised every admission path, and nothing was lost.
  EXPECT_GT(gate.queued(), 0);
  EXPECT_GT(gate.shed(), 0);
  EXPECT_EQ(gate.offered(), static_cast<std::int64_t>(expected.size()));
  EXPECT_EQ(gate.offered(),
            gate.dispatched() + static_cast<std::int64_t>(gate.queue_depth()) +
                gate.shed());
}

TEST(ArrivalProcessDeathTest, InvalidConfigAbortsInEveryBuild) {
  auto with = [](ArrivalModel model, auto edit) {
    ArrivalConfig config;
    config.model = model;
    edit(config);
    return config;
  };
  // A negative rate draws negative gaps, which DriveOpenLoop clamps to
  // zero and then admits forever at t = 0.
  EXPECT_DEATH(ArrivalProcess(with(ArrivalModel::kPoisson,
                                   [](auto& c) { c.rate = -100.0; })),
               "rate must be > 0");
  EXPECT_DEATH(ArrivalProcess(with(ArrivalModel::kPoisson,
                                   [](auto& c) { c.rate = 0.0; })),
               "rate must be > 0");
  EXPECT_DEATH(ArrivalProcess(with(ArrivalModel::kMmpp,
                                   [](auto& c) { c.burstiness = 0.5; })),
               "burstiness must be >= 1");
  EXPECT_DEATH(ArrivalProcess(with(ArrivalModel::kMmpp,
                                   [](auto& c) { c.burst_fraction = 1.0; })),
               "burst_fraction must be in");
  EXPECT_DEATH(ArrivalProcess(with(ArrivalModel::kMmpp,
                                   [](auto& c) { c.cycle = 0.0; })),
               "cycle must be > 0");
}

}  // namespace
}  // namespace wimpy::load
