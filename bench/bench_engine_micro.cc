// google-benchmark microbenchmarks for the simulation engine and the
// host-executable kernels — the library's own performance envelope rather
// than a paper table. Useful for spotting regressions in the event loop
// and fair-share server that every experiment's wall time depends on.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "hw/profiles.h"
#include "kernels/dhrystone.h"
#include "kernels/sysbench.h"
#include "mapreduce/compute.h"
#include "mapreduce/textgen.h"
#include "obs/sketch.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "shard/ring.h"
#include "sim/fair_share.h"
#include "sim/process.h"
#include "sim/replication.h"
#include "sim/scheduler.h"

namespace {

using namespace wimpy;

void BM_SchedulerEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    const int n = static_cast<int>(state.range(0));
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      sched.ScheduleAt(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    sched.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerEventThroughput)->Arg(10000)->Arg(100000);

// Same loop with an obs::Tracer engine hook attached: every executed
// event records one kEngine instant. The delta over the untraced variant
// is the full (enabled) tracing cost; the untraced variant itself pins
// the disabled-path overhead against BENCH_engine.json (<= 2%,
// tools/check_bench_regression.sh).
void BM_SchedulerEventThroughputTraced(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    obs::Tracer tracer;
    tracer.AttachEngineHook(&sched);
    const int n = static_cast<int>(state.range(0));
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      sched.ScheduleAt(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    sched.Run();
    benchmark::DoNotOptimize(fired);
    benchmark::DoNotOptimize(tracer.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  // One untimed pass to surface the tracer arena's allocation behaviour:
  // steady state should reuse recycled chunks, not allocate.
  sim::Scheduler sched;
  obs::Tracer tracer;
  tracer.AttachEngineHook(&sched);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    sched.ScheduleAt(static_cast<double>(i % 97), [] {});
  }
  sched.Run();
  state.counters["arena_chunk_allocs"] =
      static_cast<double>(tracer.arena_chunk_allocs());
  state.counters["arena_chunk_reuses"] =
      static_cast<double>(tracer.arena_chunk_reuses());
}
BENCHMARK(BM_SchedulerEventThroughputTraced)->Arg(100000);

// Wheel-vs-heap tier comparison on the shape the wheel was built for:
// many *distinct* timestamps (no same-time chain batching), all inside /
// all beyond the wheel horizon. The two benches run the identical
// schedule+drain loop; only the delay scale differs, so the items/sec
// gap is the pending-set data structure and nothing else.
void RunDistinctTimes(benchmark::State& state, double delay_scale) {
  for (auto _ : state) {
    sim::Scheduler sched;
    const int n = static_cast<int>(state.range(0));
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      // 7919 is prime vs the modulus: i*7919 % 50000 visits distinct
      // residues, so timestamps collide only after 50k events.
      const double delay = delay_scale * (1 + (i * 7919) % 50000);
      sched.ScheduleAfter(delay, [&fired] { ++fired; });
    }
    sched.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  sim::Scheduler sched;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    sched.ScheduleAfter(delay_scale * (1 + (i * 7919) % 50000), [] {});
  }
  sched.Run();
  state.counters["wheel_inserts"] =
      static_cast<double>(sched.wheel_inserts());
  state.counters["wheel_promotions"] =
      static_cast<double>(sched.wheel_promotions());
  state.counters["overflow_spills"] =
      static_cast<double>(sched.wheel_overflow_spills());
}

// 1 µs tick scale: every delay lands in the wheel (max 50 ms < 65.5 ms
// horizon).
void BM_SchedulerDistinctTimesWheel(benchmark::State& state) {
  RunDistinctTimes(state, 1e-6);
}
BENCHMARK(BM_SchedulerDistinctTimesWheel)->Arg(100000);

// 10 ms scale: every delay overshoots the horizon and spills to the
// overflow heap — the seed engine's data structure on the same script.
void BM_SchedulerDistinctTimesHeap(benchmark::State& state) {
  RunDistinctTimes(state, 1e-2);
}
BENCHMARK(BM_SchedulerDistinctTimesHeap)->Arg(100000);

// fig4_7-shaped short-delay serving loop: open-loop arrivals every
// ~100 µs; each request burns a µs-scale CPU slice, then a network hop,
// with a 50 ms deadline timer armed at admission and cancelled at
// completion. Exercises the wheel's bread and butter — dense short
// delays plus timer churn — end to end through the public API.
void BM_SchedulerShortDelayServing(benchmark::State& state) {
  struct Request {
    sim::Scheduler* sched;
    sim::EventId deadline = 0;
    int* completed;
    std::uint32_t lcg;
    void Admit() {
      deadline = sched->ScheduleAfter(0.050, [] { /* timed out */ });
      const double service = 1e-6 * (50 + lcg % 400);
      sched->ScheduleAfter(service, [this] { Network(); });
    }
    void Network() {
      const double hop = 1e-6 * (20 + (lcg >> 8) % 100);
      sched->ScheduleAfter(hop, [this] { Done(); });
    }
    void Done() {
      sched->Cancel(deadline);
      ++*completed;
    }
  };
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler sched;
    std::vector<Request> requests(static_cast<std::size_t>(n));
    int completed = 0;
    for (int i = 0; i < n; ++i) {
      requests[static_cast<std::size_t>(i)] = {
          &sched, 0, &completed,
          static_cast<std::uint32_t>(i * 2654435761u)};
      sched.ScheduleAt(1e-4 * i, [&requests, i] {
        requests[static_cast<std::size_t>(i)].Admit();
      });
    }
    sched.Run();
    benchmark::DoNotOptimize(completed);
  }
  // 4 events per request: arrival, service done, hop done, plus the
  // cancelled deadline's schedule+cancel pair counted as one.
  state.SetItemsProcessed(state.iterations() * n * 4);
  sim::Scheduler sched;
  std::vector<Request> requests(static_cast<std::size_t>(n));
  int completed = 0;
  for (int i = 0; i < n; ++i) {
    requests[static_cast<std::size_t>(i)] = {
        &sched, 0, &completed, static_cast<std::uint32_t>(i * 2654435761u)};
    sched.ScheduleAt(1e-4 * i, [&requests, i] {
      requests[static_cast<std::size_t>(i)].Admit();
    });
  }
  sched.Run();
  state.counters["wheel_inserts"] =
      static_cast<double>(sched.wheel_inserts());
  state.counters["wheel_promotions"] =
      static_cast<double>(sched.wheel_promotions());
  state.counters["overflow_spills"] =
      static_cast<double>(sched.wheel_overflow_spills());
}
BENCHMARK(BM_SchedulerShortDelayServing)->Arg(20000);

// Arm/cancel/re-arm churn, the FairShareServer::Reschedule pattern: every
// simulated arrival cancels the pending completion event and arms a new
// one, so only a fraction of scheduled events ever fire.
void BM_SchedulerCancelChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    const int n = static_cast<int>(state.range(0));
    int fired = 0;
    sim::EventId pending = 0;
    for (int i = 0; i < n; ++i) {
      if (pending != 0) sched.Cancel(pending);
      pending = sched.ScheduleAfter(1.0 + (i % 7) * 0.25, [&fired] { ++fired; });
      if (i % 8 == 7) {
        sched.Run(sched.now() + 2.0);
        pending = 0;
      }
    }
    sched.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerCancelChurn)->Arg(10000)->Arg(100000);

sim::Process Yielder(sim::Scheduler& sched, int hops, int& done) {
  for (int i = 0; i < hops; ++i) co_await sim::Delay(sched, 0.0);
  ++done;
}

// Same-time coroutine wake-ups: every hop is a zero-delay suspension that
// rides the scheduler's fast lane instead of the timed heap.
void BM_SchedulerResumeLaterHops(benchmark::State& state) {
  constexpr int kProcs = 64;
  for (auto _ : state) {
    sim::Scheduler sched;
    const int hops = static_cast<int>(state.range(0)) / kProcs;
    int done = 0;
    for (int p = 0; p < kProcs; ++p) {
      sim::Spawn(sched, Yielder(sched, hops, done));
    }
    sched.Run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerResumeLaterHops)->Arg(100000);

sim::Process ServeJob(sim::FairShareServer& server, double demand) {
  co_await server.Serve(demand);
}

void BM_FairShareManyJobs(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    sim::FairShareServer server(&sched, 1000.0, 1.0);
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sim::Spawn(sched, ServeJob(server, 1.0 + (i % 13)));
    }
    sched.Run();
    benchmark::DoNotOptimize(server.total_work_served());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FairShareManyJobs)->Arg(1000)->Arg(10000);

// Parallel replication runner over a fixed batch of fair-share
// mini-simulations; the arg is the worker-thread count, so the per-thread
// scaling of the sweep subsystem shows up directly in items/sec. Results
// are identical at every arg (docs/parallel.md) — only wall time moves.
void BM_ParallelSweep(benchmark::State& state) {
  constexpr int kReplications = 32;
  const std::vector<int> configs = {600, 900};
  for (auto _ : state) {
    sim::SweepPlan plan{kReplications, static_cast<int>(state.range(0)), 42};
    const auto results = sim::RunSweep(
        configs, plan, [](const int& jobs, Rng& root) {
          sim::Scheduler sched;
          sim::FairShareServer server(&sched, 64.0, 2.0);
          Rng demands = root.Fork();
          for (int i = 0; i < jobs; ++i) {
            sim::Spawn(sched, ServeJob(server, demands.Uniform(0.5, 4.0)));
          }
          sched.Run();
          return server.total_work_served();
        });
    benchmark::DoNotOptimize(results[0][0]);
  }
  state.SetItemsProcessed(state.iterations() * configs.size() *
                          kReplications);
}
BENCHMARK(BM_ParallelSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Telemetry hot path (obs/telemetry.h): one histogram Record — a sketch
// bucket increment plus the open bucket's count/sum/min/max fold. This
// runs on every completion when the telemetry plane is armed, so it has
// to stay allocation-free and a few ns.
void BM_RollupRecord(benchmark::State& state) {
  obs::Telemetry telemetry;
  obs::Histogram lat = telemetry.AddHistogram("lat");
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      lat.Record(1e-4 * (1 + i % 997));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RollupRecord)->Arg(100000);

// The same loop with the plane compiled in but disabled: the contract is
// a single branch per call (docs/telemetry.md). This variant is the one
// tools/check_bench_regression.sh gates against BENCH_engine.json — an
// enabled-plane slowdown is a tuning problem, a disabled-plane slowdown
// is a tax on every run.
void BM_RollupRecordDisabled(benchmark::State& state) {
  obs::Telemetry telemetry;
  obs::Histogram lat = telemetry.AddHistogram("lat");
  telemetry.set_enabled(false);
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      lat.Record(1e-4 * (1 + i % 997));
      // In a real run the enabled flag is re-read on every call, behind
      // other stores; without the clobber the optimiser hoists the check
      // out of the loop and deletes the loop, measuring nothing.
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RollupRecordDisabled)->Arg(100000);

// Sketch merge cost: folding `range` shard sketches into a fresh
// accumulator — the RunSweep index-order merge and every windowed
// quantile Query pay this per closed bucket.
void BM_SketchMergeMany(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  std::vector<obs::HdrSketch> sketches(shards);
  Rng rng(7);
  for (int s = 0; s < shards; ++s) {
    for (int i = 0; i < 512; ++i) {
      sketches[s].Record(rng.Exponential(1000.0));  // ~1 ms latencies
    }
  }
  obs::HdrSketch total;
  for (auto _ : state) {
    total.Reset();
    for (const obs::HdrSketch& s : sketches) total.Merge(s);
    benchmark::DoNotOptimize(total.Quantile(0.99));
  }
  state.SetItemsProcessed(state.iterations() * shards);
}
BENCHMARK(BM_SketchMergeMany)->Arg(64);

// Shard ring construction (shard/ring.h): the bulk constructor's single
// rebuild over `range` members — what a testbed pays once at setup. 64
// is the kv cell's store tier; 1024 is a large fleet.
void BM_RingBuild(benchmark::State& state) {
  const std::vector<int> ids =
      shard::DenseIds(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const shard::Ring ring(shard::RingConfig{}, ids);
    benchmark::DoNotOptimize(ring.PrimaryOf(0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RingBuild)->Arg(64)->Arg(1024);

void BM_DhrystoneKernel(benchmark::State& state) {
  for (auto _ : state) {
    const auto result = kernels::RunDhrystone(state.range(0));
    benchmark::DoNotOptimize(result.checksum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DhrystoneKernel)->Arg(100000);

void BM_CountPrimes(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::CountPrimes(state.range(0)));
  }
}
BENCHMARK(BM_CountPrimes)->Arg(20000);

void BM_WordCountMap(benchmark::State& state) {
  Rng rng(1);
  const std::string corpus =
      mapreduce::GenerateTextCorpus(MB(1), 10000, rng);
  for (auto _ : state) {
    const auto stats = mapreduce::WordCountMap(corpus, nullptr);
    benchmark::DoNotOptimize(stats.output_records);
  }
  state.SetBytesProcessed(state.iterations() * corpus.size());
}
BENCHMARK(BM_WordCountMap);

void BM_TeraSort(benchmark::State& state) {
  Rng rng(2);
  const std::string records =
      mapreduce::GenerateTeraRecords(state.range(0), rng);
  for (auto _ : state) {
    const std::string sorted = mapreduce::TeraSortRecords(records);
    benchmark::DoNotOptimize(sorted.data());
  }
  state.SetBytesProcessed(state.iterations() * records.size());
}
BENCHMARK(BM_TeraSort)->Arg(10000);

}  // namespace

int main(int argc, char** argv) {
  // Wheel geometry and arena sizing ride along in the JSON context so a
  // recorded BENCH_engine.json pins the configuration it measured.
  constexpr auto geom = wimpy::sim::Scheduler::wheel_geometry();
  benchmark::AddCustomContext("wheel_levels", std::to_string(geom.levels));
  benchmark::AddCustomContext("wheel_buckets_per_level",
                              std::to_string(geom.buckets_per_level));
  benchmark::AddCustomContext("wheel_tick_seconds",
                              std::to_string(geom.tick_seconds));
  benchmark::AddCustomContext("wheel_horizon_ticks",
                              std::to_string(geom.horizon_ticks));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
