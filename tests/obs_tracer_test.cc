// obs::Tracer unit and contract tests (docs/observability.md): span
// nesting, the scheduler engine hook, the byte-identical-at-any---threads
// determinism guarantee, and a line-oriented schema check of the Chrome
// trace-event JSON exporter.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "obs/export.h"
#include "obs/tracer.h"
#include "sim/process.h"
#include "sim/replication.h"
#include "sim/scheduler.h"

namespace wimpy::obs {
namespace {

TEST(TracerTest, SpanNestingIsTrackedPerTrack) {
  Tracer tracer;
  tracer.BeginSpanAt(0.0, "outer", Category::kRequest, 1);
  tracer.BeginSpanAt(0.5, "inner", Category::kRequest, 1);
  tracer.BeginSpanAt(0.7, "other", Category::kTask, 2);
  EXPECT_EQ(tracer.open_spans(1), 2);
  EXPECT_EQ(tracer.open_spans(2), 1);
  EXPECT_EQ(tracer.open_spans(99), 0);

  tracer.EndSpanAt(1.0, "inner", Category::kRequest, 1);
  EXPECT_EQ(tracer.open_spans(1), 1);
  tracer.EndSpanAt(2.0, "outer", Category::kRequest, 1);
  tracer.EndSpanAt(2.5, "other", Category::kTask, 2);
  EXPECT_EQ(tracer.open_spans(1), 0);
  EXPECT_EQ(tracer.open_spans(2), 0);

  // Phases recorded in stream order with tracer-local increasing seq.
  ASSERT_EQ(tracer.size(), 6u);
  const std::string phases = {
      tracer.events()[0].phase, tracer.events()[1].phase,
      tracer.events()[2].phase, tracer.events()[3].phase,
      tracer.events()[4].phase, tracer.events()[5].phase};
  EXPECT_EQ(phases, "BBBEEE");
  for (std::size_t i = 1; i < tracer.size(); ++i) {
    EXPECT_GT(tracer.events()[i].seq, tracer.events()[i - 1].seq);
  }
}

sim::Process SpannedWork(sim::Scheduler& sched, Tracer& tracer) {
  ScopedSpan span(&tracer, &sched, "work", Category::kApp, 5, 11);
  co_await sim::Delay(sched, 2.5);
}

TEST(TracerTest, ScopedSpanEndsAtDestructionTimeAcrossCoAwait) {
  sim::Scheduler sched;
  Tracer tracer;
  sim::Spawn(sched, SpannedWork(sched, tracer));
  sched.Run();

  ASSERT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.events()[0].phase, 'B');
  EXPECT_EQ(tracer.events()[0].time, 0.0);
  EXPECT_EQ(tracer.events()[0].arg, 11);
  EXPECT_EQ(tracer.events()[1].phase, 'E');
  EXPECT_EQ(tracer.events()[1].time, 2.5);
  EXPECT_EQ(tracer.open_spans(5), 0);

  // A null-tracer guard is a complete no-op.
  { ScopedSpan noop(nullptr, &sched, "x", Category::kApp, 1); }
  EXPECT_EQ(tracer.size(), 2u);
}

TEST(TracerTest, EngineHookRecordsEveryExecutedEvent) {
  sim::Scheduler sched;
  Tracer tracer;
  tracer.AttachEngineHook(&sched);
  for (int i = 0; i < 5; ++i) {
    sched.ScheduleAt(1.0 + i, [&sched] {
      sched.ScheduleAfter(0.25, [] {});  // nested: also hooked
    });
  }
  sched.Run();

  EXPECT_EQ(tracer.size(), sched.executed_events());
  // seq is the engine's schedule-order number: unique per event, and
  // execution time never decreases along the stream.
  std::set<std::uint64_t> seqs;
  SimTime prev_time = 0;
  for (const TraceEvent& e : tracer.events()) {
    EXPECT_EQ(e.category, Category::kEngine);
    EXPECT_EQ(e.phase, 'i');
    EXPECT_TRUE(seqs.insert(e.seq).second) << "duplicate seq " << e.seq;
    EXPECT_GE(e.time, prev_time);
    prev_time = e.time;
  }

  // Detaching stops recording without disturbing the scheduler.
  const std::size_t before = tracer.size();
  tracer.DetachEngineHook();
  sched.ScheduleAfter(1.0, [] {});
  sched.Run();
  EXPECT_EQ(tracer.size(), before);
}

TEST(TracerTest, EngineHookDetachesOnTracerDestruction) {
  sim::Scheduler sched;
  {
    Tracer tracer;
    tracer.AttachEngineHook(&sched);
    sched.ScheduleAt(1.0, [] {});
    sched.Run();
    EXPECT_EQ(tracer.size(), 1u);
  }
  // The destroyed tracer restored the null hook; executing more events
  // must not touch freed memory.
  sched.ScheduleAfter(1.0, [] {});
  sched.Run();
  EXPECT_EQ(sched.executed_events(), 2u);
}

// One sweep replication: a small deterministic simulation whose trace
// (instants and spans on several tracks) depends only on the root Rng.
TraceLog TraceReplication(int events, Rng& root) {
  sim::Scheduler sched;
  auto tracer = std::make_unique<Tracer>();
  Rng rng = root.Fork();
  for (int i = 0; i < events; ++i) {
    const SimTime at = rng.Uniform(0.0, 10.0);
    const std::int32_t track = i % 3;
    sched.ScheduleAt(at, [&sched, t = tracer.get(), track, i] {
      t->BeginSpanAt(sched.now(), "op", Category::kApp, track, i);
      t->InstantAt(sched.now(), "tick", Category::kApp, track, i);
      t->EndSpanAt(sched.now(), "op", Category::kApp, track, i);
    });
  }
  sched.Run();
  return tracer->TakeLog();
}

std::string RenderSweepTrace(int threads) {
  const std::vector<int> configs = {4, 9};
  const sim::SweepPlan plan{/*replications=*/3, threads,
                            /*base_seed=*/20160901};
  auto sweep = sim::RunSweep(configs, plan, TraceReplication);
  std::vector<TraceLog> logs;
  for (auto& per_config : sweep) {
    for (auto& log : per_config) logs.push_back(std::move(log));
  }
  return RenderChromeTrace(logs);
}

TEST(TracerTest, ExportedTraceIsByteIdenticalAtAnyThreadCount) {
  const std::string serial = RenderSweepTrace(1);
  const std::string parallel = RenderSweepTrace(4);
  EXPECT_GT(serial.size(), 100u);
  EXPECT_EQ(serial, parallel);
}

// --- Chrome trace-event JSON schema -----------------------------------

std::vector<std::string> SplitLines(const std::string& doc) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < doc.size()) {
    std::size_t end = doc.find('\n', start);
    if (end == std::string::npos) end = doc.size();
    lines.push_back(doc.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

double NumberAfter(const std::string& line, const std::string& key) {
  const std::size_t pos = line.find(key);
  EXPECT_NE(pos, std::string::npos) << key << " missing in: " << line;
  if (pos == std::string::npos) return 0;
  return std::stod(line.substr(pos + key.size()));
}

TEST(TracerExportTest, ChromeTraceSchemaHoldsLineByLine) {
  sim::Scheduler sched;
  Tracer tracer;
  tracer.BeginSpanAt(0.0, "req", Category::kRequest, 1, 3);
  tracer.InstantAt(0.001, "syn_retry", Category::kNet, 1);
  tracer.EndSpanAt(0.0025, "req", Category::kRequest, 1, 3);
  tracer.InstantAt(0.004, "tick", Category::kApp, 2);
  TraceLog a = tracer.TakeLog();
  tracer.InstantAt(0.5, "tick", Category::kApp, 0);
  TraceLog b = tracer.TakeLog();

  const std::string doc = RenderChromeTrace({a, b});
  const std::vector<std::string> lines = SplitLines(doc);
  ASSERT_GE(lines.size(), 4u);
  EXPECT_EQ(lines.front(), "{\"traceEvents\":[");
  EXPECT_EQ(lines.back(), "]}");

  // Every event line carries the required keys; `ts` is monotonically
  // non-decreasing per (pid, tid) track.
  std::map<std::pair<int, int>, double> last_ts;
  std::size_t event_lines = 0;
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    const std::string& line = lines[i];
    ++event_lines;
    EXPECT_NE(line.find("\"ph\":\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"name\":\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"ts\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"cat\":\""), std::string::npos) << line;
    if (line.find("\"ph\":\"i\"") != std::string::npos) {
      // Instant scope is required for Perfetto to render the tick.
      EXPECT_NE(line.find("\"s\":\"t\""), std::string::npos) << line;
    }
    const int pid = static_cast<int>(NumberAfter(line, "\"pid\":"));
    const int tid = static_cast<int>(NumberAfter(line, "\"tid\":"));
    const double ts = NumberAfter(line, "\"ts\":");
    const auto key = std::make_pair(pid, tid);
    const auto it = last_ts.find(key);
    if (it != last_ts.end()) EXPECT_GE(ts, it->second) << line;
    last_ts[key] = ts;
  }
  EXPECT_EQ(event_lines, a.events.size() + b.events.size());

  // ts is simulated microseconds: 0.0025 s -> 2500 us on pid 0, and the
  // second log's events land on pid 1.
  EXPECT_NE(doc.find("\"ts\":2500,\"pid\":0"), std::string::npos);
  EXPECT_NE(doc.find("\"ts\":500000,\"pid\":1"), std::string::npos);
}

TEST(TracerExportTest, NamesAreJsonEscaped) {
  Tracer tracer;
  tracer.InstantAt(0.0, "quote\"back\\slash", Category::kApp, 0);
  TraceLog log = tracer.TakeLog();
  const std::string doc = RenderChromeTrace({log});
  EXPECT_NE(doc.find("quote\\\"back\\\\slash"), std::string::npos);
}

}  // namespace
}  // namespace wimpy::obs
