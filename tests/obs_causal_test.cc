// Causal-tracing contract tests (docs/observability.md): trace/span id
// allocation, CausalSpan propagation and the null no-op path, the web
// call's span order, name interning, open-track bookkeeping, span-tree
// reconstruction, Perfetto flow-event rendering, and the --trace-summary
// CSV.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hw/profiles.h"
#include "hw/server_node.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "obs/critical_path.h"
#include "obs/energy.h"
#include "obs/export.h"
#include "obs/tracer.h"
#include "shard/ring.h"
#include "sim/process.h"
#include "sim/scheduler.h"
#include "web/backend.h"
#include "web/service.h"
#include "web/web_server.h"

namespace wimpy::obs {
namespace {

TEST(CausalIdTest, IdsStartAtOneAndNeverRepeat) {
  Tracer tracer;
  EXPECT_EQ(tracer.NewTraceId(), 1u);
  EXPECT_EQ(tracer.NewTraceId(), 2u);
  EXPECT_EQ(tracer.NewSpanId(), 1u);
  EXPECT_EQ(tracer.NewSpanId(), 2u);
  // Trace and span counters are independent streams.
  EXPECT_EQ(tracer.NewTraceId(), 3u);
}

TEST(CausalIdTest, InternDeduplicatesWithStablePointers) {
  Tracer tracer;
  const std::string dynamic = std::string("word") + "count";
  const char* a = tracer.Intern(dynamic);
  const char* b = tracer.Intern("wordcount");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "wordcount");
  const char* c = tracer.Intern("terasort");
  EXPECT_NE(a, c);
  // Interned names survive TakeLog (detached logs keep name pointers).
  tracer.InstantAt(0.0, a, Category::kApp, 0);
  TraceLog log = tracer.TakeLog();
  EXPECT_STREQ(log.events[0].name, "wordcount");
  EXPECT_EQ(tracer.Intern("wordcount"), a);
}

TEST(CausalIdTest, InternedNamesOutliveTheTracer) {
  // The sweep idiom: the per-replication tracer dies at replication end,
  // the detached log is exported from main afterwards. The log holds a
  // keepalive reference to the intern arena, so dynamic names stay valid.
  TraceLog log;
  {
    Tracer tracer;
    const std::string dynamic = std::string("tera") + "sort";
    tracer.InstantAt(0.0, tracer.Intern(dynamic), Category::kApp, 0);
    log = tracer.TakeLog();
  }
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_STREQ(log.events[0].name, "terasort");
}

sim::Process NestedSpans(sim::Scheduler& sched, Tracer& tracer) {
  TraceHandle root;
  root.tracer = &tracer;
  root.sched = &sched;
  root.track = 7;
  root.ctx.trace_id = tracer.NewTraceId();
  CausalSpan outer(root, "outer", Category::kRequest);
  co_await sim::Delay(sched, 1.0);
  {
    CausalSpan inner(outer.handle(), "inner", Category::kRequest, 42);
    inner.Instant("tick", 5);
    co_await sim::Delay(sched, 2.0);
  }
  co_await sim::Delay(sched, 0.5);
}

TEST(CausalSpanTest, PropagatesIdentityThroughHandles) {
  sim::Scheduler sched;
  Tracer tracer;
  sim::Spawn(sched, NestedSpans(sched, tracer));
  sched.Run();

  // outer B, inner B, tick i, inner E, outer E.
  ASSERT_EQ(tracer.size(), 5u);
  const auto& ev = tracer.events();
  EXPECT_EQ(ev[0].phase, 'B');
  EXPECT_EQ(std::string_view(ev[0].name), "outer");
  EXPECT_EQ(ev[0].trace_id, 1u);
  EXPECT_EQ(ev[0].parent_id, 0u);
  const std::uint64_t outer_id = ev[0].span_id;
  EXPECT_NE(outer_id, 0u);

  EXPECT_EQ(ev[1].phase, 'B');
  EXPECT_EQ(std::string_view(ev[1].name), "inner");
  EXPECT_EQ(ev[1].time, 1.0);
  EXPECT_EQ(ev[1].trace_id, 1u);
  EXPECT_EQ(ev[1].parent_id, outer_id);
  EXPECT_EQ(ev[1].arg, 42);
  const std::uint64_t inner_id = ev[1].span_id;
  EXPECT_NE(inner_id, outer_id);

  // Instants carry the trace and the enclosing span as parent.
  EXPECT_EQ(ev[2].phase, 'i');
  EXPECT_EQ(ev[2].trace_id, 1u);
  EXPECT_EQ(ev[2].parent_id, inner_id);
  EXPECT_EQ(ev[2].span_id, 0u);

  EXPECT_EQ(ev[3].phase, 'E');
  EXPECT_EQ(ev[3].time, 3.0);
  EXPECT_EQ(ev[3].span_id, inner_id);
  EXPECT_EQ(ev[4].phase, 'E');
  EXPECT_EQ(ev[4].time, 3.5);
  EXPECT_EQ(ev[4].span_id, outer_id);

  // The inherited track rides along on every event.
  for (const TraceEvent& e : ev) EXPECT_EQ(e.track, 7);
  EXPECT_EQ(tracer.open_tracks(), 0u);
}

TEST(CausalSpanTest, NullHandleIsCompleteNoOp) {
  sim::Scheduler sched;
  Tracer tracer;
  {
    CausalSpan noop(TraceHandle{}, "x", Category::kApp);
    noop.Instant("y");
    CausalSpan child(noop.handle(), "z", Category::kApp);
    EXPECT_FALSE(static_cast<bool>(child.handle()));
  }
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(CausalSpanTest, UnsampledSpanAndResidencyAreOneNullPointer) {
  // The per-connection memory contract (docs/scale.md): an unsampled
  // span or residency is one null pointer inside its coroutine frame.
  EXPECT_EQ(sizeof(CausalSpan), sizeof(void*));
  EXPECT_LE(sizeof(ScopedResidency), 24u);
  CausalSpan noop(TraceHandle{}, "x", Category::kApp);
  EXPECT_EQ(&noop.handle(), &kNullTraceHandle);
}

sim::Process ChurnSpans(sim::Scheduler& sched, TraceHandle root, int n) {
  for (int i = 0; i < n; ++i) {
    CausalSpan span(root, "churn", Category::kApp);
    co_await sim::Delay(sched, 0.1);
  }
}

sim::Process HoldSpan(sim::Scheduler& sched, TraceHandle root,
                      std::vector<TraceHandle>* seen) {
  CausalSpan span(root, "held", Category::kRequest, 3);
  const TraceHandle* handle = &span.handle();
  seen->push_back(*handle);
  // Other sampled spans take and return pooled records meanwhile.
  co_await sim::Delay(sched, 2.0);
  EXPECT_EQ(&span.handle(), handle);
  seen->push_back(*handle);
}

TEST(CausalSpanTest, SampledHandleKeepsItsIdsForTheSpansLife) {
  sim::Scheduler sched;
  Tracer tracer;
  TraceHandle root;
  root.tracer = &tracer;
  root.sched = &sched;
  root.track = 4;
  root.ctx.trace_id = tracer.NewTraceId();
  std::vector<TraceHandle> seen;
  sim::Spawn(sched, HoldSpan(sched, root, &seen));
  sim::Spawn(sched, ChurnSpans(sched, root, 10));
  sched.Run();

  ASSERT_EQ(seen.size(), 2u);
  for (const TraceHandle& h : seen) {
    EXPECT_EQ(h.tracer, &tracer);
    EXPECT_EQ(h.sched, &sched);
    EXPECT_EQ(h.track, 4);
    EXPECT_EQ(h.ctx.trace_id, root.ctx.trace_id);
    EXPECT_EQ(h.ctx.span_id, seen[0].ctx.span_id);
    EXPECT_EQ(h.ctx.parent_id, 0u);
  }
  EXPECT_NE(seen[0].ctx.span_id, 0u);
  // The end record carries the ids the span began with.
  const TraceEvent& end = tracer.events().back();
  EXPECT_EQ(std::string_view(end.name), "held");
  EXPECT_EQ(end.phase, 'E');
  EXPECT_EQ(end.span_id, seen[0].ctx.span_id);
  EXPECT_EQ(end.arg, 3);
}

sim::Process TransferOnce(net::Fabric& fabric, const TraceHandle* trace,
                          SimTime* done) {
  if (trace != nullptr) {
    co_await fabric.Transfer(0, 1, KB(64), *trace, "x");
  } else {
    co_await fabric.Transfer(0, 1, KB(64));
  }
  *done = fabric.scheduler().now();
}

// Runs one 64 KB transfer between two nodes and returns its finish time
// and the engine events it took; `trace` null uses the 3-argument form.
std::pair<SimTime, std::size_t> RunTransfer(const TraceHandle* trace,
                                            sim::Scheduler& sched) {
  net::Fabric fabric(&sched);
  hw::ServerNode a(&sched, hw::EdisonProfile(), 0);
  hw::ServerNode b(&sched, hw::EdisonProfile(), 1);
  fabric.AddNode(&a, "room");
  fabric.AddNode(&b, "room");
  SimTime done = -1;
  sim::Spawn(sched, TransferOnce(fabric, trace, &done));
  sched.Run();
  return {done, sched.executed_events()};
}

TEST(CausalSpanTest, NullHandleTransferIsThePlainTransfer) {
  sim::Scheduler plain_sched;
  const auto plain = RunTransfer(nullptr, plain_sched);
  ASSERT_GT(plain.first, 0.0);

  sim::Scheduler null_sched;
  const TraceHandle null_handle;
  EXPECT_EQ(RunTransfer(&null_handle, null_sched), plain);

  // Sampled: the same transfer, bracketed by one "x" net span.
  sim::Scheduler traced_sched;
  Tracer tracer;
  TraceHandle root;
  root.tracer = &tracer;
  root.sched = &traced_sched;
  root.ctx.trace_id = tracer.NewTraceId();
  EXPECT_EQ(RunTransfer(&root, traced_sched), plain);
  ASSERT_EQ(tracer.size(), 2u);
  EXPECT_EQ(std::string_view(tracer.events()[0].name), "x");
  EXPECT_EQ(tracer.events()[0].category, Category::kNet);
  EXPECT_EQ(tracer.events()[0].arg, KB(64));
  EXPECT_EQ(tracer.events()[1].time, plain.first);
}

TEST(CausalSpanTest, EmptyTracedTransferStillRecordsItsSpan) {
  // An empty transfer completes without suspending or an engine event,
  // but a sampled one still brackets a zero-length "x" span, as a
  // message with no payload still carries its context header.
  sim::Scheduler sched;
  Tracer tracer;
  TraceHandle root;
  root.tracer = &tracer;
  root.sched = &sched;
  root.ctx.trace_id = tracer.NewTraceId();
  net::Fabric fabric(&sched);
  hw::ServerNode a(&sched, hw::EdisonProfile(), 0);
  hw::ServerNode b(&sched, hw::EdisonProfile(), 1);
  fabric.AddNode(&a, "room");
  fabric.AddNode(&b, "room");
  SimTime done = -1;
  auto xfer = [&]() -> sim::Process {
    co_await sim::Delay(sched, 0.5);
    co_await fabric.Transfer(0, 1, 0, root, "empty");
    done = sched.now();
  };
  sim::Spawn(sched, xfer());
  EXPECT_EQ(sched.Run(), 2u);  // the spawn and the delay: nothing else
  EXPECT_EQ(done, 0.5);
  ASSERT_EQ(tracer.size(), 2u);
  for (const TraceEvent& e : tracer.events()) {
    EXPECT_EQ(std::string_view(e.name), "empty");
    EXPECT_EQ(e.category, Category::kNet);
    EXPECT_EQ(e.time, 0.5);
    EXPECT_EQ(e.arg, 0);
    EXPECT_EQ(e.parent_id, 0u);
  }
  EXPECT_EQ(tracer.events()[0].phase, 'B');
  EXPECT_EQ(tracer.events()[1].phase, 'E');
  EXPECT_EQ(tracer.events()[0].span_id, tracer.events()[1].span_id);
}

// One sampled web call on a four-node rig (web, cache, db, client), with
// the web node's energy attributed. `window` brackets an energy window
// [begin, end] when end > begin.
struct WebCallRun {
  std::vector<TraceEvent> events;
  web::CallResult result;
  EnergyLedger ledger;
};

WebCallRun RunWebCall(SimTime window_begin = 0, SimTime window_end = 0) {
  sim::Scheduler sched;
  net::Fabric fabric(&sched);
  // The Edison room with the client room attached; the Dell room has no
  // link at all.
  net::HierarchicalTopology rooms(&fabric,
                                  {.racks = 1, .rack_name = "edison-room"});
  rooms.AttachToCore("client-room", net::kClientEdisonLink);
  hw::ServerNode web_node(&sched, hw::EdisonProfile(), 0);
  hw::ServerNode cache_node(&sched, hw::EdisonProfile(), 1);
  hw::ServerNode db_node(&sched, hw::DellR620Profile(), 2);
  hw::ServerNode client_node(&sched, hw::DellR620Profile(), 3);
  fabric.AddNode(&web_node, "edison-room");
  fabric.AddNode(&cache_node, "edison-room");
  fabric.AddNode(&db_node, "dell-room");
  fabric.AddNode(&client_node, "client-room");
  web::CacheServer cache(&cache_node, &fabric);
  web::DatabaseServer db(&db_node, &fabric, 7);
  const shard::Ring ring(shard::RingConfig{}, {0});
  web::WebServer server(&web_node, &fabric, {&cache}, ring, {&db},
                        web::EdisonWebConfig(), 11);
  EnergyAttributor energy;
  web_node.ObserveEnergy(&energy);
  server.set_energy(&energy);
  if (window_end > window_begin) {
    sched.ScheduleAt(window_begin, [&] { energy.BeginWindow(); });
    sched.ScheduleAt(window_end, [&] { energy.EndWindow(); });
  }
  Tracer tracer;
  TraceHandle root;
  root.tracer = &tracer;
  root.sched = &sched;
  root.ctx.trace_id = tracer.NewTraceId();

  WebCallRun run;
  auto call = [&]() -> sim::Process {
    web::WebServer::ReplyOp reply =
        co_await server.Serve(3, web::RequestSpec{false, KB(8), true}, root);
    run.result = co_await reply;
  };
  sim::Spawn(sched, call());
  sched.Run();
  run.ledger = energy.TakeLedger();
  run.events = tracer.events();
  return run;
}

TEST(CausalSpanTest, WebCallSpansNestAndCloseInOrder) {
  const WebCallRun run = RunWebCall();
  ASSERT_TRUE(run.result.ok);
  std::vector<std::string> order;
  for (const TraceEvent& e : run.events) {
    order.push_back(std::string(1, e.phase) + " " + e.name);
  }
  // The request arrives, serve opens, the cache fetch nests in it, and
  // the reply transfer nests in serve and ends before serve does.
  EXPECT_EQ(order,
            (std::vector<std::string>{"B req_xfer", "E req_xfer", "B serve",
                                      "B cache", "E cache", "B reply_xfer",
                                      "E reply_xfer", "E serve"}));
  const TraceEvent& serve_begin = run.events[2];
  const TraceEvent& reply_begin = run.events[5];
  const TraceEvent& reply_end = run.events[6];
  const TraceEvent& serve_end = run.events[7];
  EXPECT_EQ(serve_begin.parent_id, 0u);
  EXPECT_EQ(reply_begin.parent_id, serve_begin.span_id);
  EXPECT_EQ(reply_begin.category, Category::kNet);
  EXPECT_EQ(reply_begin.arg, KB(8));
  EXPECT_EQ(serve_end.span_id, serve_begin.span_id);
  // The reply ends, the call is counted and serve ends at one instant.
  EXPECT_EQ(serve_end.time, reply_end.time);
  EXPECT_EQ(serve_end.time - serve_begin.time, run.result.total);

  // The serve residency covers exactly the serve span: over a window
  // that is that span, all of the web node's energy is serve's.
  const WebCallRun windowed = RunWebCall(serve_begin.time, serve_end.time);
  ASSERT_EQ(windowed.events.size(), run.events.size());
  ASSERT_EQ(windowed.ledger.rows.size(), 1u);
  const SpanEnergyRow& serve = windowed.ledger.rows[0];
  EXPECT_EQ(std::string_view(serve.name), "serve");
  EXPECT_EQ(serve.span_id, serve_begin.span_id);
  EXPECT_GT(serve.joules, 0.0);
  EXPECT_DOUBLE_EQ(serve.joules, windowed.ledger.window_joules);
}

TEST(TracerTest, BalancedTracksAreErasedFromOpenSet) {
  Tracer tracer;
  for (int track = 0; track < 100; ++track) {
    tracer.BeginSpanAt(0.1 * track, "s", Category::kApp, track);
    tracer.EndSpanAt(0.1 * track + 0.05, "s", Category::kApp, track);
  }
  // Every track balanced back to zero: the map must not retain 100
  // dead entries (the long-run growth bug this pins).
  EXPECT_EQ(tracer.open_tracks(), 0u);
  tracer.BeginSpanAt(11.0, "open", Category::kApp, 3);
  EXPECT_EQ(tracer.open_tracks(), 1u);
  EXPECT_EQ(tracer.open_spans(3), 1);
}

// Emits one complete causal span into `t`.
void Span(Tracer& t, const char* name, SimTime b, SimTime e,
          std::uint64_t trace, std::uint64_t span, std::uint64_t parent,
          std::int32_t track = 0) {
  t.BeginSpanAt(b, name, Category::kRequest, track,
                TraceContext{trace, span, parent});
  t.EndSpanAt(e, name, Category::kRequest, track,
              TraceContext{trace, span, parent});
}

TEST(TraceTreeTest, RebuildsNestingAndFlagsIncompleteSpans) {
  Tracer tracer;
  tracer.BeginSpanAt(0.0, "root", Category::kRequest, 0,
                     TraceContext{9, 1, 0});
  Span(tracer, "child", 1.0, 2.0, 9, 2, 1);
  // Engine-style non-causal events are ignored by the tree builder.
  tracer.InstantAt(1.5, "engine", Category::kEngine, 0);
  // The root's end is missing: horizon (max log time) closes it.
  tracer.InstantAt(4.0, "late", Category::kApp, 0, TraceContext{9, 0, 1});
  TraceLog log = tracer.TakeLog();

  const std::vector<TraceTree> trees = BuildTraceTrees(log);
  ASSERT_EQ(trees.size(), 1u);
  const TraceTree& tree = trees[0];
  EXPECT_EQ(tree.trace_id, 9u);
  EXPECT_FALSE(tree.complete);
  ASSERT_EQ(tree.spans.size(), 2u);
  const SpanRecord& root = tree.spans[tree.root];
  EXPECT_EQ(std::string_view(root.name), "root");
  EXPECT_FALSE(root.complete);
  EXPECT_EQ(root.end, 4.0);  // closed at the log horizon
  ASSERT_EQ(root.children.size(), 1u);
  const SpanRecord& child = tree.spans[root.children[0]];
  EXPECT_EQ(std::string_view(child.name), "child");
  EXPECT_TRUE(child.complete);
  ASSERT_EQ(tree.instants.size(), 1u);
  EXPECT_EQ(std::string_view(tree.instants[0].name), "late");
  EXPECT_EQ(tree.instants[0].parent_id, 1u);
}

std::size_t CountOccurrences(const std::string& doc,
                             const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = doc.find(needle); pos != std::string::npos;
       pos = doc.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(FlowEventTest, CrossTrackChildrenGetFlowArrows) {
  Tracer tracer;
  tracer.BeginSpanAt(0.0, "job", Category::kApp, 0, TraceContext{1, 1, 0});
  // Same-track child: no flow arrow.
  Span(tracer, "local", 0.5, 0.8, 1, 2, 1, /*track=*/0);
  // Cross-track child: flow start on the parent's track, finish (bound
  // to the enclosing slice) on the child's, both at the child's begin.
  Span(tracer, "attempt", 1.0, 3.0, 1, 3, 1, /*track=*/5);
  tracer.EndSpanAt(4.0, "job", Category::kApp, 0, TraceContext{1, 1, 0});
  TraceLog log = tracer.TakeLog();

  const std::string doc = RenderChromeTrace({log});
  EXPECT_EQ(CountOccurrences(doc, "\"ph\":\"s\""), 1u);
  EXPECT_EQ(CountOccurrences(doc, "\"ph\":\"f\""), 1u);
  EXPECT_EQ(CountOccurrences(doc, "\"id\":\"p0.s3\""), 2u);
  EXPECT_NE(doc.find("\"ph\":\"s\",\"ts\":1000000,\"pid\":0,\"tid\":0"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"ph\":\"f\",\"ts\":1000000,\"pid\":0,\"tid\":5,"
                     "\"bp\":\"e\""),
            std::string::npos)
      << doc;
  // Causal ids ride in the args of the span events themselves.
  EXPECT_NE(doc.find("\"trace\":1,\"span\":3,\"parent\":1"),
            std::string::npos);
}

TEST(TraceSummaryTest, CsvJoinsTreesWithLedgerJoules) {
  Tracer tracer;
  tracer.BeginSpanAt(0.5, "query", Category::kRequest, 0,
                     TraceContext{1, 1, 0});
  Span(tracer, "get", 0.75, 1.0, 1, 2, 1);
  tracer.EndSpanAt(1.5, "query", Category::kRequest, 0,
                   TraceContext{1, 1, 0});
  Span(tracer, "query", 2.0, 2.25, 2, 3, 0);
  TraceLog log = tracer.TakeLog();

  EnergyLedger ledger;
  ledger.rows.push_back(SpanEnergyRow{1, 1, "query", 0, 0.5});
  ledger.rows.push_back(SpanEnergyRow{1, 2, "get", 0, 0.25});
  ledger.rows.push_back(SpanEnergyRow{2, 3, "query", 0, 0.125});

  const std::string csv = RenderTraceSummaryCsv({log}, {ledger});
  const std::string expected =
      "series,trace_id,root,begin_s,latency_s,spans,complete,joules\n"
      "0,1,query,0.5,1,2,1,0.75\n"
      "0,2,query,2,0.25,1,1,0.125\n";
  EXPECT_EQ(csv, expected);

  // No ledger: the joules column degrades to 0 instead of misaligning.
  const std::string no_energy = RenderTraceSummaryCsv({log}, {});
  EXPECT_NE(no_energy.find("0,1,query,0.5,1,2,1,0\n"), std::string::npos);
}

}  // namespace
}  // namespace wimpy::obs
