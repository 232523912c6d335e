// Deterministic event tracing for the simulation engine and the workload
// layers (see docs/observability.md).
//
// A `Tracer` records a flat, execution-ordered stream of trace events:
// engine-level per-event hooks (time, sequence number) wired into
// `sim::Scheduler`, and explicit application-level instants and
// begin/end spans emitted by instrumented components (web requests,
// MapReduce tasks, network timeouts). Spans can additionally carry a
// causal identity (`TraceContext`: trace/span/parent ids) so a sampled
// request forms a cross-node span tree that obs::BuildTraceTrees
// (obs/critical_path.h) and the critical-path analyzer
// tools/trace_analyze.py can reconstruct from the export alone. The stream is a pure function of the simulation — no
// wall-clock, no pointers, no thread identity — so a trace taken at any
// `--threads` count is byte-identical for the same seed once
// per-replication tracers are merged in index order (the same contract
// as `sim::RunSweep` results).
//
// Overhead contract:
//  * Call sites hold a `Tracer*` that is null by default. The null
//    pointer is the one off switch: an uninstrumented run performs no
//    calls at all, and every Tracer records what it is given.
//  * The engine hook costs the scheduler one null-check per executed
//    event when no tracer is attached. tools/ab.sh fails a change whose
//    bench_engine_micro BM_SchedulerEventThroughput/100000 loses more
//    than 2% in the median of its alternating pairs against the base
//    commit, when a sign test finds the loss significant. On a shared
//    4-CPU host its 40 pairs resolve a ~10% loss, not a 2% one.
#ifndef WIMPY_OBS_TRACER_H_
#define WIMPY_OBS_TRACER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.h"
#include "obs/context.h"
#include "sim/frame_pool.h"
#include "sim/scheduler.h"

namespace wimpy::obs {

// Coarse event taxonomy; exported as the Chrome trace `cat` field.
enum class Category : std::uint8_t {
  kEngine = 0,  // scheduler-executed events (engine hook)
  kRequest,     // web connections/calls
  kTask,        // MapReduce map/reduce tasks
  kNet,         // TCP/fabric events (SYN drops, timeouts)
  kApp,         // anything else (tests, experiments)
  kAlert,       // telemetry alert-rule firings (obs/telemetry.h)
  kHealth,      // per-node health-score samples (obs::NodeHealth)
};
const char* CategoryName(Category category);

// One trace record. `name` must point at a string with static lifetime —
// either a literal or a string interned through `Tracer::Intern` (which
// outlives every log taken from that tracer); events are plain values so
// logs can be moved across threads and merged.
struct TraceEvent {
  SimTime time = 0;
  // Engine sequence number for kEngine hook events; a tracer-local
  // monotonic counter otherwise. Strictly increasing within one tracer
  // for a given source, which makes traces diffable.
  std::uint64_t seq = 0;
  const char* name = "";
  std::int64_t arg = 0;
  std::int32_t track = 0;  // Chrome trace `tid`: one logical timeline
  Category category = Category::kApp;
  char phase = 'i';  // 'i' instant, 'B' span begin, 'E' span end
  // Causal identity (0 = none). Span begins/ends carry all three;
  // causal instants carry trace_id + parent_id (the enclosing span).
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
};

// A detached, mergeable trace: what a replication returns from a sweep.
// `interned` shares ownership of the originating tracer's intern arena,
// so `name` pointers produced by `Tracer::Intern` stay valid even after
// the per-replication tracer is destroyed (the sweep idiom: tracers die
// at replication end, logs are exported from main afterwards).
struct TraceLog {
  std::vector<TraceEvent> events;
  std::shared_ptr<const std::set<std::string, std::less<>>> interned;
};

class Tracer {
 public:
  Tracer() = default;
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // --- causal identity --------------------------------------------------
  // Fresh ids for a new request/job tree or a new span within one.
  // Tracer-local counters: deterministic, never reused, never 0.
  std::uint64_t NewTraceId() { return next_trace_id_++; }
  std::uint64_t NewSpanId() { return next_span_id_++; }

  // Interns a dynamic span name (e.g. a per-node label or a job name)
  // and returns a pointer suitable for `TraceEvent::name`, valid as long
  // as the tracer or any log taken from it lives (TakeLog gives each
  // detached log shared ownership of the arena). Deduplicated: interning
  // the same text twice returns the same pointer. Never cleared.
  const char* Intern(std::string_view name);

  // --- explicit-time records -------------------------------------------
  // The *At forms take the timestamp explicitly so non-engine clocks
  // (e.g. the reference scheduler in tests) can share one tracer.
  void InstantAt(SimTime t, const char* name, Category category,
                 std::int32_t track, std::int64_t arg = 0) {
    Record(t, name, category, track, arg, 'i', TraceContext{});
  }
  // Causal instant: belongs to `ctx.trace_id`, nested under
  // `ctx.parent_id` (callers pass the enclosing span's id there).
  void InstantAt(SimTime t, const char* name, Category category,
                 std::int32_t track, const TraceContext& ctx,
                 std::int64_t arg = 0) {
    Record(t, name, category, track, arg, 'i', ctx);
  }
  void BeginSpanAt(SimTime t, const char* name, Category category,
                   std::int32_t track, std::int64_t arg = 0) {
    BeginSpanAt(t, name, category, track, TraceContext{}, arg);
  }
  void BeginSpanAt(SimTime t, const char* name, Category category,
                   std::int32_t track, const TraceContext& ctx,
                   std::int64_t arg = 0) {
    ++open_spans_[track];
    Record(t, name, category, track, arg, 'B', ctx);
  }
  void EndSpanAt(SimTime t, const char* name, Category category,
                 std::int32_t track, std::int64_t arg = 0) {
    EndSpanAt(t, name, category, track, TraceContext{}, arg);
  }
  void EndSpanAt(SimTime t, const char* name, Category category,
                 std::int32_t track, const TraceContext& ctx,
                 std::int64_t arg = 0) {
    auto it = open_spans_.find(track);
    if (it != open_spans_.end() && --it->second <= 0) {
      // Erase balanced tracks so long runs with millions of sampled
      // request timelines don't grow the map without bound.
      open_spans_.erase(it);
    }
    Record(t, name, category, track, arg, 'E', ctx);
  }

  // --- engine hook ------------------------------------------------------
  // Records every event the scheduler executes as a kEngine instant
  // (time = execution time, seq = the engine's global sequence number,
  // track 0). One tracer per scheduler; attaching replaces any previous
  // hook, detaching (or destruction) restores the null hook.
  void AttachEngineHook(sim::Scheduler* sched);
  void DetachEngineHook();

  // --- introspection ----------------------------------------------------
  // Read-only view of the recorded stream in execution order. The arena
  // chunks are flattened into a contiguous vector on first call (O(n)
  // memcpy) and the result is cached: repeated calls while no new events
  // arrive are O(1) and return the same vector object, so references and
  // iterators obtained after recording finished stay valid until the next
  // record/Clear/TakeLog.
  const std::vector<TraceEvent>& events() const {
    if (flat_cache_.size() != count_) Flatten();
    return flat_cache_;
  }
  // Currently-open span depth on a track (0 when balanced). Tests use
  // this to pin span nesting.
  int open_spans(std::int32_t track) const;
  // Number of tracks with at least one open span — the unbalanced-span
  // check: 0 after a fully drained run (tracks balance back to zero and
  // are erased).
  std::size_t open_tracks() const { return open_spans_.size(); }
  std::size_t size() const { return count_; }

  // Moves the recorded stream out (e.g. into a sweep result), leaving the
  // tracer empty but still attached. Arena chunks are recycled
  // into the freelist, so a tracer that records/takes in a loop reaches a
  // steady state with zero allocations per cycle.
  TraceLog TakeLog();

  // Arena telemetry (bench JSON context): chunks newly allocated vs
  // recycled from the freelist over the tracer's lifetime.
  std::size_t arena_chunk_allocs() const { return chunk_allocs_; }
  std::size_t arena_chunk_reuses() const { return chunk_reuses_; }

 private:
  // Records live in fixed 16 Ki-event chunks (1 MiB of 64-byte events)
  // filled by bump pointer. Compared to a flat vector this removes the
  // doubling-growth copy storms from the hot record path (a 100k-event
  // trace used to re-memcpy ~2x its size) and lets Clear/TakeLog recycle
  // chunks through a freelist instead of re-touching pages. Chunks are
  // raw byte storage: slots are placement-new'd on record, so a fresh
  // chunk costs one allocation, not a 1 MiB value-initialisation sweep
  // (TraceEvent is trivially copyable and trivially destructible, which
  // the flatten memcpy below relies on).
  static constexpr std::size_t kChunkEvents = 16384;
  using ChunkPtr = std::unique_ptr<std::byte[]>;
  static TraceEvent* ChunkData(const ChunkPtr& chunk) {
    return reinterpret_cast<TraceEvent*>(chunk.get());
  }

  static void EngineTrampoline(void* ctx, SimTime t, std::uint64_t seq);

  void NewChunk();
  void Flatten() const;
  void RecycleChunks();

  void Record(SimTime t, const char* name, Category category,
              std::int32_t track, std::int64_t arg, char phase,
              const TraceContext& ctx) {
    if (cur_ == cur_end_) NewChunk();
    ::new (static_cast<void*>(cur_++))
        TraceEvent{t, next_seq_++, name, arg, track, category, phase,
                   ctx.trace_id, ctx.span_id, ctx.parent_id};
    ++count_;
  }

  std::uint64_t next_seq_ = 1;
  std::uint64_t next_trace_id_ = 1;
  std::uint64_t next_span_id_ = 1;
  sim::Scheduler* hooked_ = nullptr;
  std::vector<ChunkPtr> chunks_;       // recording order
  std::vector<ChunkPtr> free_chunks_;  // recycled by Clear/TakeLog
  TraceEvent* cur_ = nullptr;          // bump pointer into chunks_.back()
  TraceEvent* cur_end_ = nullptr;
  std::size_t count_ = 0;
  std::size_t chunk_allocs_ = 0;
  std::size_t chunk_reuses_ = 0;
  // events() cache; flat_cache_.size() == count_ means it is current
  // (count_ only grows between rebuilds; every reset path clears both).
  mutable std::vector<TraceEvent> flat_cache_;
  std::map<std::int32_t, int> open_spans_;
  // Node-stable storage: set elements never move, so the returned
  // c_str() pointers stay valid for the arena's lifetime. Shared so
  // TakeLog can hand each detached log a keepalive reference.
  std::shared_ptr<std::set<std::string, std::less<>>> interned_ =
      std::make_shared<std::set<std::string, std::less<>>>();
};

// Root handle of a new trace tree on `track`: a fresh trace id under
// `tracer`, or the null handle when `tracer` is null. Every causal tree
// (a sampled request, a MapReduce job, a shard migration) starts here.
inline TraceHandle RootTrace(Tracer* tracer, sim::Scheduler* sched,
                             std::int32_t track) {
  if (tracer == nullptr) return kNullTraceHandle;
  return TraceHandle{tracer, sched, track, TraceContext{tracer->NewTraceId()}};
}

// RAII span: begins on construction, ends (at the scheduler's then-current
// time) on destruction — robust to early co_return in coroutine processes.
// A default-constructed or null-tracer guard is a no-op.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Tracer* tracer, sim::Scheduler* sched, const char* name,
             Category category, std::int32_t track, std::int64_t arg = 0)
      : tracer_(tracer), sched_(sched), name_(name), category_(category),
        track_(track), arg_(arg) {
    if (tracer_ != nullptr) {
      tracer_->BeginSpanAt(sched_->now(), name_, category_, track_, arg_);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->EndSpanAt(sched_->now(), name_, category_, track_, arg_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  sim::Scheduler* sched_ = nullptr;
  const char* name_ = "";
  Category category_ = Category::kApp;
  std::int32_t track_ = 0;
  std::int64_t arg_ = 0;
};

// RAII *causal* span: allocates a span id under `parent`'s context,
// begins on construction, ends on destruction. `handle()` is the context
// to propagate into callees (its `ctx.span_id` is this span, so children
// constructed from it nest correctly). With a null-tracer parent the
// whole object is one null pointer and `handle()` is the shared null
// handle — one branch per layer, zero allocations. A sampled span keeps
// its handle, name, category and arg in a record taken from the frame
// pool, so the handle a callee borrows stays put for the span's life.
class CausalSpan {
 public:
  CausalSpan() = default;
  // Inherits the parent's track (the common nested-span case).
  CausalSpan(const TraceHandle& parent, const char* name, Category category,
             std::int64_t arg = 0)
      : CausalSpan(parent, parent.track, name, category, arg) {}
  // Explicit track: cross-node children that get their own timeline
  // (e.g. MapReduce task attempts under the job span). The exporter
  // renders a Perfetto flow arrow when parent and child tracks differ.
  CausalSpan(const TraceHandle& parent, std::int32_t track,
             const char* name, Category category, std::int64_t arg = 0) {
    if (parent.tracer == nullptr) return;
    rec_ = ::new (sim::PoolAlloc(sizeof(Record)))
        Record{parent, name, category, arg};
    TraceHandle& h = rec_->h;
    h.track = track;
    h.ctx.parent_id = parent.ctx.span_id;
    h.ctx.span_id = h.tracer->NewSpanId();
    h.tracer->BeginSpanAt(h.sched->now(), name, category, track, h.ctx, arg);
  }
  ~CausalSpan() { End(); }

  CausalSpan(const CausalSpan&) = delete;
  CausalSpan& operator=(const CausalSpan&) = delete;
  // Moving hands the open span over; `handle()` references stay valid.
  CausalSpan(CausalSpan&& other) noexcept
      : rec_(std::exchange(other.rec_, nullptr)) {}
  // Ends the span held here, then takes over `other`'s: a span that
  // opens and closes mid-scope (net::Fabric::TransferOp) is assigned a
  // fresh span to open it and an unsampled `CausalSpan()` to close it.
  CausalSpan& operator=(CausalSpan&& other) noexcept {
    if (this != &other) {
      End();
      rec_ = std::exchange(other.rec_, nullptr);
    }
    return *this;
  }

  // Context for callees: ctx.span_id is this span.
  const TraceHandle& handle() const {
    return rec_ != nullptr ? rec_->h : kNullTraceHandle;
  }

  // Point event inside this span (e.g. "http_500", "syn_retry").
  void Instant(const char* name, std::int64_t arg = 0) {
    if (rec_ == nullptr) return;
    const TraceHandle& h = rec_->h;
    h.tracer->InstantAt(h.sched->now(), name, rec_->category, h.track,
                        TraceContext{h.ctx.trace_id, 0, h.ctx.span_id}, arg);
  }

 private:
  struct Record {
    TraceHandle h;
    const char* name;
    Category category;
    std::int64_t arg;
  };
  static_assert(std::is_trivially_destructible_v<Record>);

  void End() noexcept {
    if (rec_ == nullptr) return;
    const TraceHandle& h = rec_->h;
    h.tracer->EndSpanAt(h.sched->now(), rec_->name, rec_->category, h.track,
                        h.ctx, rec_->arg);
    sim::PoolFree(rec_, sizeof(Record));  // Record is trivially destructible
    rec_ = nullptr;
  }

  Record* rec_ = nullptr;
};

}  // namespace wimpy::obs

#endif  // WIMPY_OBS_TRACER_H_
