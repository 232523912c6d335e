// Causal trace identity (see docs/observability.md).
//
// A `TraceContext` names one span inside one request/job tree:
// `trace_id` identifies the tree (one per sampled web connection, KV
// query, or MapReduce job), `span_id` the span itself, `parent_id` the
// span it is causally nested under (0 = root). Ids are tracer-local
// monotonic counters, so like everything the tracer records they are a
// pure function of the simulation and byte-identical at any --threads.
//
// A `TraceHandle` is the value that *propagates*: call sites pass it down
// through the web tier (proxy -> server -> memcached/MySQL models),
// `net::Fabric` transfers, KV store operations, and MapReduce task
// attempts — the simulated equivalent of a context header riding on every
// message. A default-constructed handle (null tracer) makes every
// downstream tracing call a no-op, which keeps the untraced path free.
#ifndef WIMPY_OBS_CONTEXT_H_
#define WIMPY_OBS_CONTEXT_H_

#include <cstdint>

namespace wimpy::sim {
class Scheduler;
}  // namespace wimpy::sim

namespace wimpy::obs {

class Tracer;

struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
};

// The propagated unit: tracer + clock + timeline + causal position.
// Copyable plain value; null `tracer` means "not sampled".
struct TraceHandle {
  Tracer* tracer = nullptr;
  sim::Scheduler* sched = nullptr;
  std::int32_t track = 0;
  TraceContext ctx;

  explicit operator bool() const { return tracer != nullptr; }
};

// The handle of every unsampled span (obs::CausalSpan::handle()).
inline constexpr TraceHandle kNullTraceHandle{};

}  // namespace wimpy::obs

#endif  // WIMPY_OBS_CONTEXT_H_
