// Causal-trace reconstruction and per-trace roll-ups.
//
// Input is the flat `TraceLog` a `Tracer` records: span begin/end pairs
// keyed by causal span ids (obs/context.h), plus causal instants. This
// module rebuilds the per-request span trees and rolls each one up into
// latency, span count and attributed joules (the --trace-summary CSV)
// and into SLO-conditioned goodput per joule, from the export alone,
// without access to the live testbed. The critical-path decomposition
// (where a request's latency went) is tools/trace_analyze.py's walk
// over the JSON export.
//
// All outputs are deterministic functions of the log: spans sort by
// (begin, span_id).
#ifndef WIMPY_OBS_CRITICAL_PATH_H_
#define WIMPY_OBS_CRITICAL_PATH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "obs/energy.h"
#include "obs/tracer.h"

namespace wimpy::obs {

// One reconstructed span. `complete` is false when the log held a begin
// with no matching end (the run's horizon cut it); its `end` is then the
// log's maximum timestamp.
struct SpanRecord {
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  const char* name = "";
  SimTime begin = 0;
  SimTime end = 0;
  std::int64_t arg = 0;
  bool complete = true;
  std::vector<std::size_t> children;  // indices into TraceTree::spans
};

// A causal instant attached to a trace (parent_id = enclosing span).
struct InstantRecord {
  SimTime time = 0;
  const char* name = "";
  std::int64_t arg = 0;
  std::uint64_t parent_id = 0;
};

// One request/job tree: all spans sharing a trace_id. `root` indexes the
// earliest parentless span (parent_id 0 or absent from the log).
struct TraceTree {
  std::uint64_t trace_id = 0;
  std::size_t root = 0;
  bool complete = true;  // every span in the tree has a matching end
  std::vector<SpanRecord> spans;
  std::vector<InstantRecord> instants;
};

// Rebuilds the span trees of one log. Trees come back ordered by
// trace_id; spans within a tree by (begin, span_id). Non-causal events
// (trace_id 0, e.g. the engine hook stream) are ignored.
std::vector<TraceTree> BuildTraceTrees(const TraceLog& log);

// Per-trace roll-up row for the --trace-summary CSV.
struct TraceSummaryRow {
  int series = 0;  // replication index, mirrors the trace export pid
  std::uint64_t trace_id = 0;
  const char* root_name = "";
  SimTime begin = 0;
  Duration latency = 0;
  std::size_t span_count = 0;
  bool complete = true;
  Joules joules = 0;  // attributed energy summed over the tree's spans
};

// One row per trace per log, logs in index order ([config][replication]
// flattening upstream), traces by trace_id. `ledgers` pairs with `logs`
// by index; pass an empty vector when energy attribution was off (the
// joules column is then 0).
std::vector<TraceSummaryRow> SummarizeTraces(
    const std::vector<TraceLog>& logs,
    const std::vector<EnergyLedger>& ledgers);

// SLO-conditioned goodput derived purely from the exports
// (docs/openloop.md): sampled traces whose root begins inside the
// [measure_start, measure_end) window marks, completed with latency <=
// slo, per joule of the ledgers' window subtotal (∫P dt between
// BeginWindow/EndWindow). With 1-in-N trace sampling the numerator counts
// sampled traces only; at trace_sample_every=1 it matches the live
// report's under-SLO counter exactly (tests/obs_energy_test.cc).
struct SloSummary {
  std::int64_t window_traces = 0;    // sampled roots beginning in-window
  std::int64_t under_slo = 0;        // of those: complete && latency <= slo
  Joules window_joules = 0;          // summed over ledgers
  double slo_goodput_per_joule = 0;  // under_slo / window_joules
};
SloSummary SummarizeSloGoodput(const std::vector<TraceLog>& logs,
                               const std::vector<EnergyLedger>& ledgers,
                               Duration slo);

// CSV with header
//   series,trace_id,root,begin_s,latency_s,spans,complete,joules
// Numbers render with the same %.9g contract as the trace/metrics
// exporters, so the file is byte-identical across --threads. When
// `slo` > 0 (--slo-ms) an extra `under_slo` column appends 1 for rows
// that completed within the bound — the default header stays
// byte-identical for existing consumers.
std::string RenderTraceSummaryCsv(const std::vector<TraceLog>& logs,
                                  const std::vector<EnergyLedger>& ledgers,
                                  Duration slo = 0.0);
Status WriteTraceSummaryCsv(const std::vector<TraceLog>& logs,
                            const std::vector<EnergyLedger>& ledgers,
                            const std::string& path, Duration slo = 0.0);

}  // namespace wimpy::obs

#endif  // WIMPY_OBS_CRITICAL_PATH_H_
