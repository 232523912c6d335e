// Shared command-line surface for the bench binaries.
//
// Every converted bench accepts the same sweep flags:
//
//   --replications=N   seeds per configuration (default 1: the paper's
//                      single-run tables, same output shape as the
//                      pre-sweep binaries)
//   --threads=K        worker threads for the replication runner
//                      (default 0 = hardware concurrency)
//   --seed=S           base seed for the deterministic seed tree
//   --trace=FILE       export a Chrome trace-event JSON (Perfetto-loadable)
//                      of the run (benches that support it; see
//                      docs/observability.md)
//   --metrics=FILE     export the sampled metrics time series as CSV
//   --trace-summary=FILE
//                      export the per-trace roll-up CSV (root span,
//                      latency, span count, attributed joules) computed
//                      by obs::SummarizeTraces (obs/critical_path.h);
//                      implies trace recording even without --trace
//   --slo-ms=T         latency SLO bound in milliseconds. Adds an
//                      `under_slo` column to the --trace-summary CSV and
//                      an slo_goodput_per_joule roll-up (under-SLO work
//                      per window joule, docs/openloop.md); 0 = off
//   --telemetry=FILE   export the online telemetry plane's rollup
//                      buckets (per-window count/sum/min/max plus sparse
//                      sketch buckets) as CSV; enables the per-run
//                      obs::Telemetry plane (docs/telemetry.md)
//   --alerts=FILE      export fired alert-rule instants as CSV; enables
//                      the telemetry plane like --telemetry
//
// Results never depend on --threads (see docs/parallel.md); it only
// changes wall-clock time. Trace and metrics exports are likewise
// byte-identical for the same --seed at any --threads.
#ifndef WIMPY_COMMON_BENCH_ARGS_H_
#define WIMPY_COMMON_BENCH_ARGS_H_

#include <cstdint>
#include <string>

namespace wimpy {

struct BenchArgs {
  int replications = 1;
  int threads = 0;  // 0 = std::thread::hardware_concurrency()
  std::uint64_t seed = 0x5EED2016;
  std::string trace_path;          // empty = no trace export
  std::string metrics_path;        // empty = no metrics export
  std::string trace_summary_path;  // empty = no per-trace summary CSV
  std::string telemetry_path;      // empty = no rollup-bucket CSV
  std::string alerts_path;         // empty = no alert-instant CSV
  double slo_ms = 0;               // 0 = no SLO column/roll-up

  // Either telemetry export flag turns the per-run obs::Telemetry plane
  // on (benches that support it; see docs/telemetry.md).
  bool WantTelemetry() const {
    return !telemetry_path.empty() || !alerts_path.empty();
  }
};

// Parses the shared flags above; prints usage and exits(2) on an unknown
// or malformed argument, exits(0) on --help. Unrelated binaries stay
// flag-free by simply not calling this.
BenchArgs ParseBenchArgs(int argc, char** argv);

// --threads resolved: the explicit value, else hardware concurrency
// (at least 1).
int ResolvedThreads(const BenchArgs& args);

}  // namespace wimpy

#endif  // WIMPY_COMMON_BENCH_ARGS_H_
