// End-to-end macro benchmark: whole-replication throughput of the model
// layer at large N (docs/scale.md). Where bench_engine_micro measures the
// scheduler in isolation, this drives the full web and KV testbeds —
// fabric, TCP, serve path, metrics — at N ∈ {10k, 100k} simulated
// connections (web closed-loop) or queries (KV open-loop) and reports
// whole-replication wall-clock (items_per_second = replications per wall
// second), the number the ROADMAP's million-user scale-out item needs to
// grow. Engine events and events/s ride along as counters — informative,
// but not the gate metric, because an optimization that removes pure
// bookkeeping events (fewer events, less wall) must read as a win.
//
// Output is google-benchmark-compatible JSON (--json=FILE); tools/ab.sh
// gates each cell's best repetition against a base commit in alternating
// pairs, as it does the engine suite. Peak RSS (VmHWM) is recorded per
// entry; it is monotonic across the process, so cells run in ascending-N
// order and the first 100k cell's value is the honest peak for that
// geometry.
//
// --determinism prints a golden-trace prefix + final stats instead (no
// wall-clock, no RSS): the large-N determinism check in
// tools/check_trace.sh diffs this output at --threads=1 vs 8.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <regex>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/random.h"
#include "hw/profiles.h"
#include "kv/experiment.h"
#include "obs/tracer.h"
#include "sim/replication.h"
#include "web/service.h"
#include "web/workload.h"

namespace {

using namespace wimpy;

struct Flags {
  std::string workload = "all";  // web | kv | all
  std::vector<int> connections = {10000, 100000};
  int reps = 3;
  int threads = 1;
  std::uint64_t seed = 0x5EED2016;
  std::string json_path;
  std::string filter;
  bool determinism = false;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--workload=web|kv|all] [--connections=N[,N...]]\n"
      "          [--reps=R] [--threads=T] [--seed=S] [--json=FILE]\n"
      "          [--filter=REGEX] [--determinism]\n",
      argv0);
  std::exit(2);
}

Flags Parse(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      f.workload = v;
      if (f.workload != "web" && f.workload != "kv" && f.workload != "all") {
        Usage(argv[0]);
      }
    } else if (const char* v = value("--connections=")) {
      f.connections.clear();
      for (const char* p = v; *p != '\0';) {
        char* end = nullptr;
        const long n = std::strtol(p, &end, 10);
        if (end == p || n <= 0) Usage(argv[0]);
        f.connections.push_back(static_cast<int>(n));
        p = (*end == ',') ? end + 1 : end;
      }
      if (f.connections.empty()) Usage(argv[0]);
      std::sort(f.connections.begin(), f.connections.end());
    } else if (const char* v = value("--reps=")) {
      f.reps = std::atoi(v);
      if (f.reps < 1) Usage(argv[0]);
    } else if (const char* v = value("--threads=")) {
      f.threads = std::atoi(v);
      if (f.threads < 1) Usage(argv[0]);
    } else if (const char* v = value("--seed=")) {
      f.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--json=")) {
      f.json_path = v;
    } else if (const char* v = value("--filter=")) {
      f.filter = v;
    } else if (arg == "--determinism") {
      f.determinism = true;
    } else {
      Usage(argv[0]);
    }
  }
  return f;
}

// High-water RSS of this process in bytes (/proc/self/status VmHWM);
// 0 when unavailable (non-Linux).
long long PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atoll(line.c_str() + 6) * 1024;
    }
  }
  return 0;
}

// --- cell geometry ------------------------------------------------------
// N is the in-window unit count: closed-loop connections for web, queries
// for KV. The testbed scales with N so per-server load stays in the
// heavy-but-stable regime (~70% of the Edison knee for web, ~250 qps per
// store node for KV) instead of degenerating into pure overload.

constexpr double kWindowSeconds = 10.0;

web::WebTestbedConfig WebGeometry(int n) {
  const int scale = std::max(1, n / 10000);
  web::WebTestbedConfig cfg =
      web::EdisonWebTestbed(24 * scale, 11 * scale);
  cfg.client_machines = 8 * scale;
  return cfg;
}

kv::KvExperimentConfig KvGeometry(int n) {
  kv::KvExperimentConfig cfg;
  cfg.node_profile = hw::EdisonProfile();
  cfg.node_count = std::max(10, n / 2500);
  cfg.client_machines = std::max(4, n / 12500);
  return cfg;
}

struct CellOutcome {
  double achieved_per_s = 0;  // OK replies (web) or queries (kv) per sim-s
  double error_rate = 0;
  double mean_latency_s = 0;
  std::uint64_t events = 0;
};

CellOutcome RunWebCell(int n, Rng& root, obs::Tracer* tracer) {
  web::WebTestbedConfig cfg = WebGeometry(n);
  cfg.seed = root.Next();
  if (tracer != nullptr) {
    cfg.tracer = tracer;
    cfg.trace_sample_every = 4096;
  }
  web::WebExperiment exp(std::move(cfg));
  const web::LevelReport r = exp.MeasureClosedLoop(
      web::HeavyMix(), /*concurrency=*/n / kWindowSeconds,
      /*calls_per_connection=*/2, Seconds(2), Seconds(kWindowSeconds));
  return {r.achieved_rps, r.error_rate, r.mean_response, r.executed_events};
}

CellOutcome RunKvCell(int n, Rng& root, obs::Tracer* tracer) {
  kv::KvExperimentConfig cfg = KvGeometry(n);
  cfg.seed = root.Next();
  if (tracer != nullptr) {
    cfg.tracer = tracer;
    cfg.trace_sample_every = 4096;
  }
  kv::KvExperiment exp(std::move(cfg));
  const kv::KvReport r =
      exp.Measure(/*target_qps=*/n / kWindowSeconds, Seconds(kWindowSeconds));
  return {r.achieved_qps, r.error_rate, r.mean_latency, r.executed_events};
}

struct Cell {
  std::string run_name;  // e.g. BM_MacroWebHeavy/100000
  bool web = true;
  int n = 0;
  // Seed-tree index: a pure function of (workload, n) so a cell's seeds
  // never depend on which other cells run (--filter/--workload/
  // --connections leave every surviving cell bit-identical).
  int seed_index = 0;
};

std::vector<Cell> BuildCells(const Flags& flags) {
  std::vector<Cell> cells;
  for (int n : flags.connections) {
    if (flags.workload != "kv") {
      cells.push_back(
          {"BM_MacroWebHeavy/" + std::to_string(n), true, n, 2 * n});
    }
    if (flags.workload != "web") {
      cells.push_back(
          {"BM_MacroKv/" + std::to_string(n), false, n, 2 * n + 1});
    }
  }
  if (!flags.filter.empty()) {
    const std::regex re(flags.filter);
    std::erase_if(cells, [&](const Cell& c) {
      return !std::regex_search(c.run_name, re);
    });
  }
  return cells;
}

// --- determinism mode ---------------------------------------------------
// Prints a pure function of (cells, seed, reps): per-replication final
// stats plus the first trace events of each replication's sampled log.
// tools/check_trace.sh diffs this output across --threads values.

struct DetResult {
  CellOutcome outcome;
  std::vector<std::string> trace_prefix;
};

int RunDeterminism(const Flags& flags) {
  const std::vector<Cell> cells = BuildCells(flags);
  // Same deterministic pool + pre-sized index-merged grid as RunSweep,
  // but each replication is rooted at the cell's stable seed_index so
  // results are filter-invariant and match the throughput mode's seeds.
  const int reps = flags.reps;
  std::vector<std::vector<DetResult>> sweep(
      cells.size(), std::vector<DetResult>(reps));
  sim::internal::RunIndexedTasks(
      static_cast<int>(cells.size()) * reps, flags.threads, [&](int task) {
        const int c = task / reps;
        const int r = task % reps;
        const Cell& cell = cells[c];
        Rng root(
            sim::ReplicationSeed(flags.seed, cell.seed_index, r));
        obs::Tracer tracer;
        const CellOutcome out = cell.web
                                    ? RunWebCell(cell.n, root, &tracer)
                                    : RunKvCell(cell.n, root, &tracer);
        sweep[c][r] = {out, bench::TracePrefix(tracer.TakeLog(), 48)};
      });
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (int r = 0; r < flags.reps; ++r) {
      const DetResult& res = sweep[c][r];
      std::printf("%s rep=%d achieved=%.9g err=%.9g mean_s=%.9g "
                  "events=%llu trace_events=%zu\n",
                  cells[c].run_name.c_str(), r, res.outcome.achieved_per_s,
                  res.outcome.error_rate, res.outcome.mean_latency_s,
                  static_cast<unsigned long long>(res.outcome.events),
                  res.trace_prefix.size());
      for (std::size_t i = 0; i < res.trace_prefix.size(); ++i) {
        std::printf("%s rep=%d trace[%zu]: %s\n", cells[c].run_name.c_str(),
                    r, i, res.trace_prefix[i].c_str());
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Parse(argc, argv);
  if (flags.determinism) return RunDeterminism(flags);

  const std::vector<Cell> cells = BuildCells(flags);

  struct Entry {
    std::string run_name;
    int rep = 0;
    double wall_s = 0;
    double events_per_s = 0;
    CellOutcome outcome;
    long long peak_rss = 0;
  };
  std::vector<Entry> entries;

  // Cells run serially (ascending N, web before kv at each N) so
  // wall-clock per replication is undisturbed and VmHWM is meaningful
  // for the first large cell.
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    for (int r = 0; r < flags.reps; ++r) {
      Rng root(sim::ReplicationSeed(flags.seed, cell.seed_index, r));
      const auto t0 = std::chrono::steady_clock::now();
      const CellOutcome out = cell.web ? RunWebCell(cell.n, root, nullptr)
                                       : RunKvCell(cell.n, root, nullptr);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
      Entry e;
      e.run_name = cell.run_name;
      e.rep = r;
      e.wall_s = wall;
      e.events_per_s =
          wall > 0 ? static_cast<double>(out.events) / wall : 0;
      e.outcome = out;
      e.peak_rss = PeakRssBytes();
      entries.push_back(e);
      std::printf(
          "%-28s rep %d: %8.2fs wall, %10llu events, %8.0f events/s, "
          "%7.0f served/s, err %.3f, peak RSS %lld MiB\n",
          cell.run_name.c_str(), r, wall,
          static_cast<unsigned long long>(out.events), e.events_per_s,
          out.achieved_per_s, out.error_rate, e.peak_rss >> 20);
      std::fflush(stdout);
    }
  }

  if (flags.json_path.empty()) return 0;
  std::vector<bench::BenchJsonRow> rows;
  for (const Entry& e : entries) {
    rows.push_back(
        {e.run_name,
         e.rep,
         e.wall_s,
         {bench::JsonFixed("items_per_second",
                           e.wall_s > 0 ? 1.0 / e.wall_s : 0.0, 6),
          bench::JsonInt("events", static_cast<long long>(e.outcome.events)),
          bench::JsonFixed("events_per_second", e.events_per_s, 3),
          bench::JsonFixed("served_per_second", e.outcome.achieved_per_s, 3),
          bench::JsonFixed("error_rate", e.outcome.error_rate, 6),
          bench::JsonInt("peak_rss_bytes", e.peak_rss)}});
  }
  const std::vector<bench::JsonField> context = {
      bench::JsonString("executable", "bench_scale_macro"),
      bench::JsonNumber("window_seconds", kWindowSeconds),
      bench::JsonInt("reps", flags.reps),
      bench::JsonString(
          "note",
          "items_per_second = whole replications per wall second (1/wall); "
          "events_per_second is informational; peak_rss_bytes is process "
          "VmHWM (monotonic across cells, run in ascending-N order)")};
  return bench::WriteBenchJson(flags.json_path, context, rows) ? 0 : 1;
}
