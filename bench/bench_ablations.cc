// Ablation studies for the design choices DESIGN.md calls out:
//   1. Edison USB-Ethernet-adapter power in/out of the energy account
//      (the paper notes >half the Edison cluster's power is adapters);
//   2. combiner on/off for the combined-input wordcount;
//   3. HDFS block size vs container count (wordcount2 on Edison);
//   4. YARN per-heartbeat container assignment rate (the allocation
//      overhead mechanism) for many-file wordcount on Dell;
//   5. HDFS replication factor vs map data-locality on Edison.
//
// Every ablation case is one sweep configuration: --replications=N runs
// each case N times with independent seeds on --threads workers and the
// tables report mean±95% CI (docs/parallel.md).
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/bench_args.h"
#include "common/summary.h"
#include "common/table.h"
#include "core/experiments.h"
#include "hw/profiles.h"

namespace {

using namespace wimpy;
using core::PaperJob;

// The union of metrics any ablation table reads; each section uses the
// fields it cares about.
struct CaseResult {
  double elapsed = 0;
  double joules = 0;
  double shuffle_bytes = 0;
  double map_tasks = 0;
  double data_local = 0;
};

CaseResult FromRun(const mapreduce::MrRunResult& r) {
  CaseResult c;
  c.elapsed = r.job.elapsed;
  c.joules = r.slave_joules;
  c.shuffle_bytes = static_cast<double>(r.job.map_output_bytes);
  c.map_tasks = static_cast<double>(r.job.map_tasks);
  c.data_local = r.job.data_local_fraction;
  return c;
}

// One ablation case: a label plus a self-contained run function that
// builds all simulation state from the root Rng (no shared state, so the
// sweep may run cases and replications concurrently).
struct Case {
  std::string label;
  std::function<CaseResult(Rng&)> run;
};

// Aggregated view of one case after the sweep.
struct CaseStats {
  MetricSummary elapsed, joules, shuffle_bytes, map_tasks, data_local;
};

CaseStats StatsFor(const std::vector<CaseResult>& reps) {
  CaseStats s;
  s.elapsed = SummarizeOver(reps, [](const CaseResult& r) { return r.elapsed; });
  s.joules = SummarizeOver(reps, [](const CaseResult& r) { return r.joules; });
  s.shuffle_bytes =
      SummarizeOver(reps, [](const CaseResult& r) { return r.shuffle_bytes; });
  s.map_tasks =
      SummarizeOver(reps, [](const CaseResult& r) { return r.map_tasks; });
  s.data_local =
      SummarizeOver(reps, [](const CaseResult& r) { return r.data_local; });
  return s;
}

std::string Secs(const CaseStats& s) { return FormatMeanCI(s.elapsed, 0) + " s"; }
std::string Jls(const CaseStats& s) { return FormatMeanCI(s.joules, 0) + " J"; }

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = bench::ObsArgs(ParseBenchArgs(argc, argv),
                                        bench::ObsPlanes::kNone);

  std::vector<Case> cases;

  // --- 1. adapter power ------------------------------------------------------
  const int a1 = static_cast<int>(cases.size());
  cases.push_back({"with 1 W adapters (paper setup)", [](Rng& root) {
    auto config = mapreduce::EdisonMrCluster(8);
    config.seed = root.Next();
    return FromRun(core::RunPaperJob(PaperJob::kWordCount2, config));
  }});
  cases.push_back({"integrated NIC (hypothetical)", [](Rng& root) {
    auto config = mapreduce::EdisonMrCluster(8);
    config.seed = root.Next();
    config.slave_profile.power.idle -=
        config.slave_profile.power.constant_adapter;
    config.slave_profile.power.busy -=
        config.slave_profile.power.constant_adapter;
    config.slave_profile.power.constant_adapter = 0;
    return FromRun(core::RunPaperJob(PaperJob::kWordCount2, config));
  }});

  // --- 2. combiner on/off ----------------------------------------------------
  const int a2 = static_cast<int>(cases.size());
  for (bool combiner : {true, false}) {
    cases.push_back({combiner ? "combiner on" : "combiner off",
                     [combiner](Rng& root) {
      auto config = mapreduce::EdisonMrCluster(8);
      config.seed = root.Next();
      mapreduce::MrTestbed tb(config);
      auto spec = mapreduce::WordCount2Job(tb.config());
      spec.has_combiner = combiner;
      mapreduce::LoadInputFor(spec, &tb);
      return FromRun(tb.RunJob(spec));
    }});
  }

  // --- 3. block size ---------------------------------------------------------
  const int a3 = static_cast<int>(cases.size());
  for (Bytes block : {MiB(8), MiB(16), MiB(32), MiB(64)}) {
    cases.push_back({FormatBytes(block), [block](Rng& root) {
      auto config = mapreduce::EdisonMrCluster(8);
      config.seed = root.Next();
      config.hdfs.block_size = block;
      mapreduce::MrTestbed tb(config);
      auto spec = mapreduce::WordCount2Job(tb.config());
      // Split packing follows the block size.
      spec.max_split_size = block;
      mapreduce::LoadInputFor(spec, &tb);
      return FromRun(tb.RunJob(spec));
    }});
  }

  // --- 4. allocation rate ----------------------------------------------------
  const int a4 = static_cast<int>(cases.size());
  for (int rate : {1, 2, 4, 8}) {
    cases.push_back({std::to_string(rate), [rate](Rng& root) {
      auto config = mapreduce::DellMrCluster(2);
      config.seed = root.Next();
      config.yarn.containers_per_node_heartbeat = rate;
      mapreduce::MrTestbed tb(config);
      auto spec = mapreduce::WordCountJob(tb.config());
      mapreduce::LoadInputFor(spec, &tb);
      return FromRun(tb.RunJob(spec));
    }});
  }

  // --- 5b. straggler / heterogeneity ----------------------------------------
  const int a5b = static_cast<int>(cases.size());
  for (int throttled : {0, 1, 2, 4}) {
    cases.push_back({std::to_string(throttled), [throttled](Rng& root) {
      auto config = mapreduce::EdisonMrCluster(8);
      config.seed = root.Next();
      config.throttled_slaves = throttled;
      config.throttle_factor = 0.5;
      mapreduce::MrTestbed tb(config);
      auto spec = mapreduce::WordCount2Job(tb.config());
      mapreduce::LoadInputFor(spec, &tb);
      return FromRun(tb.RunJob(spec));
    }});
  }

  // --- 5c. speculative execution --------------------------------------------
  const int a5c = static_cast<int>(cases.size());
  for (bool speculative : {false, true}) {
    cases.push_back({speculative ? "speculation on" : "speculation off",
                     [speculative](Rng& root) {
      auto config = mapreduce::EdisonMrCluster(8);
      config.seed = root.Next();
      config.throttled_slaves = 1;
      config.throttle_factor = 0.25;
      mapreduce::MrTestbed tb(config);
      auto spec = mapreduce::WordCountJob(tb.config());
      spec.input_files = 40;
      spec.input_bytes = MB(200);
      spec.reducers = 4;
      spec.speculative_execution = speculative;
      mapreduce::LoadInputFor(spec, &tb);
      return FromRun(tb.RunJob(spec));
    }});
  }

  // --- 5. replication vs locality --------------------------------------------
  const int a5 = static_cast<int>(cases.size());
  for (int rep : {1, 2, 3}) {
    cases.push_back({std::to_string(rep), [rep](Rng& root) {
      auto config = mapreduce::EdisonMrCluster(8);
      config.seed = root.Next();
      config.hdfs.replication = rep;
      mapreduce::MrTestbed tb(config);
      auto spec = mapreduce::WordCountJob(tb.config());
      mapreduce::LoadInputFor(spec, &tb);
      return FromRun(tb.RunJob(spec));
    }});
  }

  bench::TimedSweep timed(args);
  const auto sweep = timed.Run(
      cases, [](const Case& c, Rng& root) { return c.run(root); });

  std::vector<CaseStats> stats;
  stats.reserve(sweep.size());
  for (const auto& reps : sweep) stats.push_back(StatsFor(reps));

  {
    TextTable t("Ablation 1: Edison USB Ethernet adapter power "
                "(wordcount2, 8 slaves)");
    t.SetHeader({"Configuration", "Runtime", "Slave energy"});
    t.AddRow({cases[a1].label, Secs(stats[a1]), Jls(stats[a1])});
    t.AddRow({cases[a1 + 1].label, Secs(stats[a1 + 1]), Jls(stats[a1 + 1])});
    t.Print();
    std::printf(
        "-> adapters account for %.0f%% of Edison energy; an integrated "
        "0.1 W NIC would widen every efficiency ratio.\n\n",
        100.0 * (stats[a1].joules.mean - stats[a1 + 1].joules.mean) /
            stats[a1].joules.mean);
  }

  {
    TextTable t("Ablation 2: combiner (wordcount2, 8 Edison slaves)");
    t.SetHeader({"Configuration", "Shuffle bytes", "Runtime", "Energy"});
    for (int i = a2; i < a2 + 2; ++i) {
      t.AddRow({cases[i].label,
                FormatBytes(static_cast<Bytes>(stats[i].shuffle_bytes.mean)),
                Secs(stats[i]), Jls(stats[i])});
    }
    t.Print();
    std::printf("\n");
  }

  {
    TextTable t("Ablation 3: HDFS block size (wordcount2, 8 Edison "
                "slaves)");
    t.SetHeader({"Block size", "Map tasks", "Runtime", "Energy"});
    for (int i = a3; i < a3 + 4; ++i) {
      t.AddRow({cases[i].label, FormatMeanCI(stats[i].map_tasks, 0),
                Secs(stats[i]), Jls(stats[i])});
    }
    t.Print();
    std::printf(
        "-> larger blocks mean fewer containers (less overhead) but\n"
        "coarser failure/recovery units — the trade-off of §5.2.1.\n\n");
  }

  {
    TextTable t("Ablation 4: YARN containers assigned per node-heartbeat "
                "(wordcount, 2 Dell slaves, 200 input files)");
    t.SetHeader({"Containers/heartbeat", "Runtime", "Energy"});
    for (int i = a4; i < a4 + 4; ++i) {
      t.AddRow({cases[i].label, Secs(stats[i]), Jls(stats[i])});
    }
    t.Print();
    std::printf(
        "-> the 200-small-file job is allocation-bound on 2 nodes; 35\n"
        "Edisons absorb the same containers in a few heartbeats.\n\n");
  }

  {
    TextTable t("Ablation 5b: throttled slaves at 50% CPU (wordcount2, "
                "8 Edison slaves)");
    t.SetHeader({"Throttled nodes", "Runtime", "Energy"});
    for (int i = a5b; i < a5b + 4; ++i) {
      t.AddRow({cases[i].label, Secs(stats[i]), Jls(stats[i])});
    }
    t.Print();
    std::printf(
        "-> one throttled node already gates the one-wave reduce phase\n"
        "(~2x), and extra slow nodes add almost nothing — the straggler\n"
        "profile Hadoop counters with speculative execution (not\n"
        "modelled); multi-wave map phases dilute it naturally.\n\n");
  }

  {
    TextTable t("Ablation 5c: speculative execution vs a 25%-speed "
                "straggler (wordcount, 8 Edison slaves)");
    t.SetHeader({"Configuration", "Runtime", "Energy"});
    for (int i = a5c; i < a5c + 2; ++i) {
      t.AddRow({cases[i].label, Secs(stats[i]), Jls(stats[i])});
    }
    t.Print();
    std::printf(
        "-> duplicate attempts trade a little extra energy for cutting\n"
        "the straggler tail — Hadoop's remedy, reproduced.\n\n");
  }

  {
    TextTable t("Ablation 5: HDFS replication (wordcount, 8 Edison "
                "slaves)");
    t.SetHeader({"Replication", "Data-local maps", "Runtime"});
    for (int i = a5; i < a5 + 3; ++i) {
      t.AddRow({cases[i].label,
                TextTable::Num(100 * stats[i].data_local.mean, 0) + "%",
                Secs(stats[i])});
    }
    t.Print();
    std::printf(
        "-> the paper picks replication 2 (Edison) / 1 (Dell) so both\n"
        "clusters sit near 95%% data-local maps.\n");
  }

  timed.PrintFooter();
  return 0;
}
