#include "obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>

namespace wimpy::obs {

namespace {

// Same rendering contract as obs/export.cc: pure function of the value.
std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::vector<TraceTree> BuildTraceTrees(const TraceLog& log) {
  SimTime horizon = 0;
  for (const TraceEvent& e : log.events) horizon = std::max(horizon, e.time);

  // trace_id -> tree under construction; span_id -> (trace_id, index).
  std::map<std::uint64_t, TraceTree> trees;
  std::map<std::uint64_t, std::pair<std::uint64_t, std::size_t>> by_span;
  for (const TraceEvent& e : log.events) {
    if (e.trace_id == 0) continue;
    TraceTree& tree = trees[e.trace_id];
    tree.trace_id = e.trace_id;
    if (e.phase == 'B') {
      by_span[e.span_id] = {e.trace_id, tree.spans.size()};
      tree.spans.push_back(SpanRecord{e.span_id, e.parent_id, e.name, e.time,
                                      e.time, e.arg, false, {}});
    } else if (e.phase == 'E') {
      auto it = by_span.find(e.span_id);
      if (it != by_span.end() && it->second.first == e.trace_id) {
        SpanRecord& s = trees[e.trace_id].spans[it->second.second];
        s.end = e.time;
        s.complete = true;
      }
    } else {
      tree.instants.push_back(InstantRecord{e.time, e.name, e.arg,
                                            e.parent_id});
    }
  }

  std::vector<TraceTree> out;
  out.reserve(trees.size());
  for (auto& [id, tree] : trees) {
    for (SpanRecord& s : tree.spans) {
      if (!s.complete) {
        s.end = horizon;
        tree.complete = false;
      }
    }
    std::sort(tree.spans.begin(), tree.spans.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                return a.begin != b.begin ? a.begin < b.begin
                                          : a.span_id < b.span_id;
              });
    std::map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < tree.spans.size(); ++i) {
      index[tree.spans[i].span_id] = i;
    }
    bool have_root = false;
    for (std::size_t i = 0; i < tree.spans.size(); ++i) {
      SpanRecord& s = tree.spans[i];
      auto parent = index.find(s.parent_id);
      if (s.parent_id != 0 && parent != index.end()) {
        tree.spans[parent->second].children.push_back(i);
      } else if (!have_root) {
        // Earliest parentless span (parent 0, or parent outside the log
        // — an unsampled enclosing span) anchors the tree.
        tree.root = i;
        have_root = true;
      }
    }
    out.push_back(std::move(tree));
  }
  return out;
}

std::vector<TraceSummaryRow> SummarizeTraces(
    const std::vector<TraceLog>& logs,
    const std::vector<EnergyLedger>& ledgers) {
  std::vector<TraceSummaryRow> rows;
  for (std::size_t series = 0; series < logs.size(); ++series) {
    std::map<std::uint64_t, Joules> joules_by_trace;
    if (series < ledgers.size()) {
      for (const SpanEnergyRow& row : ledgers[series].rows) {
        joules_by_trace[row.trace_id] += row.joules;
      }
    }
    for (const TraceTree& tree : BuildTraceTrees(logs[series])) {
      if (tree.spans.empty()) continue;
      const SpanRecord& root = tree.spans[tree.root];
      auto j = joules_by_trace.find(tree.trace_id);
      rows.push_back(TraceSummaryRow{
          static_cast<int>(series), tree.trace_id, root.name, root.begin,
          root.end - root.begin, tree.spans.size(), tree.complete,
          j == joules_by_trace.end() ? 0 : j->second});
    }
  }
  return rows;
}

SloSummary SummarizeSloGoodput(const std::vector<TraceLog>& logs,
                               const std::vector<EnergyLedger>& ledgers,
                               Duration slo) {
  SloSummary summary;
  for (const TraceLog& log : logs) {
    // Window marks are plain instants in the event stream; a log without
    // them (no measurement window) contributes no traces.
    SimTime measure_start = -1;
    SimTime measure_end = -1;
    for (const TraceEvent& e : log.events) {
      const std::string_view name(e.name);
      if (name == "measure_start") measure_start = e.time;
      if (name == "measure_end") measure_end = e.time;
    }
    if (measure_start < 0 || measure_end <= measure_start) continue;
    for (const TraceTree& tree : BuildTraceTrees(log)) {
      if (tree.spans.empty()) continue;
      const SpanRecord& root = tree.spans[tree.root];
      if (root.begin < measure_start || root.begin >= measure_end) continue;
      ++summary.window_traces;
      if (tree.complete && root.end - root.begin <= slo) {
        ++summary.under_slo;
      }
    }
  }
  for (const EnergyLedger& ledger : ledgers) {
    summary.window_joules += ledger.window_joules;
  }
  summary.slo_goodput_per_joule =
      summary.window_joules > 0
          ? static_cast<double>(summary.under_slo) / summary.window_joules
          : 0.0;
  return summary;
}

std::string RenderTraceSummaryCsv(const std::vector<TraceLog>& logs,
                                  const std::vector<EnergyLedger>& ledgers,
                                  Duration slo) {
  std::string out = "series,trace_id,root,begin_s,latency_s,spans,complete,joules";
  if (slo > 0.0) out += ",under_slo";
  out += '\n';
  for (const TraceSummaryRow& r : SummarizeTraces(logs, ledgers)) {
    out += std::to_string(r.series);
    out += ',';
    out += std::to_string(r.trace_id);
    out += ',';
    out += r.root_name;
    out += ',';
    out += Num(r.begin);
    out += ',';
    out += Num(r.latency);
    out += ',';
    out += std::to_string(r.span_count);
    out += ',';
    out += r.complete ? '1' : '0';
    out += ',';
    out += Num(r.joules);
    if (slo > 0.0) {
      out += ',';
      out += (r.complete && r.latency <= slo) ? '1' : '0';
    }
    out += '\n';
  }
  return out;
}

Status WriteTraceSummaryCsv(const std::vector<TraceLog>& logs,
                            const std::vector<EnergyLedger>& ledgers,
                            const std::string& path, Duration slo) {
  const std::string doc = RenderTraceSummaryCsv(logs, ledgers, slo);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Unavailable("cannot open for writing: " + path);
  }
  const std::size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  if (written != doc.size()) {
    return Status::Unavailable("short write to: " + path);
  }
  return Status::Ok();
}

}  // namespace wimpy::obs
