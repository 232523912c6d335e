// One-shot reproduction report: runs the headline experiments at reduced
// scale, compares against the paper's published numbers, and renders a
// verdict table. This is the "is the reproduction still intact?" tool —
// run it after modifying any model constant.
#ifndef WIMPY_CORE_REPORT_H_
#define WIMPY_CORE_REPORT_H_

#include <string>
#include <vector>

#include "common/units.h"

namespace wimpy::core {

struct ReportEntry {
  std::string experiment;
  std::string metric;
  double paper_value = 0;
  double measured_value = 0;
  // Accepted relative deviation before the verdict flips to DIVERGED.
  double tolerance = 0.25;

  double RelativeError() const {
    return paper_value == 0
               ? 0.0
               : (measured_value - paper_value) / paper_value;
  }
  bool Holds() const {
    return std::abs(RelativeError()) <= tolerance;
  }
};

struct ReproductionReport {
  std::vector<ReportEntry> entries;

  int holds() const;
  int diverged() const;
  // All headline shapes within tolerance?
  bool AllHold() const { return diverged() == 0; }

  std::string ToText() const;
};

// Runs the quick verification set:
//   * capacity-planning ratios (Table 2) — exact;
//   * TCO cells (Table 10) — exact model;
//   * the six MapReduce headline runs at full paper scale (fast in
//     simulated time);
//   * a web peak probe at quarter scale (rps/W ratio).
// Total runtime is dominated by the web probe (a few seconds of real
// time).
ReproductionReport RunReproductionChecks();

}  // namespace wimpy::core

#endif  // WIMPY_CORE_REPORT_H_
