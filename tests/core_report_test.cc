#include "core/report.h"

#include <gtest/gtest.h>

namespace wimpy::core {
namespace {

TEST(ReportEntryTest, VerdictMath) {
  ReportEntry e{"x", "m", 100.0, 110.0, 0.15};
  EXPECT_NEAR(e.RelativeError(), 0.10, 1e-12);
  EXPECT_TRUE(e.Holds());
  e.measured_value = 130.0;
  EXPECT_FALSE(e.Holds());
  e.paper_value = 0;  // degenerate reference
  EXPECT_EQ(e.RelativeError(), 0.0);
}

TEST(ReportTest, RenderingContainsVerdicts) {
  ReproductionReport report;
  report.entries.push_back({"Table 2", "nodes", 16, 16, 0.01});
  report.entries.push_back({"Fig 4", "ratio", 3.5, 10.0, 0.2});
  EXPECT_EQ(report.holds(), 1);
  EXPECT_EQ(report.diverged(), 1);
  EXPECT_FALSE(report.AllHold());
  const std::string text = report.ToText();
  EXPECT_NE(text.find("holds"), std::string::npos);
  EXPECT_NE(text.find("DIVERGED"), std::string::npos);
  EXPECT_NE(text.find("1/2 shapes hold"), std::string::npos);
}

TEST(ReportTest, FullChecksHold) {
  // The CI-gate property: every headline claim must currently hold.
  const auto report = RunReproductionChecks();
  EXPECT_GE(report.entries.size(), 20u);
  for (const auto& entry : report.entries) {
    EXPECT_TRUE(entry.Holds())
        << entry.experiment << " / " << entry.metric << ": paper "
        << entry.paper_value << " measured " << entry.measured_value;
  }
}

}  // namespace
}  // namespace wimpy::core
