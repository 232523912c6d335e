#include "common/table.h"

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/units.h"

namespace wimpy {
namespace {

TEST(TextTableTest, AlignsColumns) {
  TextTable t("Power");
  t.SetHeader({"Server state", "Idle", "Busy"});
  t.AddRow({"1 Edison", "0.36W", "0.75W"});
  t.AddRow({"Edison cluster of 35 nodes", "49.0W", "58.8W"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("== Power =="), std::string::npos);
  EXPECT_NE(out.find("| Server state"), std::string::npos);
  // Every rendered row has the same width.
  std::size_t width = 0;
  std::size_t pos = 0;
  while (pos < out.size()) {
    const std::size_t end = out.find('\n', pos);
    const std::string line = out.substr(pos, end - pos);
    if (!line.empty() && line[0] != '=') {
      if (width == 0) width = line.size();
      EXPECT_EQ(line.size(), width) << line;
    }
    pos = end + 1;
  }
}

TEST(TextTableTest, RaggedRowsArePadded) {
  TextTable t("");
  t.SetHeader({"a", "b"});
  t.AddRow({"1"});
  t.AddRow({"1", "2", "3"});
  EXPECT_EQ(t.row_count(), 2u);
  EXPECT_NE(t.ToString().find("| 3 |"), std::string::npos);
}

TEST(TextTableTest, NumberFormatting) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Num(3.0, 0), "3");
  EXPECT_EQ(TextTable::Ratio(3.5, 1), "3.5x");
}

TEST(CsvWriterTest, EscapesSpecials) {
  CsvWriter w({"name", "note"});
  w.AddRow({"a,b", "says \"hi\"\nbye"});
  const std::string doc = w.ToString();
  EXPECT_NE(doc.find("\"a,b\""), std::string::npos);
  EXPECT_NE(doc.find("\"says \"\"hi\"\"\nbye\""), std::string::npos);
}

TEST(CsvWriterTest, PlainCellsNotQuoted) {
  CsvWriter w({"x"});
  w.AddRow({"plain"});
  EXPECT_EQ(w.ToString(), "x\nplain\n");
}

TEST(UnitsTest, Conversions) {
  EXPECT_EQ(KiB(1), 1024);
  EXPECT_EQ(MiB(2), 2 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(Mbps(100), 100e6 / 8);
  EXPECT_DOUBLE_EQ(ToMbps(Mbps(93.9)), 93.9);
  EXPECT_DOUBLE_EQ(Milliseconds(250), 0.25);
  EXPECT_DOUBLE_EQ(ToKWh(3.6e6), 1.0);
}

TEST(UnitsTest, Formatting) {
  EXPECT_EQ(FormatBytes(MB(64)), "64.0 MB");
  EXPECT_EQ(FormatBitRate(Gbps(1)), "1.00 Gbit/s");
  EXPECT_EQ(FormatDuration(Milliseconds(18)), "18.0 ms");
}

}  // namespace
}  // namespace wimpy
