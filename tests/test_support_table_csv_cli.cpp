// Tests for the table renderer, CSV writer and CLI parser.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/cli.h"
#include "support/csv.h"
#include "support/error.h"
#include "support/table.h"

namespace {

using namespace skil::support;

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NE(t.render().find("| x |   |   |"), std::string::npos);
}

TEST(Table, SeparatorEmitsRule) {
  Table t({"h"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string out = t.render();
  // header rule + top + separator + bottom = 4 horizontal lines
  int rules = 0;
  std::istringstream is(out);
  std::string line;
  while (std::getline(is, line))
    if (!line.empty() && line[0] == '+') ++rules;
  EXPECT_EQ(rules, 4);
}

TEST(Fmt, FixedAndRatio) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(2.0, 0), "2");
  EXPECT_EQ(fmt_ratio(6.514, 2), "6.51");
  EXPECT_EQ(fmt_ratio(std::nan(""), 2), "-");
}

TEST(AsciiPlot, MentionsSeriesAndAxes) {
  const std::string plot = ascii_plot({"skil", "dpfl"}, {1, 2, 3},
                                      {{1.0, 2.0, 3.0}, {2.0, 4.0, 6.0}},
                                      "processors", "speedup");
  EXPECT_NE(plot.find("speedup"), std::string::npos);
  EXPECT_NE(plot.find("* = skil"), std::string::npos);
  EXPECT_NE(plot.find("o = dpfl"), std::string::npos);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/skil_csv_test.csv";
  {
    CsvWriter csv(path, {"n", "time"});
    csv.add_row({"64", "2.06"});
    csv.add_row({"128", "14.77"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "n,time");
  std::getline(in, line);
  EXPECT_EQ(line, "64,2.06");
  std::getline(in, line);
  EXPECT_EQ(line, "128,14.77");
  std::remove(path.c_str());
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--n=128", "--procs", "16", "--quick"};
  Cli cli(5, const_cast<char**>(argv), {"n", "procs", "quick"});
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_EQ(cli.get_int("procs", 0), 16);
  EXPECT_TRUE(cli.get_bool("quick"));
  EXPECT_EQ(cli.get_int("absent", 7), 7);
}

TEST(Cli, RejectsUnknownFlags) {
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_EXIT(Cli(2, const_cast<char**>(argv), {"n"}),
              ::testing::ExitedWithCode(2), "unknown command-line flag");
}

TEST(Cli, HelpPrintsUsageAndExits) {
  const char* argv[] = {"prog", "--help"};
  EXPECT_EXIT(Cli(2, const_cast<char**>(argv), {"n", "csv"}),
              ::testing::ExitedWithCode(2),
              "usage: prog \\[--n\\] \\[--csv\\]");
}

TEST(Cli, CollectsPositionalArguments) {
  const char* argv[] = {"prog", "first", "--n=1", "second"};
  Cli cli(4, const_cast<char**>(argv), {"n"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "first");
  EXPECT_EQ(cli.positional()[1], "second");
}

TEST(Error, MacrosRaiseTypedExceptions) {
  EXPECT_THROW(SKIL_REQUIRE(false, "contract"), ContractError);
  EXPECT_THROW(SKIL_ASSERT(false, "fault"), RuntimeFault);
  EXPECT_NO_THROW(SKIL_REQUIRE(true, "ok"));
}

TEST(Error, MessageCarriesLocationAndText) {
  try {
    SKIL_REQUIRE(false, "the message");
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the message"), std::string::npos);
    EXPECT_NE(what.find("test_support_table_csv_cli.cpp"), std::string::npos);
  }
}

}  // namespace
