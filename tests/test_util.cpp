// Unit tests for the util substrate: CLI parser, CSV writer, table
// formatter and string helpers.  The thread pool has its own suite
// (test_thread_pool.cpp), which CI also runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

// ---------------------------------------------------------------------------
// cli_parser

TEST(Cli, ParsesAllValueForms) {
  nb::cli_parser cli("test");
  cli.add_int("n", 10, "bins");
  cli.add_double("sigma", 1.5, "noise");
  cli.add_string("mode", "quick", "mode");
  cli.add_bool("verbose", false, "verbosity");
  const char* argv[] = {"prog", "--n", "100", "--sigma=2.5", "--mode", "paper", "--verbose"};
  ASSERT_TRUE(cli.parse(7, argv));
  EXPECT_EQ(cli.get_int("n"), 100);
  EXPECT_DOUBLE_EQ(cli.get_double("sigma"), 2.5);
  EXPECT_EQ(cli.get_string("mode"), "paper");
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, DefaultsSurviveWhenNotPassed) {
  nb::cli_parser cli("test");
  cli.add_int("runs", 42, "repetitions");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("runs"), 42);
}

TEST(Cli, ExplicitBooleanValues) {
  nb::cli_parser cli("test");
  cli.add_bool("flag", true, "a flag");
  const char* argv[] = {"prog", "--flag", "false"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_FALSE(cli.get_bool("flag"));
  const char* argv2[] = {"prog", "--flag=1"};
  ASSERT_TRUE(cli.parse(2, argv2));
  EXPECT_TRUE(cli.get_bool("flag"));
}

TEST(Cli, UnknownFlagThrows) {
  nb::cli_parser cli("test");
  cli.add_int("n", 1, "bins");
  const char* argv[] = {"prog", "--typo", "3"};
  EXPECT_THROW(cli.parse(3, argv), nb::contract_error);
}

TEST(Cli, MalformedValueThrows) {
  nb::cli_parser cli("test");
  cli.add_int("n", 1, "bins");
  const char* argv[] = {"prog", "--n", "abc"};
  EXPECT_THROW(cli.parse(3, argv), nb::contract_error);
}

TEST(Cli, MissingValueThrows) {
  nb::cli_parser cli("test");
  cli.add_int("n", 1, "bins");
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW(cli.parse(2, argv), nb::contract_error);
}

TEST(Cli, DuplicateRegistrationThrows) {
  nb::cli_parser cli("test");
  cli.add_int("n", 1, "bins");
  EXPECT_THROW(cli.add_int("n", 2, "again"), nb::contract_error);
}

TEST(Cli, HelpReturnsFalseAndListsFlags) {
  nb::cli_parser cli("my tool");
  cli.add_int("n", 10, "number of bins");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
  const std::string help = cli.help_text();
  EXPECT_NE(help.find("my tool"), std::string::npos);
  EXPECT_NE(help.find("--n"), std::string::npos);
  EXPECT_NE(help.find("number of bins"), std::string::npos);
}

TEST(Cli, TypeMismatchOnGetThrows) {
  nb::cli_parser cli("test");
  cli.add_int("n", 1, "bins");
  EXPECT_THROW(static_cast<void>(cli.get_double("n")), nb::contract_error);
  EXPECT_THROW(static_cast<void>(cli.get_int("nope")), nb::contract_error);
}

TEST(Cli, ThreadCountFlagBoundsAndNamesRejections) {
  // Validation only -- no test here starts a thread.
  EXPECT_EQ(nb::thread_count_flag("--threads", 0), 0u);
  EXPECT_EQ(nb::thread_count_flag("--threads", 1024), 1024u);
  for (const std::int64_t bad : {std::int64_t{-1}, std::int64_t{1025}}) {
    try {
      (void)nb::thread_count_flag("--threads-per-run", bad);
      ADD_FAILURE() << bad << " accepted";
    } catch (const nb::contract_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--threads-per-run"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(bad)), std::string::npos) << what;
    }
  }
}

TEST(Cli, ShardCountFlagBoundsAndNamesRejections) {
  // Validation only -- no test here starts a thread.
  EXPECT_EQ(nb::shard_count_flag("--shards", 1), 1u);
  EXPECT_EQ(nb::shard_count_flag("--shards", 1024), 1024u);
  for (const std::int64_t bad : {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1025}}) {
    try {
      (void)nb::shard_count_flag("--shards", bad);
      ADD_FAILURE() << bad << " accepted";
    } catch (const nb::contract_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--shards"), std::string::npos) << what;
      EXPECT_NE(what.find("got " + std::to_string(bad)), std::string::npos) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// csv_writer

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/nb_csv_test1.csv";
  {
    nb::csv_writer csv(path, {"a", "b"});
    csv.write_row({"1", "2"});
    csv.write_row({"x", "y"});
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::remove(path.c_str());
}

TEST(Csv, QuotesSpecialCharacters) {
  const std::string path = ::testing::TempDir() + "/nb_csv_test2.csv";
  {
    nb::csv_writer csv(path, {"v"});
    csv.write_row({"has,comma"});
    csv.write_row({"has\"quote"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::getline(in, line);
  EXPECT_EQ(line, "\"has,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "\"has\"\"quote\"");
  std::remove(path.c_str());
}

TEST(Csv, RowWidthMismatchThrows) {
  const std::string path = ::testing::TempDir() + "/nb_csv_test3.csv";
  nb::csv_writer csv(path, {"a", "b"});
  EXPECT_THROW(csv.write_row({"only-one"}), nb::contract_error);
  std::remove(path.c_str());
}

TEST(Csv, FieldFormatting) {
  EXPECT_EQ(nb::csv_writer::field(std::int64_t{42}), "42");
  EXPECT_EQ(nb::csv_writer::field(2.5), "2.5");
}

// ---------------------------------------------------------------------------
// text_table

TEST(Table, RendersAlignedColumns) {
  nb::text_table t({"name", "gap"});
  t.add_row({"two-choice", "3"});
  t.add_row({"g-bounded", "25"});
  const std::string out = t.render();
  EXPECT_NE(out.find("two-choice"), std::string::npos);
  EXPECT_NE(out.find("25"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, RuleInsertsSeparator) {
  nb::text_table t({"a"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  const std::string out = t.render();
  // Three separator lines: under header plus the explicit rule.
  int separators = 0;
  std::istringstream is(out);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line.find_first_not_of('-') == std::string::npos) ++separators;
  }
  EXPECT_EQ(separators, 2);
}

TEST(Table, WidthMismatchThrows) {
  nb::text_table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), nb::contract_error);
}

TEST(Table, NumericCellsRightAligned) {
  nb::text_table t({"value"});
  t.add_row({"7"});
  t.add_row({"1234"});
  const std::string out = t.render();
  // "7" padded to width 5 and right-aligned -> line is "    7".
  EXPECT_NE(out.find("    7"), std::string::npos);
}

// ---------------------------------------------------------------------------
// strings

TEST(Strings, FormatFixed) {
  EXPECT_EQ(nb::format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(nb::format_fixed(2.0, 0), "2");
}

TEST(Strings, FormatPowerOfTen) {
  EXPECT_EQ(nb::format_power_of_ten(10000), "10^4");
  EXPECT_EQ(nb::format_power_of_ten(50000), "5x10^4");
  EXPECT_EQ(nb::format_power_of_ten(100000), "10^5");
  EXPECT_EQ(nb::format_power_of_ten(12345), "12345");
  EXPECT_EQ(nb::format_power_of_ten(1), "1");
  EXPECT_EQ(nb::format_power_of_ten(5), "5");
}

TEST(Strings, Split) {
  const auto parts = nb::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, ParseIntList) {
  const auto values = nb::parse_int_list("1,2,16");
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[2], 16);
  EXPECT_TRUE(nb::parse_int_list("").empty());
  EXPECT_THROW(nb::parse_int_list("1,x"), nb::contract_error);
  EXPECT_THROW(nb::parse_int_list("1,2.5"), nb::contract_error);
}

TEST(Strings, FormatDuration) {
  EXPECT_EQ(nb::format_duration(5.25), "5.2s");
  EXPECT_EQ(nb::format_duration(62.0), "1m02s");
}

}  // namespace
