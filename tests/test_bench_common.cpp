// Unit tests for the bench binaries' shared standard flags
// (bench/bench_common.hpp): parse_standard must refuse out-of-range size
// flags, naming the flag and the value, instead of silently wrapping them
// or falling back to the mode defaults.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../bench/bench_common.hpp"

namespace {

/// parse_standard over `args` (after the program name) on a fresh parser.
std::optional<nb::bench::bench_config> parse(const std::vector<std::string>& args) {
  nb::cli_parser cli("test");
  nb::bench::add_standard_flags(cli);
  std::vector<const char*> argv{"prog"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return nb::bench::parse_standard(cli, static_cast<int>(argv.size()), argv.data());
}

/// Expects parse(args) to throw a contract_error naming `flag` and `value`.
void expect_rejected(const std::vector<std::string>& args, const std::string& flag,
                     const std::string& value) {
  try {
    (void)parse(args);
    ADD_FAILURE() << flag << " " << value << " accepted";
  } catch (const nb::contract_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(flag + " got " + value), std::string::npos) << what;
  }
}

TEST(BenchStandardFlags, AcceptsTheBoundsOfEverySizeFlag) {
  const auto defaults = parse({});
  ASSERT_TRUE(defaults.has_value());
  EXPECT_EQ(defaults->bin_counts(), std::vector<nb::bin_count>{10000});
  EXPECT_EQ(defaults->runs(), 10u);
  // --runs 0 and --n 0 mean the mode default.
  const auto zeros = parse({"--n", "0", "--runs", "0"});
  ASSERT_TRUE(zeros.has_value());
  EXPECT_EQ(zeros->bin_counts(), std::vector<nb::bin_count>{10000});
  // m-mult * n may reach max_run_balls = 2 * 10^9 exactly.
  const auto largest = parse({"--n", "2000000000", "--m-mult", "1"});
  ASSERT_TRUE(largest.has_value());
  EXPECT_EQ(largest->bin_counts(), std::vector<nb::bin_count>{2000000000U});
  const auto widest = parse({"--m-mult", "200000"});
  ASSERT_TRUE(widest.has_value());
  EXPECT_EQ(widest->m_multiplier, 200000);
  ASSERT_TRUE(parse({"--mode", "paper", "--m-mult", "20000"}).has_value());
}

TEST(BenchStandardFlags, RejectsOutOfRangeSizesNamingFlagAndValue) {
  // 2^32 + 1 used to wrap to n = 1; negatives used to mean "default".
  expect_rejected({"--n", "4294967297"}, "--n", "4294967297");
  expect_rejected({"--n", "4294967296"}, "--n", "4294967296");
  expect_rejected({"--n", "-5"}, "--n", "-5");
  expect_rejected({"--runs", "-3"}, "--runs", "-3");
  expect_rejected({"--m-mult", "0"}, "--m-mult", "0");
  // m-mult * n past max_run_balls, checked against the largest n of the
  // mode (paper mode runs n up to 10^5) and before any product overflows.
  expect_rejected({"--m-mult", "200001"}, "--m-mult", "200001");
  expect_rejected({"--mode", "paper", "--m-mult", "20001"}, "--m-mult", "20001");
  expect_rejected({"--n", "1000000", "--m-mult", "9223372036854775807"}, "--m-mult",
                  "9223372036854775807");
}

}  // namespace
