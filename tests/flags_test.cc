#include "util/flags.h"

#include <gtest/gtest.h>

namespace auditgame::util {
namespace {

std::vector<char*> MakeArgv(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return argv;
}

TEST(FlagParserTest, DefaultsApply) {
  FlagParser parser;
  parser.Define("budget", "10", "audit budget");
  std::vector<std::string> args = {"prog"};
  auto argv = MakeArgv(args);
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(parser.GetInt("budget"), 10);
}

TEST(FlagParserTest, EqualsSyntax) {
  FlagParser parser;
  parser.Define("eps", "0.1", "step size");
  std::vector<std::string> args = {"prog", "--eps=0.25"};
  auto argv = MakeArgv(args);
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_DOUBLE_EQ(parser.GetDouble("eps"), 0.25);
}

TEST(FlagParserTest, SpaceSyntax) {
  FlagParser parser;
  parser.Define("name", "x", "a name");
  std::vector<std::string> args = {"prog", "--name", "hello"};
  auto argv = MakeArgv(args);
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(parser.GetString("name"), "hello");
}

TEST(FlagParserTest, BooleanForm) {
  FlagParser parser;
  parser.Define("verbose", "false", "chatty output");
  std::vector<std::string> args = {"prog", "--verbose"};
  auto argv = MakeArgv(args);
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_TRUE(parser.GetBool("verbose"));
}

TEST(FlagParserTest, UnknownFlagRejected) {
  FlagParser parser;
  parser.Define("known", "1", "known flag");
  std::vector<std::string> args = {"prog", "--unknown=2"};
  auto argv = MakeArgv(args);
  EXPECT_FALSE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
}

TEST(FlagParserTest, HelpRequested) {
  FlagParser parser;
  parser.Define("x", "1", "something");
  std::vector<std::string> args = {"prog", "--help"};
  auto argv = MakeArgv(args);
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_TRUE(parser.help_requested());
  EXPECT_NE(parser.HelpString("prog").find("--x"), std::string::npos);
}

TEST(FlagParserTest, DoubleList) {
  FlagParser parser;
  parser.Define("eps", "0.1,0.2,0.3", "step sizes");
  std::vector<std::string> args = {"prog"};
  auto argv = MakeArgv(args);
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  const auto values = parser.GetDoubleList("eps");
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[1], 0.2);
}

TEST(FlagParserTest, IntList) {
  FlagParser parser;
  parser.Define("budgets", "2,4,6", "budgets");
  std::vector<std::string> args = {"prog", "--budgets=10,20"};
  auto argv = MakeArgv(args);
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  const auto values = parser.GetIntList("budgets");
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], 10);
  EXPECT_EQ(values[1], 20);
}

TEST(FlagParserTest, PositionalArgumentRejected) {
  FlagParser parser;
  std::vector<std::string> args = {"prog", "positional"};
  auto argv = MakeArgv(args);
  EXPECT_FALSE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
}

TEST(ParseFullIntTest, AcceptsWholeTokensOnly) {
  EXPECT_EQ(ParseFullInt("12").value(), 12);
  EXPECT_EQ(ParseFullInt("-7").value(), -7);
  EXPECT_EQ(ParseFullInt("+3").value(), 3);
  EXPECT_FALSE(ParseFullInt("12abc").ok());
  EXPECT_FALSE(ParseFullInt("abc").ok());
  EXPECT_FALSE(ParseFullInt("").ok());
  EXPECT_FALSE(ParseFullInt("1.5").ok());
  EXPECT_FALSE(ParseFullInt(" 12").ok());
  EXPECT_FALSE(ParseFullInt("12 ").ok());
  EXPECT_FALSE(ParseFullInt("99999999999999999999").ok());
}

TEST(ParseFullDoubleTest, AcceptsWholeTokensOnly) {
  EXPECT_DOUBLE_EQ(ParseFullDouble("0.25").value(), 0.25);
  EXPECT_DOUBLE_EQ(ParseFullDouble("-1e3").value(), -1000.0);
  EXPECT_DOUBLE_EQ(ParseFullDouble("7").value(), 7.0);
  EXPECT_FALSE(ParseFullDouble("0.25x").ok());
  EXPECT_FALSE(ParseFullDouble("abc").ok());
  EXPECT_FALSE(ParseFullDouble("").ok());
  EXPECT_FALSE(ParseFullDouble(" 0.5").ok());
  EXPECT_FALSE(ParseFullDouble("1.5.3").ok());
}

TEST(ParseFullDoubleTest, RangeEdges) {
  // Underflow to a subnormal sets ERANGE but the value is representable.
  EXPECT_DOUBLE_EQ(ParseFullDouble("1e-310").value(), 1e-310);
  EXPECT_FALSE(ParseFullDouble("1e999").ok());  // overflow
  // Non-finite tokens defeat every (lo, hi) range guard downstream.
  EXPECT_FALSE(ParseFullDouble("nan").ok());
  EXPECT_FALSE(ParseFullDouble("inf").ok());
  EXPECT_FALSE(ParseFullDouble("-inf").ok());
}

// The typed accessors must not silently coerce malformed values ("12abc"
// used to read as 12, "abc" as 0); they terminate with a message naming
// the flag.
TEST(FlagParserDeathTest, MalformedIntExitsWithFlagName) {
  FlagParser parser;
  parser.Define("budget", "10", "audit budget");
  std::vector<std::string> args = {"prog", "--budget=12abc"};
  auto argv = MakeArgv(args);
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EXIT(parser.GetInt("budget"), ::testing::ExitedWithCode(2),
              "invalid value for --budget");
}

TEST(FlagParserDeathTest, MalformedDoubleExitsWithFlagName) {
  FlagParser parser;
  parser.Define("eps", "0.1", "step size");
  std::vector<std::string> args = {"prog", "--eps=abc"};
  auto argv = MakeArgv(args);
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EXIT(parser.GetDouble("eps"), ::testing::ExitedWithCode(2),
              "invalid value for --eps");
}

TEST(FlagParserDeathTest, MalformedListElementExitsWithFlagName) {
  FlagParser parser;
  parser.Define("budgets", "2,4", "budgets");
  std::vector<std::string> args = {"prog", "--budgets=2,x,6"};
  auto argv = MakeArgv(args);
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EXIT(parser.GetIntList("budgets"), ::testing::ExitedWithCode(2),
              "invalid value for --budgets");
  std::vector<std::string> dargs = {"prog", "--budgets=2,0.5y"};
  auto dargv = MakeArgv(dargs);
  ASSERT_TRUE(parser.Parse(static_cast<int>(dargv.size()), dargv.data()).ok());
  EXPECT_EXIT(parser.GetDoubleList("budgets"), ::testing::ExitedWithCode(2),
              "invalid value for --budgets");
}

TEST(FlagParserTest, EmptyValueYieldsEmptyLists) {
  FlagParser parser;
  parser.Define("thresholds", "", "optional thresholds");
  std::vector<std::string> args = {"prog"};
  auto argv = MakeArgv(args);
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_TRUE(parser.GetDoubleList("thresholds").empty());
  EXPECT_TRUE(parser.GetIntList("thresholds").empty());
}

TEST(FlagParserTest, GetIntAtLeastRejectsValuesBelowTheBound) {
  FlagParser parser;
  parser.Define("window", "4", "pipelining depth");
  std::vector<std::string> args = {"prog", "--window=0"};
  auto argv = MakeArgv(args);
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  auto rejected = parser.GetIntAtLeast("window", 1);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rejected.status().message(),
            "--window must be at least 1, got 0");
  auto accepted = parser.GetIntAtLeast("window", 0);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  EXPECT_EQ(*accepted, 0);
}

TEST(FlagParserTest, GetNonEmptyListRejectsAnEmptyList) {
  FlagParser parser;
  parser.Define("budgets", "2,4", "audit budgets");
  parser.Define("eps", "0.1", "step sizes");
  std::vector<std::string> args = {"prog", "--budgets="};
  auto argv = MakeArgv(args);
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  auto budgets = parser.GetNonEmptyList<int>("budgets");
  ASSERT_FALSE(budgets.ok());
  EXPECT_EQ(budgets.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(budgets.status().message(),
            "--budgets must list at least one value");
  auto eps = parser.GetNonEmptyList<double>("eps");
  ASSERT_TRUE(eps.ok()) << eps.status();
  EXPECT_EQ(*eps, std::vector<double>{0.1});
}

}  // namespace
}  // namespace auditgame::util
