#include "util/cli.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "util/error.h"

namespace dvs::util {
namespace {

std::vector<const char*> Argv(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args);
  return argv;
}

TEST(ArgParser, ParsesAllTypes) {
  bool flag = false;
  std::int64_t count = 1;
  double ratio = 0.0;
  std::string name = "default";
  ArgParser parser("prog", "test");
  parser.AddFlag("flag", &flag, "a flag");
  parser.AddInt("count", &count, "a count");
  parser.AddDouble("ratio", &ratio, "a ratio");
  parser.AddString("name", &name, "a name");

  const auto argv =
      Argv({"--flag", "--count", "7", "--ratio=0.25", "--name", "x"});
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(flag);
  EXPECT_EQ(count, 7);
  EXPECT_DOUBLE_EQ(ratio, 0.25);
  EXPECT_EQ(name, "x");
}

TEST(ArgParser, DefaultsSurviveWhenAbsent) {
  std::int64_t count = 99;
  ArgParser parser("prog", "test");
  parser.AddInt("count", &count, "a count");
  const auto argv = Argv({});
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(count, 99);
}

TEST(ArgParser, EqualsFormForEveryType) {
  bool flag = true;
  std::int64_t count = 0;
  ArgParser parser("prog", "test");
  parser.AddFlag("flag", &flag, "f");
  parser.AddInt("count", &count, "c");
  const auto argv = Argv({"--flag=false", "--count=-3"});
  ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_FALSE(flag);
  EXPECT_EQ(count, -3);
}

TEST(ArgParser, RejectsUnknownOption) {
  ArgParser parser("prog", "test");
  const auto argv = Argv({"--nope"});
  EXPECT_THROW(parser.Parse(static_cast<int>(argv.size()), argv.data()),
               InvalidArgumentError);
}

TEST(ArgParser, RejectsMalformedNumbers) {
  std::int64_t count = 0;
  std::int64_t hyper_periods = 0;
  double ratio = 0.0;
  double drift_threshold = 0.0;
  double critical_speed = 0.0;
  double idle_power = 0.0;
  ArgParser parser("prog", "test");
  parser.AddInt("count", &count, "c");
  parser.AddInt("hyper-periods", &hyper_periods, "h");
  parser.AddDouble("ratio", &ratio, "r");
  parser.AddDouble("drift-threshold", &drift_threshold, "d");
  parser.AddDouble("critical-speed", &critical_speed, "s");
  parser.AddDouble("idle-power", &idle_power, "p");
  // Garbage, non-finite doubles (strtod parses "nan"/"inf") and integers
  // strtoll would saturate: each must fail naming its flag.
  const std::vector<std::pair<const char*, const char*>> bad = {
      {"--count", "seven"},
      {"--ratio", "0.5x"},
      {"--drift-threshold", "nan"},
      {"--critical-speed", "nan"},
      {"--idle-power", "inf"},
      {"--ratio", "-inf"},
      {"--ratio", "1e999"},
      {"--hyper-periods", "99999999999999999999"},
      {"--count", "-99999999999999999999"},
  };
  for (const auto& [flag, value] : bad) {
    const auto argv = Argv({flag, value});
    try {
      parser.Parse(static_cast<int>(argv.size()), argv.data());
      ADD_FAILURE() << flag << " " << value << " was accepted";
    } catch (const InvalidArgumentError& error) {
      EXPECT_NE(std::string(error.what()).find(flag), std::string::npos)
          << error.what();
    }
  }
}

TEST(ParsePositiveDoubleList, RejectsNonFiniteEntries) {
  EXPECT_EQ(bench::ParsePositiveDoubleList("sigmas", "3,6.5"),
            (std::vector<double>{3.0, 6.5}));
  for (const char* text : {"3,inf", "inf", "nan,3", "1e999"}) {
    try {
      bench::ParsePositiveDoubleList("sigmas", text);
      ADD_FAILURE() << text << " was accepted";
    } catch (const InvalidArgumentError& error) {
      EXPECT_NE(std::string(error.what()).find("--sigmas"), std::string::npos)
          << error.what();
    }
  }
}

TEST(ArgParser, RejectsMissingValue) {
  std::int64_t count = 0;
  ArgParser parser("prog", "test");
  parser.AddInt("count", &count, "c");
  const auto argv = Argv({"--count"});
  EXPECT_THROW(parser.Parse(static_cast<int>(argv.size()), argv.data()),
               InvalidArgumentError);
}

TEST(ArgParser, RejectsPositionalArguments) {
  ArgParser parser("prog", "test");
  const auto argv = Argv({"stray"});
  EXPECT_THROW(parser.Parse(static_cast<int>(argv.size()), argv.data()),
               InvalidArgumentError);
}

TEST(ArgParser, RejectsDuplicateRegistration) {
  std::int64_t a = 0;
  ArgParser parser("prog", "test");
  parser.AddInt("x", &a, "first");
  EXPECT_THROW(parser.AddInt("x", &a, "second"), InvalidArgumentError);
}

TEST(ArgParser, HelpReturnsFalse) {
  ArgParser parser("prog", "test");
  const auto argv = Argv({"--help"});
  EXPECT_FALSE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(ArgParser, UsageMentionsOptionsAndDefaults) {
  std::int64_t count = 42;
  ArgParser parser("prog", "does things");
  parser.AddInt("count", &count, "how many");
  const std::string usage = parser.Usage();
  EXPECT_NE(usage.find("count"), std::string::npos);
  EXPECT_NE(usage.find("how many"), std::string::npos);
  EXPECT_NE(usage.find("42"), std::string::npos);
}

TEST(ArgParser, BooleanSpellings) {
  // Boolean flags never consume the next token (that would make bare
  // `--flag` ambiguous); explicit values use the `=` form.
  bool flag = false;
  ArgParser parser("prog", "test");
  parser.AddFlag("flag", &flag, "f");
  for (const std::string value : {"true", "1", "yes"}) {
    flag = false;
    const std::string arg = "--flag=" + value;
    const auto argv = Argv({arg.c_str()});
    ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_TRUE(flag) << value;
  }
  for (const std::string value : {"false", "0", "no"}) {
    flag = true;
    const std::string arg = "--flag=" + value;
    const auto argv = Argv({arg.c_str()});
    ASSERT_TRUE(parser.Parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_FALSE(flag) << value;
  }
  const auto bad = Argv({"--flag=maybe"});
  EXPECT_THROW(parser.Parse(static_cast<int>(bad.size()), bad.data()),
               InvalidArgumentError);
}

}  // namespace
}  // namespace dvs::util
