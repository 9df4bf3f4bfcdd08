#include "util/strings.h"

#include <gtest/gtest.h>

namespace dvs::util {
namespace {

TEST(Split, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Join, RoundTripsWithSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ";"), ';'), parts);
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(Trim, Whitespace) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(StartsWith, Prefixes) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-f", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("", "a"));
}

TEST(FormatDouble, Decimals) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(3.14159, 0), "3");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatDouble(1e6, 1), "1000000.0");
}

TEST(FormatPercent, FractionToPercent) {
  EXPECT_EQ(FormatPercent(0.5), "50.0%");
  EXPECT_EQ(FormatPercent(0.123, 2), "12.30%");
  EXPECT_EQ(FormatPercent(0.0), "0.0%");
  EXPECT_EQ(FormatPercent(1.0), "100.0%");
}

TEST(Pad, LeftAndRight) {
  EXPECT_EQ(PadRight("ab", 5), "ab   ");
  EXPECT_EQ(PadRight("abcdef", 3), "abcdef");  // never truncates
}

TEST(ToLower, Ascii) {
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
  EXPECT_EQ(ToLower("123-ABC"), "123-abc");
}

}  // namespace
}  // namespace dvs::util
