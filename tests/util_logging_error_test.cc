// Tests for the error hierarchy and the logger.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/error.h"
#include "util/logging.h"

namespace dvs::util {
namespace {

TEST(Error, HierarchyIsCatchable) {
  const auto as_base = [](const Error& e) { return std::string(e.what()); };
  EXPECT_NE(as_base(InvalidArgumentError("bad arg")).find("bad arg"),
            std::string::npos);
  EXPECT_NE(as_base(InfeasibleError("no way")).find("no way"),
            std::string::npos);
  EXPECT_NE(as_base(SolverError("diverged")).find("diverged"),
            std::string::npos);
  EXPECT_NE(as_base(InternalError("bug")).find("bug"), std::string::npos);
}

TEST(Error, RequireMacroThrowsWithLocation) {
  try {
    ACS_REQUIRE(1 == 2, "numbers disagree");
    FAIL() << "expected a throw";
  } catch (const InvalidArgumentError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("numbers disagree"), std::string::npos);
    EXPECT_NE(what.find("util_logging_error_test"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Error, CheckMacroThrowsInternal) {
  EXPECT_THROW(ACS_CHECK(false, "invariant"), InternalError);
  EXPECT_NO_THROW(ACS_CHECK(true, "invariant"));
}

TEST(LogLevel, NamesRoundTrip) {
  for (LogLevel level : {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo,
                         LogLevel::kWarn, LogLevel::kError, LogLevel::kOff}) {
    EXPECT_EQ(ParseLogLevel(LogLevelName(level)), level);
  }
  EXPECT_THROW(ParseLogLevel("loud"), InvalidArgumentError);
}

class LoggerCapture : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_level_ = Logger::Instance().level();
    Logger::Instance().set_stream(&captured_);
  }
  void TearDown() override {
    Logger::Instance().set_stream(nullptr);
    Logger::Instance().set_level(saved_level_);
  }
  std::ostringstream captured_;
  LogLevel saved_level_ = LogLevel::kWarn;
};

TEST_F(LoggerCapture, RespectsLevelThreshold) {
  Logger::Instance().set_level(LogLevel::kWarn);
  ACS_LOG_DEBUG << "quiet";
  ACS_LOG_WARN << "loud";
  const std::string out = captured_.str();
  EXPECT_EQ(out.find("quiet"), std::string::npos);
  EXPECT_NE(out.find("loud"), std::string::npos);
  EXPECT_NE(out.find("[warn]"), std::string::npos);
}

TEST_F(LoggerCapture, OffSilencesEverything) {
  Logger::Instance().set_level(LogLevel::kOff);
  ACS_LOG_ERROR << "nope";
  EXPECT_TRUE(captured_.str().empty());
}

TEST_F(LoggerCapture, StreamStyleComposition) {
  Logger::Instance().set_level(LogLevel::kInfo);
  ACS_LOG_INFO << "x=" << 42 << " y=" << 1.5;
  EXPECT_NE(captured_.str().find("x=42 y=1.5"), std::string::npos);
}

TEST(LogLevelEnv, FromEnvValueFallsBackOnBadInput) {
  // Pure function behind the ACS_LOG_LEVEL constructor init — testable
  // without mutating the process environment.
  EXPECT_EQ(LogLevelFromEnvValue(nullptr, LogLevel::kWarn), LogLevel::kWarn);
  EXPECT_EQ(LogLevelFromEnvValue("debug", LogLevel::kWarn), LogLevel::kDebug);
  EXPECT_EQ(LogLevelFromEnvValue("off", LogLevel::kInfo), LogLevel::kOff);
  // A typo keeps the compiled default instead of aborting startup.
  EXPECT_EQ(LogLevelFromEnvValue("loud", LogLevel::kError), LogLevel::kError);
  EXPECT_EQ(LogLevelFromEnvValue("", LogLevel::kWarn), LogLevel::kWarn);
}

TEST_F(LoggerCapture, DefaultFormatIsByteStable) {
  // The byte contract scripts grep against.
  Logger::Instance().set_level(LogLevel::kWarn);
  ACS_LOG_WARN << "plain message";
  EXPECT_EQ(captured_.str(), "[warn] plain message\n");
}

}  // namespace
}  // namespace dvs::util
