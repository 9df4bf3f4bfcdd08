#include "util/logging.h"

#include <cstdlib>
#include <iostream>

#include "util/error.h"

namespace dvs::util {

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "trace";
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "unknown";
}

LogLevel ParseLogLevel(const std::string& name) {
  for (LogLevel level :
       {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
        LogLevel::kError, LogLevel::kOff}) {
    if (name == LogLevelName(level)) {
      return level;
    }
  }
  throw InvalidArgumentError("unknown log level: " + name);
}

LogLevel LogLevelFromEnvValue(const char* value, LogLevel fallback) {
  if (value == nullptr) {
    return fallback;
  }
  try {
    return ParseLogLevel(value);
  } catch (const InvalidArgumentError&) {
    // An env typo must not abort the program; keep the compiled default.
    return fallback;
  }
}

Logger& Logger::Instance() {
  static Logger logger;
  return logger;
}

Logger::Logger() : stream_(&std::clog) {
  level_.store(
      LogLevelFromEnvValue(std::getenv("ACS_LOG_LEVEL"), LogLevel::kWarn),
      std::memory_order_relaxed);
}

void Logger::set_stream(std::ostream* stream) {
  std::lock_guard<std::mutex> lock(mutex_);
  stream_ = stream != nullptr ? stream : &std::clog;
}

void Logger::Write(LogLevel level, const std::string& message) {
  if (!Enabled(level)) {
    return;
  }
  // One formatted line per lock hold: concurrent workers' lines interleave
  // whole, never mid-line.
  std::lock_guard<std::mutex> lock(mutex_);
  (*stream_) << '[' << LogLevelName(level) << "] " << message << '\n';
}

LogLine::~LogLine() { Logger::Instance().Write(level_, buffer_.str()); }

}  // namespace dvs::util
