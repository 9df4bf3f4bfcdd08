// Minimal leveled logger.
//
// The library is quiet by default (kWarn); benches and examples raise the
// level via --verbose or Logger::set_level, and the ACS_LOG_LEVEL
// environment variable pre-sets the level at first use (unknown names are
// ignored).  Logging goes through a single global logger so tests can
// capture or silence output deterministically.
//
// The sink format — "[level] message\n" to std::clog — is a byte-stable
// contract (tests pin it).
#ifndef ACS_UTIL_LOGGING_H
#define ACS_UTIL_LOGGING_H

#include <atomic>
#include <iosfwd>
#include <mutex>
#include <sstream>
#include <string>

namespace dvs::util {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Returns the canonical lower-case name ("trace", "debug", ...).
const char* LogLevelName(LogLevel level);

/// Parses a level name; throws InvalidArgumentError on unknown names.
LogLevel ParseLogLevel(const std::string& name);

/// The level ACS_LOG_LEVEL selects: ParseLogLevel on non-null `value`,
/// falling back to `fallback` when the value is null or unknown.  Pure so
/// tests can cover the env-init path without mutating the environment.
LogLevel LogLevelFromEnvValue(const char* value, LogLevel fallback);

/// Process-wide logger.  Thread-safe: sink writes are serialised under a
/// mutex (runner::RunGrid workers log concurrently), and the level is
/// atomic so the ACS_LOG fast path stays lock-free.
class Logger {
 public:
  static Logger& Instance();

  void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }

  /// Redirects output (default: std::clog).  Pass nullptr to restore.
  void set_stream(std::ostream* stream);

  bool Enabled(LogLevel level) const { return level >= this->level(); }
  void Write(LogLevel level, const std::string& message);

 private:
  Logger();
  std::atomic<LogLevel> level_{LogLevel::kWarn};
  std::mutex mutex_;  // guards the stream and sink writes
  std::ostream* stream_;
};

/// Stream-style log statement builder; emits on destruction.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine();
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    buffer_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream buffer_;
};

}  // namespace dvs::util

#define ACS_LOG(level)                                              \
  if (!::dvs::util::Logger::Instance().Enabled(level)) {            \
  } else                                                            \
    ::dvs::util::LogLine(level)

#define ACS_LOG_TRACE ACS_LOG(::dvs::util::LogLevel::kTrace)
#define ACS_LOG_DEBUG ACS_LOG(::dvs::util::LogLevel::kDebug)
#define ACS_LOG_INFO ACS_LOG(::dvs::util::LogLevel::kInfo)
#define ACS_LOG_WARN ACS_LOG(::dvs::util::LogLevel::kWarn)
#define ACS_LOG_ERROR ACS_LOG(::dvs::util::LogLevel::kError)

#endif  // ACS_UTIL_LOGGING_H
