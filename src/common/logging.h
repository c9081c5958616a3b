// Minimal leveled logger.
//
// MultiPub components log reconfiguration decisions and protocol events at
// Info/Debug; the default level (Warn) keeps tests and benchmarks quiet.
// A single global level keeps the dependency surface tiny — the simulator is
// single-threaded per scenario, and the level is typically set once at
// startup before any concurrency begins.
#pragma once

#include <sstream>
#include <string_view>

namespace multipub {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Sets the global threshold; messages below it are discarded.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

namespace detail {
void log_line(LogLevel level, std::string_view component,
              std::string_view message);
}  // namespace detail

/// Streams one log line on destruction:  `[level] component: message`.
/// Usage: LogStream(LogLevel::kInfo, "controller") << "topic " << t; the
/// MP_LOG_* macros below also skip evaluating the operands when filtered.
class LogStream {
 public:
  LogStream(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;
  ~LogStream() {
    if (level_ >= log_level()) {
      detail::log_line(level_, component_, buffer_.str());
    }
  }

  template <typename T>
  LogStream& operator<<(const T& value) {
    if (level_ >= log_level()) buffer_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string_view component_;
  std::ostringstream buffer_;
};

}  // namespace multipub

// Each macro tests the level before it constructs anything, so a filtered
// line costs one level load: no LogStream, and no `<<` operand is
// evaluated. The `if (...) {} else` form keeps the macro one statement, safe
// under an enclosing if/else.
#define MP_LOG_AT(level, component)            \
  if ((level) < ::multipub::log_level()) {     \
  } else                                       \
    ::multipub::LogStream(level, component)
#define MP_LOG_DEBUG(component) \
  MP_LOG_AT(::multipub::LogLevel::kDebug, component)
#define MP_LOG_INFO(component) \
  MP_LOG_AT(::multipub::LogLevel::kInfo, component)
#define MP_LOG_WARN(component) \
  MP_LOG_AT(::multipub::LogLevel::kWarn, component)
#define MP_LOG_ERROR(component) \
  MP_LOG_AT(::multipub::LogLevel::kError, component)
