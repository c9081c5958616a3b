#include "common/logging.h"

#include <gtest/gtest.h>

#include <ostream>

namespace multipub {
namespace {

/// RAII guard restoring the global log level after each test.
class LevelGuard {
 public:
  LevelGuard() : saved_(log_level()) {}
  ~LevelGuard() { set_log_level(saved_); }

 private:
  LogLevel saved_;
};

TEST(Logging, DefaultLevelIsWarn) {
  // (Other tests must not have leaked a level change; the guard pattern
  // below keeps it that way.)
  EXPECT_EQ(log_level(), LogLevel::kWarn);
}

TEST(Logging, SetAndGetLevel) {
  LevelGuard guard;
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
}

TEST(Logging, LevelsAreOrdered) {
  EXPECT_LT(LogLevel::kDebug, LogLevel::kInfo);
  EXPECT_LT(LogLevel::kInfo, LogLevel::kWarn);
  EXPECT_LT(LogLevel::kWarn, LogLevel::kError);
}

// A type that counts how often it is actually formatted into a stream
// (namespace scope: local classes cannot define friend operators).
struct Counted {
  int* formats;
};
std::ostream& operator<<(std::ostream& os, const Counted& c) {
  ++*c.formats;
  return os << "counted";
}

TEST(Logging, SuppressedStreamSkipsOstreamFormatting) {
  LevelGuard guard;
  set_log_level(LogLevel::kError);
  int formats = 0;
  { LogStream(LogLevel::kDebug, "test") << Counted{&formats}; }
  EXPECT_EQ(formats, 0);  // below threshold: formatting short-circuited
  { LogStream(LogLevel::kError, "test") << Counted{&formats}; }
  EXPECT_EQ(formats, 1);  // at threshold: formatted (and emitted) once
}

TEST(Logging, FilteredMacroEvaluatesNoOperand) {
  LevelGuard guard;
  set_log_level(LogLevel::kError);
  int evaluations = 0;
  const auto operand = [&evaluations] { return ++evaluations; };
  MP_LOG_INFO("test") << "operand " << operand();
  EXPECT_EQ(evaluations, 0);  // filtered: the operand never ran
  MP_LOG_ERROR("test") << "operand " << operand()
                       << " (expected in test output)";
  EXPECT_EQ(evaluations, 1);  // enabled: evaluated exactly once
  // One statement, so it nests under an if without capturing its else.
  bool else_taken = false;
  if (evaluations == 0)
    MP_LOG_ERROR("test") << operand();
  else
    else_taken = true;
  EXPECT_TRUE(else_taken);
  EXPECT_EQ(evaluations, 1);
}

TEST(Logging, MacrosCompileAndRun) {
  LevelGuard guard;
  set_log_level(LogLevel::kError);  // keep the test output quiet
  MP_LOG_DEBUG("test") << "debug " << 1;
  MP_LOG_INFO("test") << "info " << 2.5;
  MP_LOG_WARN("test") << "warn " << "three";
  // kError would print; exercise it once to cover the emit path.
  MP_LOG_ERROR("test") << "error path exercised (expected in test output)";
  SUCCEED();
}

}  // namespace
}  // namespace multipub
