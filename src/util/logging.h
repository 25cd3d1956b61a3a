// Minimal logging and invariant-checking macros.
//
// LOG(INFO) << ...;            — leveled logging to stderr.
// CHECK(cond) << "context";    — aborts on violated invariants.
// DCHECK(cond)                 — CHECK compiled out in NDEBUG builds.
//
// These are for programming errors and diagnostics; recoverable errors use
// util::Status.

#ifndef TRITON_UTIL_LOGGING_H_
#define TRITON_UTIL_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace triton::util {

/// Severity levels for LOG().
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

/// One in-flight log statement; flushes on destruction and aborts for kFatal.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows the streamed expression when a log statement is disabled.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

/// Converts the ostream& result of a CHECK's log statement to void so it
/// can sit on one arm of a ternary operator (Google logging idiom).
class LogMessageVoidify {
 public:
  void operator&(std::ostream&) {}
};

}  // namespace triton::util

#define TRITON_LOG_DEBUG ::triton::util::LogLevel::kDebug
#define TRITON_LOG_INFO ::triton::util::LogLevel::kInfo
#define TRITON_LOG_WARNING ::triton::util::LogLevel::kWarning
#define TRITON_LOG_ERROR ::triton::util::LogLevel::kError
#define TRITON_LOG_FATAL ::triton::util::LogLevel::kFatal

#define LOG(severity)                                                  \
  ::triton::util::LogMessage(TRITON_LOG_##severity, __FILE__, __LINE__) \
      .stream()

#define CHECK(cond)                                                       \
  (cond) ? (void)0                                                        \
         : ::triton::util::LogMessageVoidify() &                          \
               ::triton::util::LogMessage(TRITON_LOG_FATAL, __FILE__,     \
                                          __LINE__)                       \
                       .stream()                                          \
                   << "Check failed: " #cond " "

#define CHECK_OP(a, b, op) CHECK((a)op(b)) << "(" << (a) << " vs " << (b) << ") "
#define CHECK_EQ(a, b) CHECK_OP(a, b, ==)
#define CHECK_NE(a, b) CHECK_OP(a, b, !=)
#define CHECK_LT(a, b) CHECK_OP(a, b, <)
#define CHECK_LE(a, b) CHECK_OP(a, b, <=)
#define CHECK_GT(a, b) CHECK_OP(a, b, >)
#define CHECK_GE(a, b) CHECK_OP(a, b, >=)

#define CHECK_OK(expr)                                \
  do {                                                \
    ::triton::util::Status s_check_ok = (expr);       \
    CHECK(s_check_ok.ok()) << s_check_ok.ToString();  \
  } while (0)

#ifdef NDEBUG
#define DCHECK(cond) \
  while (false) CHECK(cond)
#define DCHECK_EQ(a, b) \
  while (false) CHECK_EQ(a, b)
#define DCHECK_NE(a, b) \
  while (false) CHECK_NE(a, b)
#define DCHECK_LT(a, b) \
  while (false) CHECK_LT(a, b)
#define DCHECK_LE(a, b) \
  while (false) CHECK_LE(a, b)
#define DCHECK_GT(a, b) \
  while (false) CHECK_GT(a, b)
#define DCHECK_GE(a, b) \
  while (false) CHECK_GE(a, b)
#else
#define DCHECK(cond) CHECK(cond)
#define DCHECK_EQ(a, b) CHECK_EQ(a, b)
#define DCHECK_NE(a, b) CHECK_NE(a, b)
#define DCHECK_LT(a, b) CHECK_LT(a, b)
#define DCHECK_LE(a, b) CHECK_LE(a, b)
#define DCHECK_GT(a, b) CHECK_GT(a, b)
#define DCHECK_GE(a, b) CHECK_GE(a, b)
#endif

#endif  // TRITON_UTIL_LOGGING_H_
