#include "util/logging.h"

#include <cstdlib>

namespace triton::util {

namespace {

LogLevel g_min_level = [] {
  if (const char* env = std::getenv("TRITON_LOG_LEVEL")) {
    int v = std::atoi(env);
    if (v >= 0 && v <= 4) return static_cast<LogLevel>(v);
  }
  return LogLevel::kInfo;
}();

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}

}  // namespace

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= g_min_level || level_ == LogLevel::kFatal) {
    stream_ << "\n";
    std::cerr << stream_.str();
    std::cerr.flush();
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace triton::util
