#include "util/status.h"

namespace triton::util {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kOutOfMemory:
      return "OutOfMemory";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  out += ": ";
  out += message_;
  return out;
}

}  // namespace triton::util
