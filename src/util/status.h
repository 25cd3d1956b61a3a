// Lightweight error-handling primitives used across the library.
//
// Hot paths in this codebase do not throw exceptions; fallible operations
// return Status (or StatusOr<T> for value-producing operations), and callers
// propagate errors explicitly. Programming errors (broken invariants) use the
// CHECK macros from util/logging.h instead.

#ifndef TRITON_UTIL_STATUS_H_
#define TRITON_UTIL_STATUS_H_

#include <cstdlib>
#include <cstdio>
#include <string>
#include <utility>

namespace triton::util {

/// Error category of a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfMemory,
  kFailedPrecondition,
  kInternal,
  /// A bounded resource (admission queue, memory-arbiter budget) is
  /// temporarily full; retrying after capacity is released can succeed.
  /// Distinct from kOutOfMemory, which reports a hard capacity miss inside
  /// the allocator itself.
  kResourceExhausted,
};

/// Returns a human-readable name for a status code ("OK", "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// Result of a fallible operation: either OK or a code plus message.
///
/// Statuses are cheap to move and copy (one string). Use the factory
/// functions (Status::OK(), Status::InvalidArgument(...)) to construct.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfMemory(std::string msg) {
    return Status(StatusCode::kOutOfMemory, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status.
///
/// Access the value with value() / operator* only after checking ok();
/// accessing the value of an errored StatusOr aborts.
template <typename T>
class StatusOr {
 public:
  /// Constructs from a value (implicit, mirrors absl::StatusOr).
  StatusOr(T value) : status_(Status::OK()), value_(std::move(value)) {}

  /// Constructs from an error status. Must not be OK.
  StatusOr(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      std::fprintf(stderr, "StatusOr constructed from OK status\n");
      std::abort();
    }
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CheckOk();
    return value_;
  }
  T& value() & {
    CheckOk();
    return value_;
  }
  T&& value() && {
    CheckOk();
    return std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!status_.ok()) {
      std::fprintf(stderr, "StatusOr value access on error: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
  }

  Status status_;
  T value_{};
};

}  // namespace triton::util

/// Propagates a non-OK Status out of the enclosing function.
#define TRITON_RETURN_IF_ERROR(expr)                   \
  do {                                                 \
    ::triton::util::Status status_macro_tmp = (expr);  \
    if (!status_macro_tmp.ok()) return status_macro_tmp; \
  } while (0)

#endif  // TRITON_UTIL_STATUS_H_
