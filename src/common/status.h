#ifndef CORRMINE_COMMON_STATUS_H_
#define CORRMINE_COMMON_STATUS_H_

#include <string>
#include <string_view>

namespace corrmine {

/// Error categories used across the library. Mirrors the coarse-grained
/// code sets of storage-engine style status objects: the code is for
/// programmatic dispatch, the message is for humans.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kUnimplemented = 6,
  kInternal = 7,
  kIOError = 8,
  kCorruption = 9,
  kResourceExhausted = 10,
};

/// Returns a short stable name for a status code ("OK", "InvalidArgument", …).
std::string_view StatusCodeToString(StatusCode code);

/// Lightweight success/error result used instead of exceptions at library API
/// boundaries. A default-constructed Status is OK and carries no allocation.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  /// Factory helpers; each produces a status with the matching code.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string_view msg) {
    return Status(StatusCode::kInvalidArgument, msg);
  }
  static Status NotFound(std::string_view msg) {
    return Status(StatusCode::kNotFound, msg);
  }
  static Status AlreadyExists(std::string_view msg) {
    return Status(StatusCode::kAlreadyExists, msg);
  }
  static Status OutOfRange(std::string_view msg) {
    return Status(StatusCode::kOutOfRange, msg);
  }
  static Status FailedPrecondition(std::string_view msg) {
    return Status(StatusCode::kFailedPrecondition, msg);
  }
  static Status Unimplemented(std::string_view msg) {
    return Status(StatusCode::kUnimplemented, msg);
  }
  static Status Internal(std::string_view msg) {
    return Status(StatusCode::kInternal, msg);
  }
  static Status IOError(std::string_view msg) {
    return Status(StatusCode::kIOError, msg);
  }
  static Status Corruption(std::string_view msg) {
    return Status(StatusCode::kCorruption, msg);
  }
  /// Out of memory (a std::bad_alloc caught at a region or CLI boundary).
  static Status ResourceExhausted(std::string_view msg) {
    return Status(StatusCode::kResourceExhausted, msg);
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  Status(StatusCode code, std::string_view msg)
      : code_(code), message_(msg) {}

  StatusCode code_;
  std::string message_;
};

/// Propagates a non-OK status to the caller. Usable only in functions that
/// return Status.
#define CORRMINE_RETURN_NOT_OK(expr)            \
  do {                                          \
    ::corrmine::Status _st = (expr);            \
    if (!_st.ok()) return _st;                  \
  } while (false)

}  // namespace corrmine

#endif  // CORRMINE_COMMON_STATUS_H_
