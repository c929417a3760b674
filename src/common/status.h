#ifndef EQUIHIST_COMMON_STATUS_H_
#define EQUIHIST_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace equihist {

// Error categories used across the library. The set is deliberately small:
// this is an algorithms library, so most failures are caller errors.
enum class StatusCode {
  kOk = 0,
  // A caller-supplied argument violates a documented precondition
  // (e.g. k <= 0, f outside (0, 1], sample larger than population).
  kInvalidArgument = 1,
  // The operation is valid but the inputs cannot support it
  // (e.g. building a k-histogram over an empty value set).
  kFailedPrecondition = 2,
  // A resource limit was hit (e.g. an adaptive sampler exhausted the table
  // without converging and exhaustive fallback was disabled).
  kResourceExhausted = 3,
  // The requested entity does not exist (e.g. page id out of range).
  kNotFound = 4,
  // Internal invariant violation: indicates a bug in this library.
  kInternal = 5,
  // A transient failure (e.g. an injected or real intermittent read
  // error). Retrying the same operation may succeed; the retry layer
  // (common/retry.h) treats exactly this code as retryable.
  kUnavailable = 6,
  // Data is permanently gone or failed integrity checks (lost page,
  // checksum mismatch). Retrying cannot help; callers must skip, resample,
  // or degrade.
  kDataLoss = 7,
  // The caller's deadline expired before the operation completed. The
  // fleet transport layer (stats/transport*.h) budgets every remote call
  // with a deadline; expiry is final for that call — the budget is gone,
  // so the retry layer never retries it.
  kDeadlineExceeded = 8,
};

// True for codes a bounded retry can plausibly clear (currently only
// kUnavailable).
inline bool IsTransientError(StatusCode code) {
  return code == StatusCode::kUnavailable;
}

// Returns a stable, human-readable name such as "InvalidArgument".
std::string_view StatusCodeToString(StatusCode code);

// A cheap, value-semantic success/error carrier, in the style of
// absl::Status / rocksdb::Status. The library does not throw exceptions;
// every fallible public entry point returns Status or Result<T>.
//
// [[nodiscard]]: a dropped Status is a swallowed failure — the compiler
// rejects it on every build (the error-discipline leg of DESIGN.md §13).
// The rare call site that really may ignore an error says so explicitly
// with `std::ignore = ...;` and a comment.
//
// The OK status carries no message and allocates nothing.
class [[nodiscard]] Status {
 public:
  // Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status ResourceExhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }
  static Status DataLoss(std::string message) {
    return Status(StatusCode::kDataLoss, std::move(message));
  }
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

// Aborts the process, printing `context` and the status. For the few
// places that cannot report a Status and where a failure is misuse or a
// broken invariant, not a storage fault: HeapFile's constructor given an
// invalid PageConfig, and the GMP baseline's recompute from a non-empty
// reservoir. Failing loudly beats continuing on an empty Result. Every
// read path propagates instead (EQUIHIST_RETURN_IF_ERROR /
// EQUIHIST_ASSIGN_OR_RETURN).
[[noreturn]] void AbortOnStatus(const Status& status, std::string_view context);

// Propagates a non-OK status to the caller. Usable only in functions
// returning Status.
#define EQUIHIST_RETURN_IF_ERROR(expr)                 \
  do {                                                 \
    ::equihist::Status _equihist_status = (expr);      \
    if (!_equihist_status.ok()) return _equihist_status; \
  } while (false)

}  // namespace equihist

#endif  // EQUIHIST_COMMON_STATUS_H_
