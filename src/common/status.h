#ifndef BVQ_COMMON_STATUS_H_
#define BVQ_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace bvq {

/// Error codes used across the library. Modeled on the RocksDB/Arrow
/// convention of returning rich status objects instead of throwing
/// exceptions across API boundaries.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kParseError,
  kTypeError,        // ill-typed formula / arity mismatch
  kUnsupported,      // feature outside the implemented fragment
  kResourceExhausted,
  kDeadlineExceeded,  // wall-clock deadline tripped (ResourceGovernor)
  kCancelled,         // explicit Cancel() — client disconnect, remote abort
  kUnavailable,       // backend gone (e.g. a snapshot file cannot be written)
  kInternal,
};

/// Returns a human-readable name for `code` ("Ok", "ParseError", ...).
const char* StatusCodeName(StatusCode code);

/// A success-or-error result for operations that produce no value.
///
/// Statuses are cheap to copy in the success case (no allocation) and carry
/// a message in the error case. Use the factory functions
/// (`Status::OK()`, `Status::InvalidArgument(...)`, ...) to construct them.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "Ok" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// A value-or-error result, like absl::StatusOr / arrow::Result.
///
/// Invariant: exactly one of {status is non-OK, value is present} holds.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : value_(std::move(value)) {}  // NOLINT: intentional
  /// Implicit construction from a non-OK status (failure).
  Result(Status status) : status_(std::move(status)) {  // NOLINT: intentional
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Precondition: ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value or `fallback` if this holds an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK Status out of the enclosing function.
#define BVQ_RETURN_IF_ERROR(expr)                  \
  do {                                             \
    ::bvq::Status bvq_status_ = (expr);            \
    if (!bvq_status_.ok()) return bvq_status_;     \
  } while (0)

/// Evaluates a Result expression; on error propagates the Status, otherwise
/// moves the value into `lhs`. The temporary's name embeds the line number
/// (via the usual two-level paste) so multiple uses can share a scope.
#define BVQ_STATUS_CONCAT_INNER_(a, b) a##b
#define BVQ_STATUS_CONCAT_(a, b) BVQ_STATUS_CONCAT_INNER_(a, b)
#define BVQ_ASSIGN_OR_RETURN(lhs, expr)                                  \
  auto BVQ_STATUS_CONCAT_(bvq_result_, __LINE__) = (expr);               \
  if (!BVQ_STATUS_CONCAT_(bvq_result_, __LINE__).ok())                   \
    return BVQ_STATUS_CONCAT_(bvq_result_, __LINE__).status();           \
  lhs = std::move(BVQ_STATUS_CONCAT_(bvq_result_, __LINE__)).value()

}  // namespace bvq

#endif  // BVQ_COMMON_STATUS_H_
