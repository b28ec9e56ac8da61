// Status: lightweight error propagation for the data path (no exceptions).
// Follows the RocksDB/Arrow idiom: every fallible operation returns a Status
// (or a Result<T>, see result.h) which callers must inspect.
#ifndef ZIDIAN_COMMON_STATUS_H_
#define ZIDIAN_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace zidian {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kCorruption,
  kNotSupported,
  kInternal,
  kUnavailable,
};

/// Returns a stable human-readable name for a StatusCode.
std::string_view StatusCodeName(StatusCode code);

/// A success-or-error value. Cheap to copy in the OK case (no allocation).
/// [[nodiscard]] on the class makes dropping any Status-returning call a
/// compile error under -Werror (and a tools/analyze/ finding everywhere):
/// an ignored write or recovery error is a silent data-loss bug.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg = "") {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  /// A storage node (or every replica of a key) could not be reached:
  /// retries exhausted, request timed out, or the node is down for the
  /// fault window. Distinct from kNotFound — the key may well exist, the
  /// cluster just cannot prove it right now (storage/network_model.h).
  static Status Unavailable(std::string msg = "") {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] bool IsNotFound() const {
    return code_ == StatusCode::kNotFound;
  }
  [[nodiscard]] bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  [[nodiscard]] bool IsCorruption() const {
    return code_ == StatusCode::kCorruption;
  }
  [[nodiscard]] bool IsUnavailable() const {
    return code_ == StatusCode::kUnavailable;
  }

  [[nodiscard]] StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "<code>: <message>" rendering for logs and test failures.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

}  // namespace zidian

/// Propagates a non-OK Status to the caller.
#define ZIDIAN_RETURN_NOT_OK(expr)                  \
  do {                                              \
    ::zidian::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                      \
  } while (0)

namespace zidian {
/// Implementation detail of ZIDIAN_CHECK_OK (status.cc): prints the failed
/// expression and Status, then aborts.
void AbortNotOk(const Status& st, const char* expr_text, const char* file,
                int line);
}  // namespace zidian

/// Aborts (loudly) when `expr` is not OK. For mains, benches and examples
/// where an error has no caller to answer to: a setup or maintenance write
/// that fails must kill the run, not silently skew its numbers. For a
/// Result<T> or MultiGetResult, pass `expr.status()` / `expr.status`.
#define ZIDIAN_CHECK_OK(expr) \
  ::zidian::AbortNotOk((expr), #expr, __FILE__, __LINE__)

#endif  // ZIDIAN_COMMON_STATUS_H_
