#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace zidian {

void AbortNotOk(const Status& st, const char* expr_text, const char* file,
                int line) {
  if (st.ok()) return;
  std::fprintf(stderr, "%s:%d: ZIDIAN_CHECK_OK(%s) failed: %s\n", file, line,
               expr_text, st.ToString().c_str());
  std::abort();
}

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kNotSupported:
      return "NotSupported";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnavailable:
      return "Unavailable";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  std::string out(StatusCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace zidian
