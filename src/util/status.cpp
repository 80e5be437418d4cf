#include "util/status.hpp"

namespace sca::util {

std::string_view statusCodeName(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kTimeout: return "timeout";
    case StatusCode::kRateLimited: return "rate_limited";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kEmptyResponse: return "empty_response";
    case StatusCode::kTruncated: return "truncated";
    case StatusCode::kInvalidOutput: return "invalid_output";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kDataLoss: return "data_loss";
    case StatusCode::kInternal: return "internal";
  }
  return "unknown";
}

bool isRetryable(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kTimeout:
    case StatusCode::kRateLimited:
    case StatusCode::kUnavailable:
    case StatusCode::kEmptyResponse:
    case StatusCode::kTruncated:
    case StatusCode::kInvalidOutput:
      return true;
    default:
      return false;
  }
}

std::string Status::toString() const {
  std::string out(statusCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace sca::util
