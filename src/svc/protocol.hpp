// The synthesis service wire protocol: line-delimited JSON requests and
// responses with a closed set of structured error codes.
//
// One request per line, one response per line (the shape of XLS's yosys
// synthesis server, minus the RPC framework):
//
//   -> {"id": 7, "method": "compile",
//       "params": {"design": "verilog_opt2"}, "deadline_ms": 500}
//   <- {"id": 7, "ok": true, "result": {...}}
//   <- {"id": 7, "ok": false,
//       "error": {"code": "overloaded", "message": "...",
//                 "retry_after_ms": 5}}
//
// Every failure is one of six codes, and the code — not the message — is
// the contract clients program against:
//
//   invalid_request    caller bug: malformed JSON, missing/ill-typed fields,
//                      unknown design name. Never retried.
//   unknown_method     caller bug. Never retried.
//   oversized_request  request line exceeds the server's byte limit
//                      (admission-control: unbounded lines are a memory DoS).
//   overloaded         the admission queue is full; the response carries a
//                      retry_after_ms hint. The only *transient* code: this
//                      request was shed unexecuted and an identical retry can
//                      succeed once load drains.
//   deadline_exceeded  the request's wall budget expired (queued or mid-run).
//                      Retrying without a larger budget is pointless.
//   internal_error     a handler threw: the exception is reported (with the
//                      request id) instead of taking the daemon down.
//
// Request ids are echoed verbatim (any JSON value). Responses to requests
// whose id could not be parsed carry id null.
//
// Tracing: every response — success, error, even a shed or unparseable
// request — additionally carries a top-level "trace_id" (16 lowercase hex
// chars), the correlation id minted at admission. The `trace` method turns
// an id back into diagnostics:
//
//   -> {"id": 8, "method": "trace",
//       "params": {"trace_id": "00b492e4f1f59cd3", "limit": 32}}
//   <- {"id": 8, "ok": true, "result": {"requests": [...], "events": [...],
//                                       "events_recorded": true, ...}}
//
// Without params.trace_id it returns summaries of the most recent requests
// (always recorded, bounded ring); with it, also the structured event-log
// entries of that trace (recorded only while observability is enabled —
// result.events_recorded says which regime the server is in). `stats`
// reports event-log occupancy/drops alongside cache and queue counters.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "base/check.hpp"
#include "obs/json.hpp"

namespace hlshc::svc {

enum class ErrorCode : uint8_t {
  kInvalidRequest,
  kUnknownMethod,
  kOversizedRequest,
  kOverloaded,
  kDeadlineExceeded,
  kInternalError,
};

/// The wire name: "invalid_request", "overloaded", ...
const char* error_code_name(ErrorCode code);

/// A structured service failure: carries the wire code so the server maps
/// it to its error response without parsing messages.
class ProtocolError : public Error {
 public:
  ProtocolError(ErrorCode code, const std::string& message,
                int retry_after_ms = 0)
      : Error(message), code_(code), retry_after_ms_(retry_after_ms) {}

  ErrorCode code() const { return code_; }
  /// Backoff hint for kOverloaded; 0 elsewhere.
  int retry_after_ms() const { return retry_after_ms_; }

 private:
  ErrorCode code_;
  int retry_after_ms_;
};

struct Request {
  obs::Json id;          ///< echoed verbatim; null when absent
  std::string method;
  obs::Json params;      ///< object; empty object when absent
  int64_t deadline_ms = 0;  ///< 0 = no explicit deadline
};

/// The integer a JSON number holds; nullopt when it is not a number, has a
/// fractional part, or lies outside int64_t (e.g. 2.5, 1e300). Every
/// integer the protocol reads goes through this, so 2.5 is rejected rather
/// than truncated and no out-of-range double is ever cast.
std::optional<int64_t> exact_int(const obs::Json& value);

/// Parses one request line. Throws ProtocolError with kOversizedRequest when
/// the line exceeds `max_bytes`, kInvalidRequest on malformed JSON / missing
/// or ill-typed fields (non-object root, absent or non-string method,
/// non-object params, non-positive or non-integer deadline_ms).
Request parse_request(const std::string& line, size_t max_bytes);

/// {"id": ..., "ok": true, "result": ...}
obs::Json ok_response(const obs::Json& id, obs::Json result);

/// {"id": ..., "ok": false, "error": {"code", "message"[, "retry_after_ms"]}}
obs::Json error_response(const obs::Json& id, ErrorCode code,
                         const std::string& message, int retry_after_ms = 0);

}  // namespace hlshc::svc
