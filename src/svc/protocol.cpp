#include "svc/protocol.hpp"

#include <cmath>
#include <utility>

namespace hlshc::svc {

using obs::Json;

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInvalidRequest: return "invalid_request";
    case ErrorCode::kUnknownMethod: return "unknown_method";
    case ErrorCode::kOversizedRequest: return "oversized_request";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kInternalError: return "internal_error";
  }
  HLSHC_UNREACHABLE("bad ErrorCode");
}

std::optional<int64_t> exact_int(const Json& value) {
  if (value.kind() != Json::Kind::kNumber) return std::nullopt;
  // A double in [-2^63, 2^63) with no fraction casts to int64_t without
  // overflow, and an integer literal is held exactly. (The few int64_t
  // values within 2^10 of INT64_MAX round up to 2^63 and are rejected too;
  // every bounded parameter ends far below them.)
  const double d = value.as_number();
  if (!(d >= -0x1p63 && d < 0x1p63) || d != std::trunc(d)) return std::nullopt;
  return value.as_int();
}

Request parse_request(const std::string& line, size_t max_bytes) {
  if (max_bytes > 0 && line.size() > max_bytes)
    throw ProtocolError(ErrorCode::kOversizedRequest,
                        "request line of " + std::to_string(line.size()) +
                            " bytes exceeds the " +
                            std::to_string(max_bytes) + "-byte limit");
  Json doc;
  try {
    doc = Json::parse(line);
  } catch (const Error& e) {
    throw ProtocolError(ErrorCode::kInvalidRequest,
                        std::string("malformed JSON request: ") + e.what());
  }
  if (!doc.is_object())
    throw ProtocolError(ErrorCode::kInvalidRequest,
                        "request must be a JSON object");

  Request req;
  if (const Json* id = doc.find("id")) req.id = *id;

  const Json* method = doc.find("method");
  if (!method || method->kind() != Json::Kind::kString)
    throw ProtocolError(ErrorCode::kInvalidRequest,
                        "request needs a string \"method\" field");
  req.method = method->as_string();

  req.params = Json::object();
  if (const Json* params = doc.find("params")) {
    if (!params->is_object())
      throw ProtocolError(ErrorCode::kInvalidRequest,
                          "\"params\" must be an object");
    req.params = *params;
  }

  if (const Json* deadline = doc.find("deadline_ms")) {
    const std::optional<int64_t> ms = exact_int(*deadline);
    if (!ms || *ms <= 0)
      throw ProtocolError(ErrorCode::kInvalidRequest,
                          "\"deadline_ms\" must be a positive integer");
    req.deadline_ms = *ms;
  }
  return req;
}

Json ok_response(const Json& id, Json result) {
  Json out = Json::object();
  out.set("id", id);
  out.set("ok", Json::boolean(true));
  out.set("result", std::move(result));
  return out;
}

Json error_response(const Json& id, ErrorCode code, const std::string& message,
                    int retry_after_ms) {
  Json error = Json::object();
  error.set("code", Json::string(error_code_name(code)));
  error.set("message", Json::string(message));
  if (retry_after_ms > 0)
    error.set("retry_after_ms", Json::number(retry_after_ms));
  Json out = Json::object();
  out.set("id", id);
  out.set("ok", Json::boolean(false));
  out.set("error", std::move(error));
  return out;
}

}  // namespace hlshc::svc
