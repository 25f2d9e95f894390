#include "server/protocol.h"

#include <utility>

namespace auditgame::server {

namespace {

util::JsonValue::Object Envelope(int64_t id, const char* status) {
  util::JsonValue::Object obj;
  obj["id"] = static_cast<double>(id);
  obj["status"] = status;
  return obj;
}

}  // namespace

const char* SourceName(service::AuditService::Source source) {
  switch (source) {
    case service::AuditService::Source::kCache:
      return "cache";
    case service::AuditService::Source::kWarmSolve:
      return "warm";
    case service::AuditService::Source::kColdSolve:
      return "cold";
  }
  return "?";
}

int64_t RequestIdOf(const util::JsonValue& doc) {
  if (!doc.is_object()) return -1;
  const util::JsonValue* id = doc.Find("id");
  if (id == nullptr || !id->is_number()) return -1;
  const double value = id->as_number();
  // Range-check before casting: static_cast of an out-of-range double is
  // UB, and the id comes from an untrusted peer. 2^53 is the exact-integer
  // range of a JSON number anyway.
  if (!(value >= -9007199254740992.0 && value <= 9007199254740992.0)) {
    return -1;
  }
  return static_cast<int64_t>(value);
}

util::StatusOr<Request> ParseRequest(const util::JsonValue& doc) {
  if (!doc.is_object()) {
    return util::InvalidArgumentError("request must be a JSON object");
  }
  Request request;
  request.id = RequestIdOf(doc);

  ASSIGN_OR_RETURN(const std::string verb, doc.GetString("verb"));
  if (verb == "ingest" || verb == "solve_cycle") {
    return util::InvalidArgumentError(
        "verb " + verb +
        " is binary-only: encode it with the binary codec "
        "(server/binary_codec.h)");
  }
  if (verb != "stats") {
    return util::InvalidArgumentError("unknown verb: " + verb);
  }
  return request;
}

std::string MakeStatsRequest(int64_t id) {
  util::JsonValue::Object obj;
  obj["verb"] = "stats";
  obj["id"] = static_cast<double>(id);
  return util::JsonValue(std::move(obj)).Dump();
}

std::string MakeErrorResponse(int64_t id, const std::string& message) {
  util::JsonValue::Object obj = Envelope(id, "error");
  obj["message"] = message;
  return util::JsonValue(std::move(obj)).Dump();
}

std::string MakeStatsResponse(int64_t id, util::JsonValue::Object body) {
  util::JsonValue::Object obj = Envelope(id, "ok");
  obj["verb"] = "stats";
  for (auto& [key, value] : body) obj[key] = std::move(value);
  return util::JsonValue(std::move(obj)).Dump();
}

}  // namespace auditgame::server
