#ifndef AUDIT_GAME_SERVER_PROTOCOL_H_
#define AUDIT_GAME_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "prob/count_distribution.h"
#include "service/audit_service.h"
#include "util/json.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::server {

/// The audit-server wire protocol. Every verb has exactly one encoding:
/// the hot verbs `ingest` and `solve_cycle` are binary
/// (server/binary_codec.h), and the ops verb `stats` is one JSON object per
/// frame (see net/frame.h for the framing):
///
///   {"verb":"stats","id":9}
///
/// Every request carries a client-chosen correlation id that its response
/// echoes, so clients may pipeline. Responses may complete out of
/// submission order across tenants (different shards); one tenant's
/// responses stay in submission order (same shard, FIFO queue).
///
/// Statuses are ok, overloaded, error and backend_down. `overloaded` is
/// the backpressure contract: the shard's bounded queue was full, nothing
/// was applied, and the client may retry. `backend_down` is its
/// cluster-mode sibling, originated by the router when the backend owning
/// a tenant is unreachable — equally retryable (nothing was applied), but
/// distinguishable so failover traffic can be counted. A JSON `error`
/// carries a `message`. Malformed JSON, an unknown verb and a JSON
/// `ingest` or `solve_cycle` (hot verbs are binary-only) each get a JSON
/// error on the same connection; only framing violations and undecodable
/// binary frames cost the connection itself. docs/DESIGN.md "Network
/// serving" is the reference.
enum class Verb { kIngest, kSolveCycle, kStats };

/// A decoded, validated request: a binary hot verb (DecodeBinaryRequest)
/// or a JSON `stats` (ParseRequest).
struct Request {
  Verb verb = Verb::kStats;
  std::string tenant;
  int64_t id = -1;
  /// kSolveCycle only: include each policy's mixed per-type detection
  /// probabilities in the response. The adversary-loop observation channel
  /// — computing them builds a detection model per policy, so it is opt-in
  /// and the ordinary solve_cycle never pays for it.
  bool observe_policy = false;
  /// kIngest only: the cycle's refreshed per-type distributions.
  std::vector<prob::CountDistribution> distributions;
};

/// Parses and validates one JSON request document. Only `stats` has a
/// JSON form; `ingest` and `solve_cycle` are refused as binary-only.
util::StatusOr<Request> ParseRequest(const util::JsonValue& doc);

/// Best-effort `id` of a request document whose full parse failed (-1 when
/// absent or not a number) — so even rejected requests echo an id.
int64_t RequestIdOf(const util::JsonValue& doc);

std::string MakeStatsRequest(int64_t id);
std::string MakeErrorResponse(int64_t id, const std::string& message);

/// Wraps a prebuilt stats body into the response envelope.
std::string MakeStatsResponse(int64_t id, util::JsonValue::Object body);

/// "cache" / "warm" / "cold" — the names of a policy's source, shared by
/// the serving tools' CSV output and the adversary loop.
const char* SourceName(service::AuditService::Source source);

}  // namespace auditgame::server

#endif  // AUDIT_GAME_SERVER_PROTOCOL_H_
