#ifndef AUDIT_GAME_SERVER_BINARY_CODEC_H_
#define AUDIT_GAME_SERVER_BINARY_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "prob/count_distribution.h"
#include "server/protocol.h"
#include "service/audit_service.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::server {

/// The compact binary encoding of the hot-path verbs (`ingest`,
/// `solve_cycle`), carried inside the same 4-byte length-prefixed frames as
/// the JSON path (net/frame.h) — the outer framing never changes, only the
/// payload bytes. A payload whose first byte is `kBinaryMagic` (0xB1, never
/// the first byte of a JSON document) is binary; anything else takes the
/// JSON path, so both encodings coexist on one connection and the server
/// mirrors each request's encoding in its response. The connection's
/// encoding is negotiated implicitly: the first binary frame marks it
/// binary-mode, which only selects the encoding of error replies to frames
/// too broken to classify.
///
/// Fixed request header (all integers big-endian):
///
///   u8  magic = 0xB1   u8 version = 1   u8 kind = 1 (request)
///   u8  verb (1 = ingest, 2 = solve_cycle)
///   u64 correlation_id
///   u16 tenant_len, tenant bytes
///
/// then per verb: `ingest` packs `u16 n` distributions, each
/// `u32 min, u16 pmf_len, pmf_len × f64` (IEEE-754 bits); `solve_cycle`
/// has no body. Responses echo the header with kind = 2 plus
/// `u8 status (0 ok, 1 overloaded, 2 error, 3 backend_down)` and `u16
/// shard`, then the
/// verb-specific body (see binary_codec.cc). The `correlation_id` is the
/// pipelining key: it is the binary carrier of the JSON path's `id`, every
/// response echoes it verbatim, and responses on one connection may
/// complete out of submission order across tenants (per-tenant order is
/// still structural — same shard, FIFO queue).
///
/// Error discipline differs from JSON on purpose: malformed JSON in a good
/// frame gets an error reply and the connection survives, but a payload
/// that *claims* to be binary (magic byte present) and fails to decode
/// means the peer's encoder and ours disagree — every later frame is
/// suspect, so the server answers one error frame and drops the connection
/// (sticky, like a framing violation).
inline constexpr unsigned char kBinaryMagic = 0xB1;
inline constexpr unsigned char kBinaryVersion = 1;

inline constexpr unsigned char kBinaryKindRequest = 1;
inline constexpr unsigned char kBinaryKindResponse = 2;

inline constexpr unsigned char kBinaryVerbIngest = 1;
inline constexpr unsigned char kBinaryVerbSolveCycle = 2;

inline constexpr unsigned char kBinaryStatusOk = 0;
inline constexpr unsigned char kBinaryStatusOverloaded = 1;
inline constexpr unsigned char kBinaryStatusError = 2;
/// Router-originated: the backend owning this tenant is unreachable and the
/// request was never applied anywhere — retryable, like `overloaded`, but
/// distinguishable so clients and drills can count failover traffic.
inline constexpr unsigned char kBinaryStatusBackendDown = 3;

/// True when `payload` takes the binary path (first byte is the magic).
inline bool IsBinaryFrame(std::string_view payload) {
  return !payload.empty() &&
         static_cast<unsigned char>(payload[0]) == kBinaryMagic;
}

/// --- client-side request encoders (loadgen, tests) ---

std::string EncodeBinaryIngestRequest(
    int64_t correlation_id, const std::string& tenant,
    const std::vector<prob::CountDistribution>& distributions);
std::string EncodeBinarySolveCycleRequest(int64_t correlation_id,
                                          const std::string& tenant);

/// --- server side ---

/// Decodes and validates one binary request payload into the same Request
/// the JSON parser produces (with `binary` set, so the response mirrors
/// the encoding). Any error is connection-fatal (see above).
util::StatusOr<Request> DecodeBinaryRequest(std::string_view payload);

/// Best-effort correlation id of a binary payload whose full decode failed
/// (-1 when even the fixed header is truncated) — so the final error frame
/// still echoes an id the client can match.
int64_t BinaryCorrelationIdOf(std::string_view payload);

std::string EncodeBinaryIngestOkResponse(int64_t correlation_id, int shard);
std::string EncodeBinarySolveCycleResponse(
    int64_t correlation_id, int shard,
    const service::AuditService::CycleReport& report);
std::string EncodeBinaryOverloadedResponse(int64_t correlation_id, int shard,
                                           unsigned char verb);
std::string EncodeBinaryBackendDownResponse(int64_t correlation_id,
                                            unsigned char verb);
std::string EncodeBinaryErrorResponse(int64_t correlation_id,
                                      std::string_view message);

/// The binary verb byte of a hot verb (`ingest` or `solve_cycle`).
inline unsigned char BinaryVerbOf(Verb verb) {
  return verb == Verb::kIngest ? kBinaryVerbIngest : kBinaryVerbSolveCycle;
}

/// The retryable refusals, in the request's encoding (`binary`) — the one
/// builder the server and the router answer a not-applied request with.
/// `shard` is -1 where no shard was chosen (router-originated); the
/// `backend_down` envelope carries none.
std::string OverloadedResponseFor(bool binary, Verb verb, int64_t id,
                                  const std::string& tenant, int shard);
std::string BackendDownResponseFor(bool binary, Verb verb, int64_t id,
                                   const std::string& tenant);

/// --- router-side helpers ---
///
/// The correlation id sits at a fixed offset (bytes 4..11, big-endian) in
/// both request and response headers, so a proxy can remap ids without
/// decoding — or re-encoding — the verb-specific body.

/// Overwrites the correlation id in place. False when the payload is too
/// short to carry the fixed header or is not a binary frame.
bool RewriteBinaryCorrelationId(std::string* payload, int64_t correlation_id);

/// Status byte of a binary *response* payload without a full decode (-1
/// when the header is truncated or this is not a binary response frame).
int BinaryResponseStatusOf(std::string_view payload);

/// --- client-side response decoder ---

struct BinaryPolicy {
  double budget = 0.0;
  service::AuditService::Source source =
      service::AuditService::Source::kColdSolve;
  double drift = 0.0;
  double objective = 0.0;
  std::vector<double> thresholds;
};

struct BinaryResponse {
  unsigned char verb = 0;  // kBinaryVerb* (0 on errors without a verb)
  int64_t correlation_id = -1;
  unsigned char status = kBinaryStatusError;  // kBinaryStatus*
  int shard = -1;
  /// solve_cycle ok only:
  int64_t cycle = 0;
  double seconds = 0.0;
  std::vector<BinaryPolicy> policies;
  /// error only:
  std::string message;
};

util::StatusOr<BinaryResponse> DecodeBinaryResponse(std::string_view payload);

}  // namespace auditgame::server

#endif  // AUDIT_GAME_SERVER_BINARY_CODEC_H_
