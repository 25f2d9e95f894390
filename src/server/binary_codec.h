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

/// The binary encoding of the hot-path verbs (`ingest`, `solve_cycle`) —
/// their only encoding. It rides in the same 4-byte length-prefixed frames
/// as the JSON `stats` verb (net/frame.h); only the payload bytes differ. A
/// payload whose first byte is `kBinaryMagic` (0xB1, never the first byte
/// of a JSON document) is binary; anything else is JSON, so `stats` and
/// the hot verbs share one connection. The first binary frame marks a
/// connection binary-mode, which only selects the encoding of error
/// replies to frames too broken to classify.
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
/// carries an optional `u8 flags` (an empty body means no flags; a flags
/// byte must set a known flag). `kBinarySolveFlagObservePolicy` asks for
/// each policy's mixed per-type detection probabilities — the adversary
/// loop's observation of the served policy. Responses echo the header with
/// kind = 2 plus `u8 status (0 ok, 1 overloaded, 2 error, 3 backend_down)`
/// and `u16 shard`, then the verb-specific body (see binary_codec.cc); a
/// `solve_cycle` response carries the detection probabilities only when
/// its request set the observe flag, so an ordinary request and response
/// are byte-identical with or without the extension. The `correlation_id`
/// is the pipelining key: every response echoes it verbatim, and responses
/// on one connection may complete out of submission order across tenants
/// (per-tenant order is still structural — same shard, FIFO queue).
///
/// A payload that claims to be binary (magic byte present) and fails to
/// decode means the peer's encoder and ours disagree — every later frame
/// is suspect, so the server answers one error frame and drops the
/// connection (sticky, like a framing violation). A JSON `ingest` or
/// `solve_cycle` is answered with a JSON `error` (hot verbs are
/// binary-only) and the connection survives.
inline constexpr unsigned char kBinaryMagic = 0xB1;
inline constexpr unsigned char kBinaryVersion = 1;

inline constexpr unsigned char kBinaryKindRequest = 1;
inline constexpr unsigned char kBinaryKindResponse = 2;

inline constexpr unsigned char kBinaryVerbIngest = 1;
inline constexpr unsigned char kBinaryVerbSolveCycle = 2;

/// `solve_cycle` request flags.
inline constexpr unsigned char kBinarySolveFlagObservePolicy = 0x01;

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

/// --- client-side request encoders (loadgen, adversary loop, tests) ---

std::string EncodeBinaryIngestRequest(
    int64_t correlation_id, const std::string& tenant,
    const std::vector<prob::CountDistribution>& distributions);
/// `observe_policy` adds the flags byte; without it the request has no body.
std::string EncodeBinarySolveCycleRequest(int64_t correlation_id,
                                          const std::string& tenant,
                                          bool observe_policy = false);

/// --- server side ---

/// Decodes and validates one binary request payload. Any error is
/// connection-fatal (see above).
util::StatusOr<Request> DecodeBinaryRequest(std::string_view payload);

/// Best-effort correlation id of a binary payload whose full decode failed
/// (-1 when even the fixed header is truncated) — so the final error frame
/// still echoes an id the client can match.
int64_t BinaryCorrelationIdOf(std::string_view payload);

std::string EncodeBinaryIngestOkResponse(int64_t correlation_id, int shard);
/// `detection_probs`, when non-null, holds one mixed per-type detection
/// vector per policy of `report` (the observe_policy payload), appended
/// after the policies.
std::string EncodeBinarySolveCycleResponse(
    int64_t correlation_id, int shard,
    const service::AuditService::CycleReport& report,
    const std::vector<std::vector<double>>* detection_probs = nullptr);
/// The retryable refusals the server and the router answer a not-applied
/// request with. `shard` is -1 where no shard was chosen
/// (router-originated); `backend_down` carries none.
std::string EncodeBinaryOverloadedResponse(int64_t correlation_id, int shard,
                                           Verb verb);
std::string EncodeBinaryBackendDownResponse(int64_t correlation_id,
                                            Verb verb);
std::string EncodeBinaryErrorResponse(int64_t correlation_id,
                                      std::string_view message);

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
  /// Mixed per-type detection probabilities; present only when the
  /// request set kBinarySolveFlagObservePolicy.
  std::vector<double> detection_probs;
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
