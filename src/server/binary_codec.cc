#include "server/binary_codec.h"

#include <utility>

#include "util/serializer.h"

namespace auditgame::server {

namespace {

using util::AppendBe;
using util::AppendF64;

util::Status Malformed(const std::string& what) {
  return util::InvalidArgumentError("malformed binary frame: " + what);
}

void PutRequestHeader(std::string* out, unsigned char verb,
                      int64_t correlation_id, const std::string& tenant) {
  AppendBe<uint8_t>(out, kBinaryMagic);
  AppendBe<uint8_t>(out, kBinaryVersion);
  AppendBe<uint8_t>(out, kBinaryKindRequest);
  AppendBe<uint8_t>(out, verb);
  AppendBe<uint64_t>(out, correlation_id);
  AppendBe<uint16_t>(out, tenant.size());
  out->append(tenant);
}

/// The verb byte of a hot verb (`ingest` or `solve_cycle`).
unsigned char BinaryVerbOf(Verb verb) {
  return verb == Verb::kIngest ? kBinaryVerbIngest : kBinaryVerbSolveCycle;
}

void PutResponseHeader(std::string* out, unsigned char verb,
                       int64_t correlation_id, unsigned char status,
                       int shard) {
  AppendBe<uint8_t>(out, kBinaryMagic);
  AppendBe<uint8_t>(out, kBinaryVersion);
  AppendBe<uint8_t>(out, kBinaryKindResponse);
  AppendBe<uint8_t>(out, verb);
  AppendBe<uint64_t>(out, correlation_id);
  AppendBe<uint8_t>(out, status);
  AppendBe<uint16_t>(out, shard < 0 ? 0xffff : static_cast<uint16_t>(shard));
}

/// A frame within the decoder's payload cap cannot legitimately announce
/// more elements than the bytes it carries, so these caps only bound what a
/// *lying* count field can make the decoder allocate before the
/// byte-bounds check would trip.
constexpr uint16_t kMaxDistributions = 4096;
constexpr uint16_t kMaxPmfLen = 16384;

}  // namespace

std::string EncodeBinaryIngestRequest(
    int64_t correlation_id, const std::string& tenant,
    const std::vector<prob::CountDistribution>& distributions) {
  std::string out;
  size_t doubles = 0;
  for (const prob::CountDistribution& dist : distributions) {
    doubles += static_cast<size_t>(dist.support_size());
  }
  out.reserve(16 + tenant.size() + 2 + distributions.size() * 6 +
              doubles * 8);
  PutRequestHeader(&out, kBinaryVerbIngest, correlation_id, tenant);
  AppendBe<uint16_t>(&out, distributions.size());
  for (const prob::CountDistribution& dist : distributions) {
    AppendBe<uint32_t>(&out, dist.min_value());
    AppendBe<uint16_t>(&out, dist.support_size());
    for (int z = dist.min_value(); z <= dist.max_value(); ++z) {
      AppendF64(&out, dist.Pmf(z));
    }
  }
  return out;
}

std::string EncodeBinarySolveCycleRequest(int64_t correlation_id,
                                          const std::string& tenant,
                                          bool observe_policy) {
  std::string out;
  out.reserve(17 + tenant.size());
  PutRequestHeader(&out, kBinaryVerbSolveCycle, correlation_id, tenant);
  if (observe_policy) AppendBe<uint8_t>(&out, kBinarySolveFlagObservePolicy);
  return out;
}

int64_t BinaryCorrelationIdOf(std::string_view payload) {
  util::ByteReader reader(payload);
  unsigned char magic, version, kind, verb;
  uint64_t id;
  if (!reader.Read(&magic) || !reader.Read(&version) ||
      !reader.Read(&kind) || !reader.Read(&verb) || !reader.Read(&id)) {
    return -1;
  }
  return static_cast<int64_t>(id);
}

util::StatusOr<Request> DecodeBinaryRequest(std::string_view payload) {
  util::ByteReader reader(payload);
  unsigned char magic, version, kind, verb;
  if (!reader.Read(&magic) || !reader.Read(&version) ||
      !reader.Read(&kind) || !reader.Read(&verb)) {
    return Malformed("truncated header");
  }
  if (magic != kBinaryMagic) return Malformed("bad magic");
  if (version != kBinaryVersion) {
    return Malformed("unsupported version " + std::to_string(version));
  }
  if (kind != kBinaryKindRequest) return Malformed("not a request frame");

  Request request;
  uint64_t id;
  if (!reader.Read(&id)) return Malformed("truncated correlation id");
  request.id = static_cast<int64_t>(id);

  uint16_t tenant_len;
  std::string_view tenant;
  if (!reader.Read(&tenant_len) || !reader.ReadBytes(tenant_len, &tenant)) {
    return Malformed("truncated tenant");
  }
  request.tenant.assign(tenant);
  if (request.tenant.empty()) return Malformed("tenant must be non-empty");

  switch (verb) {
    case kBinaryVerbSolveCycle: {
      request.verb = Verb::kSolveCycle;
      unsigned char flags;
      if (reader.Read(&flags)) {
        // One canonical encoding per request: no flags means no byte.
        if (flags != kBinarySolveFlagObservePolicy) {
          return Malformed("solve_cycle flags " + std::to_string(flags));
        }
        request.observe_policy = true;
      }
      break;
    }
    case kBinaryVerbIngest: {
      request.verb = Verb::kIngest;
      uint16_t count;
      if (!reader.Read(&count)) return Malformed("truncated ingest body");
      if (count > kMaxDistributions) {
        return Malformed("distribution count " + std::to_string(count));
      }
      request.distributions.reserve(count);
      for (uint16_t i = 0; i < count; ++i) {
        uint32_t min;
        uint16_t pmf_len;
        if (!reader.Read(&min) || !reader.Read(&pmf_len)) {
          return Malformed("truncated distribution header");
        }
        if (min > 1000000000u) {
          return Malformed("distribution min " + std::to_string(min));
        }
        if (pmf_len > kMaxPmfLen) {
          return Malformed("pmf length " + std::to_string(pmf_len));
        }
        std::vector<double> pmf(pmf_len);
        for (uint16_t j = 0; j < pmf_len; ++j) {
          if (!reader.ReadF64(&pmf[j])) return Malformed("truncated pmf");
        }
        // Semantic validation (non-negative, normalized, non-empty) is
        // FromPmf's job.
        auto dist = prob::CountDistribution::FromPmf(static_cast<int>(min),
                                                     std::move(pmf));
        if (!dist.ok()) return dist.status();
        request.distributions.push_back(*std::move(dist));
      }
      break;
    }
    default:
      // `stats` has no binary form: it is the debug/ops verb and carries a
      // large nested document — JSON is its encoding.
      return Malformed("unknown verb " + std::to_string(verb));
  }
  if (!reader.exhausted()) return Malformed("trailing bytes");
  return request;
}

std::string EncodeBinaryIngestOkResponse(int64_t correlation_id, int shard) {
  std::string out;
  out.reserve(15);
  PutResponseHeader(&out, kBinaryVerbIngest, correlation_id, kBinaryStatusOk,
                    shard);
  return out;
}

std::string EncodeBinarySolveCycleResponse(
    int64_t correlation_id, int shard,
    const service::AuditService::CycleReport& report,
    const std::vector<std::vector<double>>* detection_probs) {
  std::string out;
  out.reserve(64 + report.policies.size() * 64);
  PutResponseHeader(&out, kBinaryVerbSolveCycle, correlation_id,
                    kBinaryStatusOk, shard);
  AppendBe<uint64_t>(&out, report.cycle);
  AppendF64(&out, report.seconds);
  AppendBe<uint16_t>(&out, report.policies.size());
  for (const service::AuditService::CyclePolicy& policy : report.policies) {
    AppendF64(&out, policy.budget);
    AppendBe<uint8_t>(&out, static_cast<uint8_t>(policy.source));
    AppendF64(&out, policy.drift);
    AppendF64(&out, policy.result.objective);
    AppendBe<uint16_t>(&out, policy.result.thresholds.size());
    for (double b : policy.result.thresholds) AppendF64(&out, b);
  }
  if (detection_probs != nullptr) {
    for (const std::vector<double>& pal : *detection_probs) {
      AppendBe<uint16_t>(&out, pal.size());
      for (double p : pal) AppendF64(&out, p);
    }
  }
  return out;
}

std::string EncodeBinaryOverloadedResponse(int64_t correlation_id, int shard,
                                           Verb verb) {
  std::string out;
  out.reserve(15);
  PutResponseHeader(&out, BinaryVerbOf(verb), correlation_id,
                    kBinaryStatusOverloaded, shard);
  return out;
}

std::string EncodeBinaryBackendDownResponse(int64_t correlation_id,
                                            Verb verb) {
  std::string out;
  out.reserve(15);
  PutResponseHeader(&out, BinaryVerbOf(verb), correlation_id,
                    kBinaryStatusBackendDown, -1);
  return out;
}

bool RewriteBinaryCorrelationId(std::string* payload, int64_t correlation_id) {
  // magic(1) version(1) kind(1) verb(1) id(8): the id spans bytes 4..11 of
  // every binary frame, request or response.
  if (payload->size() < 12 || !IsBinaryFrame(*payload)) return false;
  util::StoreBe(payload->data() + 4, static_cast<uint64_t>(correlation_id));
  return true;
}

int BinaryResponseStatusOf(std::string_view payload) {
  // Response header: magic(1) version(1) kind(1) verb(1) id(8) status(1).
  if (payload.size() < 13 || !IsBinaryFrame(payload)) return -1;
  if (static_cast<unsigned char>(payload[2]) != kBinaryKindResponse) return -1;
  return static_cast<unsigned char>(payload[12]);
}

std::string EncodeBinaryErrorResponse(int64_t correlation_id,
                                      std::string_view message) {
  std::string out;
  out.reserve(19 + message.size());
  PutResponseHeader(&out, 0, correlation_id, kBinaryStatusError, -1);
  AppendBe<uint32_t>(&out, message.size());
  out.append(message);
  return out;
}

util::StatusOr<BinaryResponse> DecodeBinaryResponse(std::string_view payload) {
  util::ByteReader reader(payload);
  unsigned char magic, version, kind;
  BinaryResponse response;
  if (!reader.Read(&magic) || !reader.Read(&version) ||
      !reader.Read(&kind) || !reader.Read(&response.verb)) {
    return Malformed("truncated header");
  }
  if (magic != kBinaryMagic) return Malformed("bad magic");
  if (version != kBinaryVersion) {
    return Malformed("unsupported version " + std::to_string(version));
  }
  if (kind != kBinaryKindResponse) return Malformed("not a response frame");

  uint64_t id;
  uint16_t shard;
  if (!reader.Read(&id) || !reader.Read(&response.status) ||
      !reader.Read(&shard)) {
    return Malformed("truncated response header");
  }
  response.correlation_id = static_cast<int64_t>(id);
  response.shard = shard == 0xffff ? -1 : static_cast<int>(shard);

  switch (response.status) {
    case kBinaryStatusOk:
      if (response.verb == kBinaryVerbSolveCycle) {
        uint64_t cycle;
        uint16_t count;
        if (!reader.Read(&cycle) || !reader.ReadF64(&response.seconds) ||
            !reader.Read(&count)) {
          return Malformed("truncated solve body");
        }
        response.cycle = static_cast<int64_t>(cycle);
        response.policies.reserve(count);
        for (uint16_t i = 0; i < count; ++i) {
          BinaryPolicy policy;
          unsigned char source;
          uint16_t thresholds;
          if (!reader.ReadF64(&policy.budget) || !reader.Read(&source) ||
              !reader.ReadF64(&policy.drift) ||
              !reader.ReadF64(&policy.objective) ||
              !reader.Read(&thresholds)) {
            return Malformed("truncated policy");
          }
          if (source > 2) return Malformed("bad policy source");
          policy.source = static_cast<service::AuditService::Source>(source);
          policy.thresholds.resize(thresholds);
          for (uint16_t j = 0; j < thresholds; ++j) {
            if (!reader.ReadF64(&policy.thresholds[j])) {
              return Malformed("truncated thresholds");
            }
          }
          response.policies.push_back(std::move(policy));
        }
        if (!reader.exhausted()) {
          // The observe_policy section: one detection vector per policy.
          for (BinaryPolicy& policy : response.policies) {
            uint16_t n;
            if (!reader.Read(&n)) return Malformed("truncated detection");
            policy.detection_probs.resize(n);
            for (uint16_t j = 0; j < n; ++j) {
              if (!reader.ReadF64(&policy.detection_probs[j])) {
                return Malformed("truncated detection");
              }
            }
          }
        }
      }
      break;
    case kBinaryStatusOverloaded:
    case kBinaryStatusBackendDown:
      break;
    case kBinaryStatusError: {
      uint32_t len;
      std::string_view message;
      if (!reader.Read(&len) || !reader.ReadBytes(len, &message)) {
        return Malformed("truncated error message");
      }
      response.message.assign(message);
      break;
    }
    default:
      return Malformed("unknown status " + std::to_string(response.status));
  }
  if (!reader.exhausted()) return Malformed("trailing bytes");
  return response;
}

}  // namespace auditgame::server
