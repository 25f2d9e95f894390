#include "server/binary_codec.h"

#include <cstring>
#include <utility>

namespace auditgame::server {

namespace {

/// --- writers: big-endian into an append-only string ---

void PutU8(std::string* out, unsigned char v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>(v & 0xff));
}

void PutU32(std::string* out, uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "IEEE-754 doubles expected");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// --- bounds-checked reader over an untrusted payload ---

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ReadU8(unsigned char* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = static_cast<unsigned char>(data_[pos_++]);
    return true;
  }

  bool ReadU16(uint16_t* v) {
    if (pos_ + 2 > data_.size()) return false;
    *v = static_cast<uint16_t>(
        (static_cast<uint16_t>(Byte(pos_)) << 8) | Byte(pos_ + 1));
    pos_ += 2;
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v = (*v << 8) | Byte(pos_ + i);
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v = (*v << 8) | Byte(pos_ + i);
    pos_ += 8;
    return true;
  }

  bool ReadF64(double* v) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool ReadBytes(size_t n, std::string* out) {
    if (pos_ + n > data_.size()) return false;
    out->assign(data_.substr(pos_, n));
    pos_ += n;
    return true;
  }

  bool exhausted() const { return pos_ == data_.size(); }

 private:
  unsigned char Byte(size_t i) const {
    return static_cast<unsigned char>(data_[i]);
  }

  std::string_view data_;
  size_t pos_ = 0;
};

util::Status Malformed(const std::string& what) {
  return util::InvalidArgumentError("malformed binary frame: " + what);
}

void PutRequestHeader(std::string* out, unsigned char verb,
                      int64_t correlation_id, const std::string& tenant) {
  PutU8(out, kBinaryMagic);
  PutU8(out, kBinaryVersion);
  PutU8(out, kBinaryKindRequest);
  PutU8(out, verb);
  PutU64(out, static_cast<uint64_t>(correlation_id));
  PutU16(out, static_cast<uint16_t>(tenant.size()));
  out->append(tenant);
}

/// The verb byte of a hot verb (`ingest` or `solve_cycle`).
unsigned char BinaryVerbOf(Verb verb) {
  return verb == Verb::kIngest ? kBinaryVerbIngest : kBinaryVerbSolveCycle;
}

void PutResponseHeader(std::string* out, unsigned char verb,
                       int64_t correlation_id, unsigned char status,
                       int shard) {
  PutU8(out, kBinaryMagic);
  PutU8(out, kBinaryVersion);
  PutU8(out, kBinaryKindResponse);
  PutU8(out, verb);
  PutU64(out, static_cast<uint64_t>(correlation_id));
  PutU8(out, status);
  PutU16(out, shard < 0 ? 0xffff : static_cast<uint16_t>(shard));
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
  PutU16(&out, static_cast<uint16_t>(distributions.size()));
  for (const prob::CountDistribution& dist : distributions) {
    PutU32(&out, static_cast<uint32_t>(dist.min_value()));
    PutU16(&out, static_cast<uint16_t>(dist.support_size()));
    for (int z = dist.min_value(); z <= dist.max_value(); ++z) {
      PutF64(&out, dist.Pmf(z));
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
  if (observe_policy) PutU8(&out, kBinarySolveFlagObservePolicy);
  return out;
}

int64_t BinaryCorrelationIdOf(std::string_view payload) {
  Reader reader(payload);
  unsigned char magic, version, kind, verb;
  uint64_t id;
  if (!reader.ReadU8(&magic) || !reader.ReadU8(&version) ||
      !reader.ReadU8(&kind) || !reader.ReadU8(&verb) || !reader.ReadU64(&id)) {
    return -1;
  }
  return static_cast<int64_t>(id);
}

util::StatusOr<Request> DecodeBinaryRequest(std::string_view payload) {
  Reader reader(payload);
  unsigned char magic, version, kind, verb;
  if (!reader.ReadU8(&magic) || !reader.ReadU8(&version) ||
      !reader.ReadU8(&kind) || !reader.ReadU8(&verb)) {
    return Malformed("truncated header");
  }
  if (magic != kBinaryMagic) return Malformed("bad magic");
  if (version != kBinaryVersion) {
    return Malformed("unsupported version " + std::to_string(version));
  }
  if (kind != kBinaryKindRequest) return Malformed("not a request frame");

  Request request;
  uint64_t id;
  if (!reader.ReadU64(&id)) return Malformed("truncated correlation id");
  request.id = static_cast<int64_t>(id);

  uint16_t tenant_len;
  if (!reader.ReadU16(&tenant_len) ||
      !reader.ReadBytes(tenant_len, &request.tenant)) {
    return Malformed("truncated tenant");
  }
  if (request.tenant.empty()) return Malformed("tenant must be non-empty");

  switch (verb) {
    case kBinaryVerbSolveCycle: {
      request.verb = Verb::kSolveCycle;
      unsigned char flags;
      if (reader.ReadU8(&flags)) {
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
      if (!reader.ReadU16(&count)) return Malformed("truncated ingest body");
      if (count > kMaxDistributions) {
        return Malformed("distribution count " + std::to_string(count));
      }
      request.distributions.reserve(count);
      for (uint16_t i = 0; i < count; ++i) {
        uint32_t min;
        uint16_t pmf_len;
        if (!reader.ReadU32(&min) || !reader.ReadU16(&pmf_len)) {
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
  PutU64(&out, static_cast<uint64_t>(report.cycle));
  PutF64(&out, report.seconds);
  PutU16(&out, static_cast<uint16_t>(report.policies.size()));
  for (const service::AuditService::CyclePolicy& policy : report.policies) {
    PutF64(&out, policy.budget);
    PutU8(&out, static_cast<unsigned char>(policy.source));
    PutF64(&out, policy.drift);
    PutF64(&out, policy.result.objective);
    PutU16(&out, static_cast<uint16_t>(policy.result.thresholds.size()));
    for (double b : policy.result.thresholds) PutF64(&out, b);
  }
  if (detection_probs != nullptr) {
    for (const std::vector<double>& pal : *detection_probs) {
      PutU16(&out, static_cast<uint16_t>(pal.size()));
      for (double p : pal) PutF64(&out, p);
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
  uint64_t v = static_cast<uint64_t>(correlation_id);
  for (int i = 0; i < 8; ++i) {
    (*payload)[4 + i] = static_cast<char>((v >> (56 - 8 * i)) & 0xff);
  }
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
  PutU32(&out, static_cast<uint32_t>(message.size()));
  out.append(message);
  return out;
}

util::StatusOr<BinaryResponse> DecodeBinaryResponse(std::string_view payload) {
  Reader reader(payload);
  unsigned char magic, version, kind;
  BinaryResponse response;
  if (!reader.ReadU8(&magic) || !reader.ReadU8(&version) ||
      !reader.ReadU8(&kind) || !reader.ReadU8(&response.verb)) {
    return Malformed("truncated header");
  }
  if (magic != kBinaryMagic) return Malformed("bad magic");
  if (version != kBinaryVersion) {
    return Malformed("unsupported version " + std::to_string(version));
  }
  if (kind != kBinaryKindResponse) return Malformed("not a response frame");

  uint64_t id;
  uint16_t shard;
  if (!reader.ReadU64(&id) || !reader.ReadU8(&response.status) ||
      !reader.ReadU16(&shard)) {
    return Malformed("truncated response header");
  }
  response.correlation_id = static_cast<int64_t>(id);
  response.shard = shard == 0xffff ? -1 : static_cast<int>(shard);

  switch (response.status) {
    case kBinaryStatusOk:
      if (response.verb == kBinaryVerbSolveCycle) {
        uint64_t cycle;
        uint16_t count;
        if (!reader.ReadU64(&cycle) || !reader.ReadF64(&response.seconds) ||
            !reader.ReadU16(&count)) {
          return Malformed("truncated solve body");
        }
        response.cycle = static_cast<int64_t>(cycle);
        response.policies.reserve(count);
        for (uint16_t i = 0; i < count; ++i) {
          BinaryPolicy policy;
          unsigned char source;
          uint16_t thresholds;
          if (!reader.ReadF64(&policy.budget) || !reader.ReadU8(&source) ||
              !reader.ReadF64(&policy.drift) ||
              !reader.ReadF64(&policy.objective) ||
              !reader.ReadU16(&thresholds)) {
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
            if (!reader.ReadU16(&n)) return Malformed("truncated detection");
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
      if (!reader.ReadU32(&len) || !reader.ReadBytes(len, &response.message)) {
        return Malformed("truncated error message");
      }
      break;
    }
    default:
      return Malformed("unknown status " + std::to_string(response.status));
  }
  if (!reader.exhausted()) return Malformed("trailing bytes");
  return response;
}

}  // namespace auditgame::server
