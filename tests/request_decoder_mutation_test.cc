// Seeded mutation test for the two request decoders the front end runs on
// untrusted bytes: DecodeBinaryRequest, and util::JsonValue::Parse followed
// by ParseRequest. From valid `ingest`, `solve_cycle` and `stats` payloads
// it derives a fixed count of mutants (bit flips, truncations, byte
// insertions, rewritten length fields or structural characters) with a
// fixed seed. Every mutant must either be rejected with a non-OK status or
// decode to a request that survives a re-encode: encoding it again and
// decoding that gives the same request. Crashes, sanitizer reports and
// round-trip drift fail the test.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "prob/count_distribution.h"
#include "server/binary_codec.h"
#include "server/protocol.h"
#include "tests/byte_mutator.h"
#include "util/json.h"

namespace auditgame::server {
namespace {

constexpr uint64_t kSeed = 0x5eed2026;
constexpr int kMutantsPerPayload = 10000;

std::vector<prob::CountDistribution> Distributions() {
  std::vector<prob::CountDistribution> out;
  out.push_back(*prob::CountDistribution::FromPmf(0, {0.5, 0.3, 0.2}));
  out.push_back(*prob::CountDistribution::FromPmf(2, {0.1, 0.2, 0.3, 0.4}));
  out.push_back(*prob::CountDistribution::FromPmf(7, {0.25, 0.75}));
  return out;
}

/// The tenant length, the distribution count and every pmf length of a
/// binary request (fixed layout, see server/binary_codec.h).
std::vector<testutil::Field> LengthFieldsOf(const std::string& payload) {
  std::vector<testutil::Field> fields = {{12, 2}};
  const auto u16 = [&payload](size_t at) {
    return static_cast<size_t>(static_cast<unsigned char>(payload[at])) << 8 |
           static_cast<unsigned char>(payload[at + 1]);
  };
  const size_t body = 14 + u16(12);
  if (static_cast<unsigned char>(payload[3]) != kBinaryVerbIngest) {
    return fields;
  }
  fields.push_back({body, 2});
  size_t at = body + 2;
  for (size_t i = 0, count = u16(body); i < count; ++i) {
    fields.push_back({at + 4, 2});
    at += 6 + 8 * u16(at + 4);
  }
  return fields;
}

/// One mutant of `payload`: a bit flip, truncation or insertion, else a
/// rewritten length field (binary) or structural character (JSON).
std::string Mutate(testutil::ByteMutator& mutator, const std::string& payload,
                   bool binary) {
  std::string out = payload;
  const size_t kind = mutator.Below(4);
  if (kind < 3) {
    mutator.Apply(kind, &out);
  } else if (binary) {
    const std::vector<testutil::Field> fields = LengthFieldsOf(out);
    mutator.RewriteField(fields[mutator.Below(fields.size())], &out);
  } else {
    static const std::string kStructural = "{}[]\":,-.0e\\";
    out[mutator.Below(out.size())] =
        kStructural[mutator.Below(kStructural.size())];
  }
  return out;
}

void ExpectSameRequest(const Request& a, const Request& b) {
  EXPECT_EQ(a.verb, b.verb);
  EXPECT_EQ(a.tenant, b.tenant);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.binary, b.binary);
  EXPECT_EQ(a.observe_policy, b.observe_policy);
  ASSERT_EQ(a.distributions.size(), b.distributions.size());
  for (size_t i = 0; i < a.distributions.size(); ++i) {
    const prob::CountDistribution& x = a.distributions[i];
    const prob::CountDistribution& y = b.distributions[i];
    EXPECT_EQ(x.min_value(), y.min_value());
    ASSERT_EQ(x.support_size(), y.support_size());
    for (int z = x.min_value(); z <= x.max_value(); ++z) {
      // Decoding renormalizes the pmf, which may move it by a few ULPs.
      EXPECT_NEAR(x.Pmf(z), y.Pmf(z), 1e-12);
    }
  }
}

/// Totals over one payload's mutants: how many decoded and how many were
/// rejected. A mutator that only ever hits one side tests nothing.
struct Outcomes {
  int decoded = 0;
  int rejected = 0;
};

void MutateBinary(const std::string& payload, uint64_t seed,
                  Outcomes* outcomes) {
  testutil::ByteMutator mutator(seed);
  for (int i = 0; i < kMutantsPerPayload; ++i) {
    const std::string mutant = Mutate(mutator, payload, /*binary=*/true);
    auto request = DecodeBinaryRequest(mutant);
    if (!request.ok()) {
      ++outcomes->rejected;
      continue;
    }
    ++outcomes->decoded;
    const std::string again =
        request->verb == Verb::kIngest
            ? EncodeBinaryIngestRequest(request->id, request->tenant,
                                        request->distributions)
            : EncodeBinarySolveCycleRequest(request->id, request->tenant);
    auto round_trip = DecodeBinaryRequest(again);
    ASSERT_TRUE(round_trip.ok()) << "mutant " << i << ": "
                                 << round_trip.status();
    ExpectSameRequest(*request, *round_trip);
  }
}

util::StatusOr<Request> DecodeJson(const std::string& payload) {
  auto doc = util::JsonValue::Parse(payload);
  if (!doc.ok()) return doc.status();
  return ParseRequest(*doc);
}

void MutateJson(const std::string& payload, uint64_t seed,
                Outcomes* outcomes) {
  testutil::ByteMutator mutator(seed);
  for (int i = 0; i < kMutantsPerPayload; ++i) {
    const std::string mutant = Mutate(mutator, payload, /*binary=*/false);
    auto request = DecodeJson(mutant);
    if (!request.ok()) {
      ++outcomes->rejected;
      continue;
    }
    ++outcomes->decoded;
    std::string again;
    switch (request->verb) {
      case Verb::kIngest:
        again = MakeIngestRequest(request->id, request->tenant,
                                  request->distributions);
        break;
      case Verb::kSolveCycle:
        again = MakeSolveCycleRequest(request->id, request->tenant,
                                      request->observe_policy);
        break;
      case Verb::kStats:
        again = MakeStatsRequest(request->id);
        break;
    }
    auto round_trip = DecodeJson(again);
    ASSERT_TRUE(round_trip.ok()) << "mutant " << i << ": "
                                 << round_trip.status();
    ExpectSameRequest(*request, *round_trip);
  }
}

TEST(RequestDecoderMutationTest, BinaryMutantsDecodeConsistentlyOrFail) {
  const std::vector<std::string> payloads = {
      EncodeBinaryIngestRequest(123456789, "acme-7", Distributions()),
      EncodeBinarySolveCycleRequest(42, "t")};
  for (size_t p = 0; p < payloads.size(); ++p) {
    ASSERT_TRUE(DecodeBinaryRequest(payloads[p]).ok()) << "payload " << p;
    Outcomes outcomes;
    MutateBinary(payloads[p], kSeed + p, &outcomes);
    EXPECT_GT(outcomes.decoded, 0) << "payload " << p;
    EXPECT_GT(outcomes.rejected, 0) << "payload " << p;
  }
}

TEST(RequestDecoderMutationTest, JsonMutantsDecodeConsistentlyOrFail) {
  // Literal wire documents, not the builders' output, so a builder that
  // drifts from the parser shows up as a failed re-encode.
  const std::vector<std::string> payloads = {
      R"({"verb":"ingest","tenant":"acme-7","id":123456789,)"
      R"("distributions":[{"min":0,"pmf":[0.5,0.3,0.2]},)"
      R"({"min":2,"pmf":[0.1,0.2,0.3,0.4]},{"min":7,"pmf":[0.25,0.75]}]})",
      R"({"verb":"solve_cycle","tenant":"t","id":42})",
      R"({"verb":"solve_cycle","tenant":"t","id":43,"observe_policy":true})",
      R"({"verb":"stats","id":9})"};
  for (size_t p = 0; p < payloads.size(); ++p) {
    ASSERT_TRUE(DecodeJson(payloads[p]).ok()) << "payload " << p;
    Outcomes outcomes;
    MutateJson(payloads[p], kSeed + 100 + p, &outcomes);
    EXPECT_GT(outcomes.decoded, 0) << "payload " << p;
    EXPECT_GT(outcomes.rejected, 0) << "payload " << p;
  }
}

}  // namespace
}  // namespace auditgame::server
