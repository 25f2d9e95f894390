// Wire-level tests of the compact binary encoding (server/binary_codec.h):
// request/response round trips, reassembly through the frame decoder one
// byte at a time, and rejection of truncated, corrupted, and oversized
// payloads — the decode failures that must cost a binary connection its
// life (the server's sticky-disconnect discipline relies on the decoder
// never misreading a damaged payload as a valid request).
#include "server/binary_codec.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/frame.h"
#include "prob/count_distribution.h"
#include "server/protocol.h"
#include "service/audit_service.h"

namespace auditgame {
namespace {

std::vector<prob::CountDistribution> TestDistributions() {
  std::vector<prob::CountDistribution> dists;
  auto a = prob::CountDistribution::FromPmf(2, {0.25, 0.5, 0.25});
  auto b = prob::CountDistribution::FromPmf(0, {0.125, 0.125, 0.25, 0.5});
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  dists.push_back(*a);
  dists.push_back(*b);
  return dists;
}

TEST(BinaryCodecTest, IngestRequestRoundTrip) {
  const auto dists = TestDistributions();
  const std::string payload =
      server::EncodeBinaryIngestRequest(4242, "tenant-x", dists);
  ASSERT_TRUE(server::IsBinaryFrame(payload));

  auto request = server::DecodeBinaryRequest(payload);
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->verb, server::Verb::kIngest);
  EXPECT_EQ(request->tenant, "tenant-x");
  EXPECT_EQ(request->id, 4242);
  EXPECT_TRUE(request->binary);
  ASSERT_EQ(request->distributions.size(), dists.size());
  for (size_t i = 0; i < dists.size(); ++i) {
    EXPECT_EQ(request->distributions[i].min_value(), dists[i].min_value());
    ASSERT_EQ(request->distributions[i].support_size(),
              dists[i].support_size());
    for (int z = dists[i].min_value(); z <= dists[i].max_value(); ++z) {
      EXPECT_DOUBLE_EQ(request->distributions[i].Pmf(z), dists[i].Pmf(z));
    }
  }
  EXPECT_EQ(server::BinaryCorrelationIdOf(payload), 4242);
}

TEST(BinaryCodecTest, SolveCycleRequestRoundTrip) {
  const std::string payload =
      server::EncodeBinarySolveCycleRequest(7, "acme");
  auto request = server::DecodeBinaryRequest(payload);
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->verb, server::Verb::kSolveCycle);
  EXPECT_EQ(request->tenant, "acme");
  EXPECT_EQ(request->id, 7);
  EXPECT_TRUE(request->binary);
  EXPECT_TRUE(request->distributions.empty());
}

TEST(BinaryCodecTest, JsonPayloadIsNotBinary) {
  EXPECT_FALSE(server::IsBinaryFrame(R"({"verb":"stats","id":1})"));
  EXPECT_FALSE(server::IsBinaryFrame(""));
}

// A pipelined client hands the TCP stream to the frame decoder in
// arbitrary chunks; the binary payload must survive the worst case —
// reassembly one byte at a time — bit-exactly.
TEST(BinaryCodecTest, ByteAtATimeReassemblyThroughFrameDecoder) {
  const auto dists = TestDistributions();
  const std::string payload =
      server::EncodeBinaryIngestRequest(31337, "drip-fed", dists);
  const std::string frame = net::EncodeFrame(payload);

  net::FrameDecoder decoder(net::kDefaultMaxFramePayload);
  std::string decoded;
  for (size_t i = 0; i < frame.size(); ++i) {
    decoder.Append(frame.data() + i, 1);
    auto next = decoder.Next(&decoded);
    ASSERT_TRUE(next.ok()) << next.status();
    EXPECT_EQ(*next, i + 1 == frame.size()) << "byte " << i;
  }
  EXPECT_EQ(decoded, payload);
  auto request = server::DecodeBinaryRequest(decoded);
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->tenant, "drip-fed");
  EXPECT_EQ(request->id, 31337);
}

// Every truncation point of a valid request must decode to an error —
// never to a shorter valid request.
TEST(BinaryCodecTest, EveryTruncationIsRejected) {
  const std::string payload =
      server::EncodeBinaryIngestRequest(9, "t", TestDistributions());
  for (size_t len = 0; len < payload.size(); ++len) {
    auto request = server::DecodeBinaryRequest(payload.substr(0, len));
    EXPECT_FALSE(request.ok()) << "accepted a " << len << "-byte prefix of a "
                               << payload.size() << "-byte request";
  }
}

TEST(BinaryCodecTest, CorruptedHeaderFieldsAreRejected) {
  const std::string good =
      server::EncodeBinarySolveCycleRequest(5, "tenant");
  {
    std::string bad = good;
    bad[1] = 99;  // unknown version
    EXPECT_FALSE(server::DecodeBinaryRequest(bad).ok());
  }
  {
    std::string bad = good;
    bad[2] = static_cast<char>(server::kBinaryKindResponse);  // not a request
    EXPECT_FALSE(server::DecodeBinaryRequest(bad).ok());
  }
  {
    std::string bad = good;
    bad[3] = 77;  // unknown verb
    EXPECT_FALSE(server::DecodeBinaryRequest(bad).ok());
  }
  {
    // Trailing garbage after a complete request body: the payload length
    // and the body must agree exactly.
    std::string bad = good + "x";
    EXPECT_FALSE(server::DecodeBinaryRequest(bad).ok());
  }
}

// Length fields that promise more bytes than the payload holds must be
// caught by the bounds-checked reader, not walk off the buffer.
TEST(BinaryCodecTest, OversizedLengthClaimsAreRejected)  {
  std::string payload = server::EncodeBinarySolveCycleRequest(5, "ab");
  // The u16 tenant_len sits after magic/version/kind/verb + u64 id.
  const size_t tenant_len_offset = 4 + 8;
  payload[tenant_len_offset] = static_cast<char>(0xFF);
  payload[tenant_len_offset + 1] = static_cast<char>(0xFF);
  EXPECT_FALSE(server::DecodeBinaryRequest(payload).ok());
}

TEST(BinaryCodecTest, CorrelationIdOfDamagedPayloads) {
  const std::string good = server::EncodeBinarySolveCycleRequest(123, "t");
  // A damaged-but-header-complete payload still yields its id, so the
  // final error frame echoes something the client can match...
  std::string truncated = good.substr(0, 12);
  EXPECT_EQ(server::BinaryCorrelationIdOf(truncated), 123);
  // ...and a payload cut inside the fixed header yields -1.
  EXPECT_EQ(server::BinaryCorrelationIdOf(good.substr(0, 5)), -1);
}

TEST(BinaryCodecTest, IngestOkResponseRoundTrip) {
  const std::string payload = server::EncodeBinaryIngestOkResponse(88, 3);
  ASSERT_TRUE(server::IsBinaryFrame(payload));
  auto response = server::DecodeBinaryResponse(payload);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->verb, server::kBinaryVerbIngest);
  EXPECT_EQ(response->correlation_id, 88);
  EXPECT_EQ(response->status, server::kBinaryStatusOk);
  EXPECT_EQ(response->shard, 3);
}

TEST(BinaryCodecTest, SolveCycleResponseRoundTrip) {
  service::AuditService::CycleReport report;
  report.cycle = 17;
  report.seconds = 0.125;
  service::AuditService::CyclePolicy policy;
  policy.budget = 6.0;
  policy.source = service::AuditService::Source::kWarmSolve;
  policy.drift = 0.0625;
  policy.result.objective = -2.5;
  policy.result.thresholds = {1.0, 2.0, 3.0};
  report.policies.push_back(policy);

  const std::string payload =
      server::EncodeBinarySolveCycleResponse(999, 1, report);
  auto response = server::DecodeBinaryResponse(payload);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->verb, server::kBinaryVerbSolveCycle);
  EXPECT_EQ(response->correlation_id, 999);
  EXPECT_EQ(response->status, server::kBinaryStatusOk);
  EXPECT_EQ(response->shard, 1);
  EXPECT_EQ(response->cycle, 17);
  EXPECT_DOUBLE_EQ(response->seconds, 0.125);
  ASSERT_EQ(response->policies.size(), 1u);
  EXPECT_DOUBLE_EQ(response->policies[0].budget, 6.0);
  EXPECT_EQ(response->policies[0].source,
            service::AuditService::Source::kWarmSolve);
  EXPECT_DOUBLE_EQ(response->policies[0].drift, 0.0625);
  EXPECT_DOUBLE_EQ(response->policies[0].objective, -2.5);
  EXPECT_EQ(response->policies[0].thresholds,
            (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(BinaryCodecTest, OverloadedAndErrorResponseRoundTrips) {
  {
    const std::string payload = server::EncodeBinaryOverloadedResponse(
        55, 2, server::kBinaryVerbSolveCycle);
    auto response = server::DecodeBinaryResponse(payload);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->correlation_id, 55);
    EXPECT_EQ(response->status, server::kBinaryStatusOverloaded);
    EXPECT_EQ(response->verb, server::kBinaryVerbSolveCycle);
    EXPECT_EQ(response->shard, 2);
  }
  {
    // The shared refusal builders: the binary flag picks the encoding, the
    // verb travels as its binary byte, a router's shard -1 as "none".
    const std::string overloaded = server::OverloadedResponseFor(
        /*binary=*/true, server::Verb::kIngest, 56, "t", -1);
    auto response = server::DecodeBinaryResponse(overloaded);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->correlation_id, 56);
    EXPECT_EQ(response->status, server::kBinaryStatusOverloaded);
    EXPECT_EQ(response->verb, server::kBinaryVerbIngest);
    EXPECT_EQ(response->shard, -1);
    const std::string down = server::BackendDownResponseFor(
        /*binary=*/true, server::Verb::kSolveCycle, 57, "t");
    response = server::DecodeBinaryResponse(down);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->correlation_id, 57);
    EXPECT_EQ(response->status, server::kBinaryStatusBackendDown);
    EXPECT_EQ(response->verb, server::kBinaryVerbSolveCycle);
    EXPECT_EQ(server::OverloadedResponseFor(/*binary=*/false,
                                            server::Verb::kSolveCycle, 58,
                                            "acme", 3),
              server::MakeOverloadedResponse(58, "acme", 3));
    EXPECT_EQ(server::BackendDownResponseFor(/*binary=*/false,
                                             server::Verb::kIngest, 59,
                                             "acme"),
              server::MakeBackendDownResponse(59, "acme"));
  }
  {
    const std::string payload =
        server::EncodeBinaryErrorResponse(-1, "unknown tenant");
    auto response = server::DecodeBinaryResponse(payload);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->correlation_id, -1);
    EXPECT_EQ(response->status, server::kBinaryStatusError);
    EXPECT_EQ(response->message, "unknown tenant");
  }
}

TEST(BinaryCodecTest, ResponseTruncationsAreRejected) {
  const std::string payload = server::EncodeBinaryErrorResponse(3, "boom");
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(server::DecodeBinaryResponse(payload.substr(0, len)).ok())
        << "accepted a " << len << "-byte prefix";
  }
  // Requests do not decode as responses.
  EXPECT_FALSE(
      server::DecodeBinaryResponse(
          server::EncodeBinarySolveCycleRequest(1, "t"))
          .ok());
}

}  // namespace
}  // namespace auditgame
