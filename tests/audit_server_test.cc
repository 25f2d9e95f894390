// End-to-end tests for the sharded audit server (server/audit_server.h)
// over real loopback sockets: deterministic tenant routing, per-tenant
// cycle ordering under concurrent clients, protocol error handling
// (malformed JSON answered, not disconnected; oversized frames
// disconnected), ingest validation, backpressure, and graceful shutdown.
// The front-door cases (FrontDoorTest) also run against a Router in front
// of one server: both serve clients through one server::FrontEnd.
#include "server/audit_server.h"

#include <sys/socket.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/frame.h"
#include "scenario/generator.h"
#include "server/binary_codec.h"
#include "server/protocol.h"
#include "server/router.h"
#include "util/json.h"

namespace auditgame::server {
namespace {

class AuditServerTest : public ::testing::Test {
 protected:
  void StartServer(AuditServerOptions options = {}) {
    auto spec = scenario::SpecByName("uniform");
    ASSERT_TRUE(spec.ok());
    spec->num_types = 4;
    auto instance = scenario::Generate(*spec);
    ASSERT_TRUE(instance.ok());
    baseline_ = instance->alert_distributions;

    options.front.port = 0;  // ephemeral
    options.service.budgets = {6.0};
    options.service.solver_options.ishm.step_size = 0.25;
    server_ = std::make_unique<AuditServer>(*std::move(instance), options);
    ASSERT_TRUE(server_->Start().ok());
    front_port_ = server_->port();
    thread_ = std::thread([this] {
      util::Status run = server_->Run();
      EXPECT_TRUE(run.ok()) << run;
    });
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->RequestStop();
      // joinable() guard: a failed Start() leaves thread_ never launched.
      if (thread_.joinable()) thread_.join();
    }
  }

  net::FrameClient Connect() {
    auto client = net::FrameClient::Connect("127.0.0.1", front_port_, 5000);
    EXPECT_TRUE(client.ok()) << client.status();
    EXPECT_TRUE(client->SetReceiveTimeout(30000).ok());
    return std::move(client).value();
  }

  /// One round trip, parsed.
  util::JsonValue Call(net::FrameClient& client, const std::string& payload) {
    auto response = client.Call(payload);
    EXPECT_TRUE(response.ok()) << response.status();
    if (!response.ok()) return util::JsonValue();
    auto doc = util::JsonValue::Parse(*response);
    EXPECT_TRUE(doc.ok()) << doc.status();
    return doc.ok() ? *std::move(doc) : util::JsonValue();
  }

  static std::string StatusOf(const util::JsonValue& doc) {
    auto status = doc.GetString("status");
    return status.ok() ? *status : "<missing>";
  }

  std::vector<prob::CountDistribution> baseline_;
  std::unique_ptr<AuditServer> server_;
  std::thread thread_;
  /// Where Connect() dials: the server, or the router in front of it.
  uint16_t front_port_ = 0;
};

/// The `server` stats block every front door reports
/// (FrontEnd::ServerStats); AuditServer adds `shards`, Router adds `role`.
const std::set<std::string> kFrontEndServerKeys = {
    "accept_rejections", "accepted_connections", "active_connections",
    "draining",          "frames_in",            "frames_out",
    "idle_closes",       "orphaned_responses",   "overloaded",
    "protocol_errors",   "reactors",             "slow_consumer_closes"};

std::set<std::string> ServerBlockKeys(const util::JsonValue& stats) {
  std::set<std::string> keys;
  const util::JsonValue* server = stats.Find("server");
  if (server == nullptr || !server->is_object()) return keys;
  for (const auto& [key, value] : server->as_object()) keys.insert(key);
  return keys;
}

enum class FrontDoor { kServer, kRouter };

/// Front-door behavior — decode errors, the poison rule, the accept cap,
/// idle reaping — checked on an AuditServer and on a Router in front of
/// one, with the same client-facing options.
class FrontDoorTest : public AuditServerTest,
                      public ::testing::WithParamInterface<FrontDoor> {
 protected:
  void StartFrontDoor(FrontEndOptions front = {}) {
    AuditServerOptions options;
    if (GetParam() == FrontDoor::kServer) options.front = front;
    StartServer(options);
    if (GetParam() == FrontDoor::kServer) return;

    RouterOptions router_options;
    router_options.front = front;
    router_options.front.port = 0;
    router_options.backends = {"127.0.0.1:" +
                               std::to_string(server_->port())};
    router_ = std::make_unique<Router>(std::move(router_options));
    ASSERT_TRUE(router_->Start().ok());
    front_port_ = router_->port();
    router_thread_ = std::thread([this] {
      util::Status run = router_->Run();
      EXPECT_TRUE(run.ok()) << run;
    });
  }

  void TearDown() override {
    if (router_ != nullptr) {
      router_->RequestStop();
      if (router_thread_.joinable()) router_thread_.join();
    }
    AuditServerTest::TearDown();
  }

  /// The key the front door's owner adds to the `server` block.
  std::string OwnerServerKey() const {
    return GetParam() == FrontDoor::kServer ? "shards" : "role";
  }

  std::unique_ptr<Router> router_;
  std::thread router_thread_;
};

INSTANTIATE_TEST_SUITE_P(
    Doors, FrontDoorTest,
    ::testing::Values(FrontDoor::kServer, FrontDoor::kRouter),
    [](const ::testing::TestParamInfo<FrontDoor>& info) {
      return std::string(info.param == FrontDoor::kServer ? "Server"
                                                          : "Router");
    });

TEST(ShardRoutingTest, DeterministicAndInRange) {
  for (int i = 0; i < 200; ++i) {
    const std::string tenant = "tenant-" + std::to_string(i);
    const size_t shard = AuditServer::ShardForTenant(tenant, 4);
    EXPECT_LT(shard, 4u);
    // Same tenant id => same shard, every time (the ordering guarantee's
    // foundation).
    EXPECT_EQ(shard, AuditServer::ShardForTenant(tenant, 4));
  }
}

TEST(ShardRoutingTest, SpreadsTenantsAcrossShards) {
  std::set<size_t> used;
  for (int i = 0; i < 64; ++i) {
    used.insert(
        AuditServer::ShardForTenant("tenant-" + std::to_string(i), 4));
  }
  // 64 tenants into 4 buckets missing one entirely would mean a broken
  // hash, not bad luck (probability ~4 * (3/4)^64 < 1e-7).
  EXPECT_EQ(used.size(), 4u);
}

TEST_F(AuditServerTest, SolveCyclesAreOrderedUnderConcurrentClients) {
  StartServer();
  constexpr int kClients = 3;
  constexpr int kSolvesEach = 4;

  // Several connections hammer *the same tenant* concurrently: the shard's
  // FIFO queue must serialize them, so the union of returned cycle numbers
  // is exactly 1..N with no duplicates, and each client's own sequence is
  // strictly increasing.
  std::vector<std::vector<int>> seen(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c, &seen] {
      auto client = Connect();
      for (int i = 0; i < kSolvesEach; ++i) {
        util::JsonValue doc = Call(
            client, MakeSolveCycleRequest(c * 100 + i, "shared-tenant"));
        ASSERT_EQ(StatusOf(doc), "ok");
        auto cycle = doc.GetNumber("cycle");
        ASSERT_TRUE(cycle.ok());
        seen[c].push_back(static_cast<int>(*cycle));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  std::set<int> all;
  for (const std::vector<int>& s : seen) {
    for (size_t i = 0; i < s.size(); ++i) {
      EXPECT_TRUE(all.insert(s[i]).second) << "duplicate cycle " << s[i];
      if (i > 0) {
        EXPECT_LT(s[i - 1], s[i]);
      }
    }
  }
  ASSERT_EQ(all.size(), static_cast<size_t>(kClients * kSolvesEach));
  EXPECT_EQ(*all.begin(), 1);
  EXPECT_EQ(*all.rbegin(), kClients * kSolvesEach);
}

TEST_P(FrontDoorTest, MalformedJsonGetsErrorResponseNotDisconnect) {
  StartFrontDoor();
  auto client = Connect();
  util::JsonValue doc = Call(client, "this is not json {");
  EXPECT_EQ(StatusOf(doc), "error");
  auto id = doc.GetNumber("id");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(static_cast<int>(*id), -1);  // no id recoverable

  // The connection survives: a later well-formed request works.
  doc = Call(client, MakeStatsRequest(7));
  EXPECT_EQ(StatusOf(doc), "ok");
  auto echoed = doc.GetNumber("id");
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(static_cast<int>(*echoed), 7);

  std::set<std::string> expected = kFrontEndServerKeys;
  expected.insert(OwnerServerKey());
  EXPECT_EQ(ServerBlockKeys(doc), expected);
}

TEST_F(AuditServerTest, AbsurdNumbersAreRejectedNotUndefined) {
  StartServer();
  auto client = Connect();
  // An id outside the exact-integer range of a double must not reach a
  // float->int cast (UB); it degrades to -1. UBSan CI guards the cast.
  util::JsonValue doc = Call(client, R"({"verb":"stats","id":1e300})");
  EXPECT_EQ(StatusOf(doc), "ok");
  auto id = doc.GetNumber("id");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, -1.0);
  // Same for a distribution min far outside int range: error frame.
  doc = Call(client,
             R"({"verb":"ingest","tenant":"t","id":2,)"
             R"("distributions":[{"min":1e30,"pmf":[1.0]}]})");
  EXPECT_EQ(StatusOf(doc), "error");
}

TEST_F(AuditServerTest, UnknownVerbEchoesRequestId) {
  StartServer();
  auto client = Connect();
  util::JsonValue doc = Call(client, R"({"verb":"nope","id":42})");
  EXPECT_EQ(StatusOf(doc), "error");
  auto id = doc.GetNumber("id");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(static_cast<int>(*id), 42);
}

TEST_F(AuditServerTest, IngestValidatesAndApplies) {
  StartServer();
  auto client = Connect();

  // Wrong type count: rejected with an error frame, connection stays up.
  std::vector<prob::CountDistribution> two(baseline_.begin(),
                                           baseline_.begin() + 2);
  util::JsonValue doc = Call(client, MakeIngestRequest(1, "acme", two));
  EXPECT_EQ(StatusOf(doc), "error");

  // Full baseline: accepted, and the following cycle solves.
  doc = Call(client, MakeIngestRequest(2, "acme", baseline_));
  EXPECT_EQ(StatusOf(doc), "ok");
  doc = Call(client, MakeSolveCycleRequest(3, "acme"));
  ASSERT_EQ(StatusOf(doc), "ok");
  const util::JsonValue* policies = doc.Find("policies");
  ASSERT_NE(policies, nullptr);
  ASSERT_TRUE(policies->is_array());
  ASSERT_EQ(policies->as_array().size(), 1u);  // one configured budget
  auto objective = policies->as_array()[0].GetNumber("objective");
  EXPECT_TRUE(objective.ok());
}

TEST_F(AuditServerTest, OversizedFrameDisconnectsButServerSurvives) {
  AuditServerOptions options;
  options.front.max_frame_payload = 256;
  StartServer(options);

  auto victim = Connect();
  const std::string big(1024, 'x');
  ASSERT_TRUE(victim.Send(big).ok());
  // The server cannot resync past an untrusted length word: it drops the
  // connection, so the read fails (EOF) rather than returning a frame.
  EXPECT_FALSE(victim.Receive().ok());

  // A fresh connection is unaffected.
  auto fresh = Connect();
  util::JsonValue doc = Call(fresh, MakeStatsRequest(1));
  EXPECT_EQ(StatusOf(doc), "ok");
}

TEST_F(AuditServerTest, BackpressureAnswersEveryRequest) {
  AuditServerOptions options;
  options.num_shards = 1;
  options.queue_capacity = 1;
  options.max_batch = 1;
  StartServer(options);

  // More concurrent clients than queue slots: every request must still get
  // a terminal answer — `ok` or `overloaded` — never silence.
  constexpr int kClients = 4;
  constexpr int kRequestsEach = 3;
  std::vector<int> answered(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c, &answered] {
      auto client = Connect();
      for (int i = 0; i < kRequestsEach; ++i) {
        util::JsonValue doc = Call(
            client, MakeSolveCycleRequest(c * 100 + i, "hot-tenant"));
        const std::string status = StatusOf(doc);
        ASSERT_TRUE(status == "ok" || status == "overloaded") << status;
        ++answered[c];
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(answered[c], kRequestsEach);
}

TEST_F(AuditServerTest, StatsReportsShardsAndTenants) {
  AuditServerOptions options;
  options.num_shards = 3;
  options.stats_refresh_ms = 10;
  StartServer(options);
  auto client = Connect();
  ASSERT_EQ(StatusOf(Call(client, MakeSolveCycleRequest(1, "t1"))), "ok");
  ASSERT_EQ(StatusOf(Call(client, MakeSolveCycleRequest(2, "t2"))), "ok");

  // The stats verb answers from a periodically refreshed snapshot (it
  // never locks a shard from a reactor thread), so the counters converge
  // to the truth rather than reflecting it instantaneously: poll.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  double tenants = 0.0, solves = 0.0;
  int64_t id = 3;
  util::JsonValue doc;
  for (;;) {
    doc = Call(client, MakeStatsRequest(id++));
    ASSERT_EQ(StatusOf(doc), "ok");
    const util::JsonValue* shards = doc.Find("shards");
    ASSERT_NE(shards, nullptr);
    ASSERT_TRUE(shards->is_array());
    ASSERT_EQ(shards->as_array().size(), 3u);
    tenants = 0.0;
    solves = 0.0;
    for (const util::JsonValue& shard : shards->as_array()) {
      auto t = shard.GetNumber("tenants");
      auto s = shard.GetNumber("solves");
      ASSERT_TRUE(t.ok() && s.ok());
      tenants += *t;
      solves += *s;
    }
    if (solves >= 2.0 || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(tenants, 2.0);
  EXPECT_EQ(solves, 2.0);
  const util::JsonValue* server_stats = doc.Find("server");
  ASSERT_NE(server_stats, nullptr);
  auto protocol_errors = server_stats->GetNumber("protocol_errors");
  ASSERT_TRUE(protocol_errors.ok());
  EXPECT_EQ(*protocol_errors, 0.0);
  auto reactors = server_stats->GetNumber("reactors");
  ASSERT_TRUE(reactors.ok());
  EXPECT_GE(*reactors, 1.0);
  std::set<std::string> expected = kFrontEndServerKeys;
  expected.insert("shards");
  EXPECT_EQ(ServerBlockKeys(doc), expected);
}

TEST_F(AuditServerTest, PipelinedBinaryRequestsInterleaveAcrossTenants) {
  AuditServerOptions options;
  options.num_shards = 2;
  options.queue_capacity = 64;
  StartServer(options);
  auto client = Connect();

  // One connection pipelines five solves each for two tenants (different
  // shards) without reading a single response. The correlation ids pair
  // the answers; across tenants they may interleave in any order, but each
  // tenant's own cycle numbers must come back strictly increasing.
  constexpr int kSolves = 5;
  for (int i = 1; i <= kSolves; ++i) {
    client.QueueSend(EncodeBinarySolveCycleRequest(100 + i, "tenant-a"));
    client.QueueSend(EncodeBinarySolveCycleRequest(200 + i, "tenant-b"));
  }
  ASSERT_TRUE(client.FlushSends().ok());

  int next_a = 1, next_b = 1;
  int64_t last_cycle_a = 0, last_cycle_b = 0;
  for (int n = 0; n < 2 * kSolves; ++n) {
    auto payload = client.Receive();
    ASSERT_TRUE(payload.ok()) << payload.status();
    ASSERT_TRUE(IsBinaryFrame(*payload));  // response mirrors the encoding
    auto response = DecodeBinaryResponse(*payload);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->status, kBinaryStatusOk);
    if (response->correlation_id > 200) {
      EXPECT_EQ(response->correlation_id, 200 + next_b++);
      EXPECT_GT(response->cycle, last_cycle_b);
      last_cycle_b = response->cycle;
    } else {
      EXPECT_EQ(response->correlation_id, 100 + next_a++);
      EXPECT_GT(response->cycle, last_cycle_a);
      last_cycle_a = response->cycle;
    }
  }
  EXPECT_EQ(next_a, kSolves + 1);
  EXPECT_EQ(next_b, kSolves + 1);
}

TEST_F(AuditServerTest, JsonAndBinaryCoexistOnOneConnection) {
  StartServer();
  auto client = Connect();

  // JSON ingest, binary solve, JSON stats — every response mirrors its
  // request's encoding, on the same connection.
  util::JsonValue doc = Call(client, MakeIngestRequest(1, "mixed", baseline_));
  EXPECT_EQ(StatusOf(doc), "ok");

  ASSERT_TRUE(client.Send(EncodeBinarySolveCycleRequest(2, "mixed")).ok());
  auto payload = client.Receive();
  ASSERT_TRUE(payload.ok()) << payload.status();
  ASSERT_TRUE(IsBinaryFrame(*payload));
  auto response = DecodeBinaryResponse(*payload);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->correlation_id, 2);
  EXPECT_EQ(response->status, kBinaryStatusOk);
  EXPECT_EQ(response->cycle, 1);

  doc = Call(client, MakeStatsRequest(3));
  EXPECT_EQ(StatusOf(doc), "ok");
}

TEST_P(FrontDoorTest, MalformedBinaryFrameAnswersThenDisconnects) {
  StartFrontDoor();
  auto client = Connect();

  // A payload that claims to be binary (magic byte) but fails to decode
  // means encoder desync: the server answers one binary error frame and
  // then drops the connection — unlike malformed JSON, which is survivable.
  std::string garbage = EncodeBinarySolveCycleRequest(9, "tenant");
  garbage[3] = 77;  // unknown verb
  ASSERT_TRUE(client.Send(garbage).ok());
  auto payload = client.Receive();
  ASSERT_TRUE(payload.ok()) << payload.status();
  ASSERT_TRUE(IsBinaryFrame(*payload));
  auto response = DecodeBinaryResponse(*payload);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, kBinaryStatusError);
  EXPECT_EQ(response->correlation_id, 9);  // best-effort id echo
  EXPECT_FALSE(client.Receive().ok());     // sticky: EOF follows

  // A fresh connection is unaffected.
  auto fresh = Connect();
  EXPECT_EQ(StatusOf(Call(fresh, MakeStatsRequest(1))), "ok");
}

TEST_P(FrontDoorTest, IdleConnectionsAreReaped) {
  FrontEndOptions front;
  front.idle_timeout_ms = 50;
  StartFrontDoor(front);
  auto idle = Connect();
  // No request ever sent: the reactor's idle sweep must close the
  // connection (EOF on our side) instead of holding the fd forever.
  EXPECT_FALSE(idle.Receive().ok());

  // A connection that keeps talking stays up well past the timeout.
  auto busy = Connect();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(StatusOf(Call(busy, MakeStatsRequest(i))), "ok");
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
}

TEST_P(FrontDoorTest, MaxConnectionsCapClosesExcessAccepts) {
  FrontEndOptions front;
  front.max_connections = 1;
  StartFrontDoor(front);

  auto first = Connect();
  ASSERT_EQ(StatusOf(Call(first, MakeStatsRequest(1))), "ok");

  // The second accept is over the cap: closed immediately, so the first
  // read sees EOF instead of a response.
  auto second = Connect();
  ASSERT_TRUE(second.Send(MakeStatsRequest(2)).ok());
  EXPECT_FALSE(second.Receive().ok());

  // The admitted connection is unaffected.
  EXPECT_EQ(StatusOf(Call(first, MakeStatsRequest(3))), "ok");
}

TEST_F(AuditServerTest, TwoReactorsServeEveryConnection) {
  AuditServerOptions options;
  options.front.num_reactors = 2;
  StartServer(options);
  constexpr int kClients = 4;
  constexpr int kSolvesEach = 3;

  // Connection ids are assigned in accept order and pinned to reactor
  // id % 2, so four concurrent connections land on both reactors; each
  // tenant's cycles still come back in order on its own connection.
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c] {
      auto client = Connect();
      const std::string tenant = "reactor-tenant-" + std::to_string(c);
      for (int i = 0; i < kSolvesEach; ++i) {
        util::JsonValue doc =
            Call(client, MakeSolveCycleRequest(c * 100 + i, tenant));
        ASSERT_EQ(StatusOf(doc), "ok");
        auto cycle = doc.GetNumber("cycle");
        ASSERT_TRUE(cycle.ok());
        EXPECT_EQ(static_cast<int>(*cycle), i + 1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Every response has been received, so every frame read was answered.
  const util::JsonValue::Object body = server_->StatsBody();
  const util::JsonValue& server_stats = body.at("server");
  EXPECT_EQ(server_stats.Find("reactors")->as_number(), 2);
  EXPECT_EQ(server_stats.Find("frames_in")->as_number(),
            kClients * kSolvesEach);
  EXPECT_EQ(server_stats.Find("frames_out")->as_number(),
            kClients * kSolvesEach);
}

// Start() refuses each option below 1 instead of clamping it.
TEST(AuditServerStartTest, ValuesBelowOneAreRefused) {
  auto spec = scenario::SpecByName("uniform");
  ASSERT_TRUE(spec.ok());
  spec->num_types = 4;
  auto instance = scenario::Generate(*spec);
  ASSERT_TRUE(instance.ok());
  const std::pair<const char*, void (*)(AuditServerOptions&)> zeroes[] = {
      {"num_reactors", [](AuditServerOptions& o) { o.front.num_reactors = 0; }},
      {"num_shards", [](AuditServerOptions& o) { o.num_shards = 0; }},
      {"queue_capacity", [](AuditServerOptions& o) { o.queue_capacity = 0; }},
      {"max_batch", [](AuditServerOptions& o) { o.max_batch = 0; }},
      {"stats_refresh_ms",
       [](AuditServerOptions& o) { o.stats_refresh_ms = 0; }},
  };
  for (const auto& [name, zero] : zeroes) {
    AuditServerOptions options;
    options.front.port = 0;
    zero(options);
    AuditServer server(*instance, options);
    EXPECT_EQ(server.Start().code(), util::StatusCode::kInvalidArgument)
        << name;
  }
}

TEST_F(AuditServerTest, HalfClosedClientStillGetsItsResponses) {
  StartServer();
  auto client = Connect();
  // Pipeline a request, then close only the write side: the server must
  // keep the connection until the in-flight shard response is flushed.
  ASSERT_TRUE(client.Send(MakeSolveCycleRequest(1, "half-close")).ok());
  ASSERT_EQ(::shutdown(client.fd(), SHUT_WR), 0);
  auto response = client.Receive();
  ASSERT_TRUE(response.ok()) << response.status();
  auto doc = util::JsonValue::Parse(*response);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(StatusOf(*doc), "ok");
  // After the answer, the server finishes the close: EOF, not a hang.
  EXPECT_FALSE(client.Receive().ok());
}

TEST_F(AuditServerTest, GracefulStopAnswersInFlightWork) {
  StartServer();
  auto client = Connect();
  // Send a solve and request the stop immediately: whether the frame was
  // read before or after the queues closed, the drain must answer it —
  // `ok` (accepted before the drain) or `overloaded` (after) — and flush
  // the response before Run() returns. Silence (EOF) is the one forbidden
  // outcome.
  ASSERT_TRUE(client.Send(MakeSolveCycleRequest(1, "draining")).ok());
  server_->RequestStop();
  auto response = client.Receive();
  ASSERT_TRUE(response.ok()) << response.status();
  auto doc = util::JsonValue::Parse(*response);
  ASSERT_TRUE(doc.ok());
  const std::string status = StatusOf(*doc);
  EXPECT_TRUE(status == "ok" || status == "overloaded") << status;
  thread_.join();
  server_.reset();  // TearDown: nothing left to stop
}

}  // namespace
}  // namespace auditgame::server
