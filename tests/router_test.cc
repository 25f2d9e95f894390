// Tests for the cluster layer: HashRing placement properties (the
// determinism, spread and minimal-movement guarantees failover relies
// on) and end-to-end Router behavior over real loopback sockets — two
// in-process AuditServer backends behind one Router, correlation-id
// remapping, `backend_down` semantics, and the warm-failover path: a
// stopped backend's tenants re-route to their ring successor and are
// served from the mirrored (warm) state, with cycle numbers that keep
// increasing across the switch. A recording stand-in backend shows that
// an observe_policy solve's mirror is sent without the observe flag.
// Out-of-range router, ring and channel options are refused, not clamped.
#include "server/router.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "net/channel.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/socket.h"
#include "scenario/generator.h"
#include "server/audit_server.h"
#include "server/binary_codec.h"
#include "server/hash_ring.h"
#include "server/protocol.h"
#include "util/json.h"

namespace auditgame::server {
namespace {

std::string TenantName(int i) { return "tenant-" + std::to_string(i); }

TEST(HashRingTest, DeterministicPlacement) {
  HashRing a(128), b(128);
  for (int n = 0; n < 3; ++n) {
    a.AddNode(n, "backend-" + std::to_string(n));
    b.AddNode(n, "backend-" + std::to_string(n));
  }
  for (int i = 0; i < 1000; ++i) {
    const uint64_t point = HashRing::PointForTenant(TenantName(i));
    EXPECT_EQ(a.PrimaryFor(point), b.PrimaryFor(point));
    EXPECT_EQ(a.SuccessorFor(point), b.SuccessorFor(point));
  }
}

TEST(HashRingTest, SpreadStaysWithinImbalanceBound) {
  constexpr int kNodes = 3;
  constexpr int kTenants = 10000;
  HashRing ring(128);
  for (int n = 0; n < kNodes; ++n) {
    ring.AddNode(n, "backend-" + std::to_string(n));
  }
  std::vector<int> load(kNodes, 0);
  for (int i = 0; i < kTenants; ++i) {
    const int node = ring.PrimaryFor(HashRing::PointForTenant(TenantName(i)));
    ASSERT_GE(node, 0);
    ASSERT_LT(node, kNodes);
    ++load[node];
  }
  const double mean = static_cast<double>(kTenants) / kNodes;
  for (int n = 0; n < kNodes; ++n) {
    const double imbalance = (load[n] - mean) / mean;
    // 128 virtual nodes per backend keep every node within 15% of the
    // mean at this population — the capacity-planning envelope the
    // default is chosen for.
    EXPECT_LT(imbalance, 0.15) << "node " << n << " load " << load[n];
    EXPECT_GT(imbalance, -0.15) << "node " << n << " load " << load[n];
  }
}

TEST(HashRingTest, RemovalMovesOnlyTheRemovedNodesTenants) {
  constexpr int kNodes = 3;
  constexpr int kTenants = 10000;
  HashRing ring(128);
  for (int n = 0; n < kNodes; ++n) {
    ring.AddNode(n, "backend-" + std::to_string(n));
  }
  std::vector<int> before(kTenants);
  for (int i = 0; i < kTenants; ++i) {
    before[i] = ring.PrimaryFor(HashRing::PointForTenant(TenantName(i)));
  }
  ring.RemoveNode(2);
  int moved = 0;
  for (int i = 0; i < kTenants; ++i) {
    const int after = ring.PrimaryFor(HashRing::PointForTenant(TenantName(i)));
    ASSERT_NE(after, 2);
    if (before[i] != 2) {
      // The consistent-hashing contract: survivors' tenants do not move.
      EXPECT_EQ(after, before[i]) << TenantName(i);
    } else {
      ++moved;
    }
  }
  // Only the removed node's share (~1/3) re-routes.
  EXPECT_GT(moved, kTenants / 5);
  EXPECT_LT(moved, kTenants / 2);
}

TEST(HashRingDeathTest, VirtualNodesBelowOneAreRefused) {
  EXPECT_DEATH(HashRing(0), "virtual_nodes");
  EXPECT_DEATH(HashRing(-3), "virtual_nodes");
}

TEST(FrameChannelDeathTest, OutOfRangeOptionsAreRefused) {
  const std::pair<const char*, void (*)(net::FrameChannelOptions&)> bad[] = {
      {"window", [](net::FrameChannelOptions& o) { o.window = 0; }},
      {"queue_capacity",
       [](net::FrameChannelOptions& o) { o.queue_capacity = 0; }},
      {"reconnect_backoff_min_ms",
       [](net::FrameChannelOptions& o) { o.reconnect_backoff_min_ms = 0; }},
      {"reconnect_backoff_max_ms",
       [](net::FrameChannelOptions& o) {
         o.reconnect_backoff_min_ms = 100;
         o.reconnect_backoff_max_ms = 50;
       }},
  };
  for (const auto& [name, set] : bad) {
    net::FrameChannelOptions options;
    set(options);
    EXPECT_DEATH(net::FrameChannel("127.0.0.1", 1, options, {}), name)
        << name;
  }
}

TEST(HashRingTest, SuccessorIsADifferentLiveNode) {
  HashRing ring(128);
  ring.AddNode(0, "a");
  // With a single node there is nowhere to replicate.
  EXPECT_EQ(ring.SuccessorFor(HashRing::PointForTenant("t")), -1);
  ring.AddNode(1, "b");
  ring.AddNode(2, "c");
  for (int i = 0; i < 500; ++i) {
    const uint64_t point = HashRing::PointForTenant(TenantName(i));
    const int primary = ring.PrimaryFor(point);
    const int successor = ring.SuccessorFor(point);
    EXPECT_GE(successor, 0);
    EXPECT_NE(successor, primary) << TenantName(i);
  }
}

class RouterTest : public ::testing::Test {
 protected:
  void StartCluster(int num_backends, RouterOptions router_options = {}) {
    auto spec = scenario::SpecByName("uniform");
    ASSERT_TRUE(spec.ok());
    spec->num_types = 4;

    for (int b = 0; b < num_backends; ++b) {
      auto instance = scenario::Generate(*spec);
      ASSERT_TRUE(instance.ok());
      AuditServerOptions options;
      options.front.port = 0;
      options.num_shards = 2;
      options.service.budgets = {6.0};
      options.service.solver_options.ishm.step_size = 0.25;
      backends_.push_back(
          std::make_unique<AuditServer>(*std::move(instance), options));
      ASSERT_TRUE(backends_.back()->Start().ok());
      backend_threads_.emplace_back([server = backends_.back().get()] {
        util::Status run = server->Run();
        EXPECT_TRUE(run.ok()) << run;
      });
      router_options.backends.push_back(
          "127.0.0.1:" + std::to_string(backends_.back()->port()));
    }

    router_options.front.port = 0;
    // Tight retry cadence keeps the failover tests fast.
    router_options.channel.reconnect_backoff_min_ms = 10;
    router_options.channel.reconnect_backoff_max_ms = 100;
    router_ = std::make_unique<Router>(std::move(router_options));
    ASSERT_TRUE(router_->Start().ok());
    router_thread_ = std::thread([this] {
      util::Status run = router_->Run();
      EXPECT_TRUE(run.ok()) << run;
    });
  }

  void StopBackend(size_t b) {
    backends_[b]->RequestStop();
    if (backend_threads_[b].joinable()) backend_threads_[b].join();
  }

  void TearDown() override {
    if (router_ != nullptr) {
      router_->RequestStop();
      if (router_thread_.joinable()) router_thread_.join();
    }
    for (size_t b = 0; b < backends_.size(); ++b) StopBackend(b);
  }

  net::FrameClient Connect() {
    auto client =
        net::FrameClient::Connect("127.0.0.1", router_->port(), 5000);
    EXPECT_TRUE(client.ok()) << client.status();
    EXPECT_TRUE(client->SetReceiveTimeout(30000).ok());
    return std::move(client).value();
  }

  util::JsonValue Call(net::FrameClient& client, const std::string& payload) {
    auto response = client.Call(payload);
    EXPECT_TRUE(response.ok()) << response.status();
    if (!response.ok()) return util::JsonValue();
    auto doc = util::JsonValue::Parse(*response);
    EXPECT_TRUE(doc.ok()) << doc.status();
    return doc.ok() ? *std::move(doc) : util::JsonValue();
  }

  /// One binary round trip, decoded (status error when it failed).
  BinaryResponse BinaryCall(net::FrameClient& client,
                            const std::string& payload) {
    auto response = client.Call(payload);
    EXPECT_TRUE(response.ok()) << response.status();
    if (!response.ok()) return BinaryResponse();
    auto decoded = DecodeBinaryResponse(*response);
    EXPECT_TRUE(decoded.ok()) << decoded.status();
    return decoded.ok() ? *std::move(decoded) : BinaryResponse();
  }

  static std::string StatusOf(const util::JsonValue& doc) {
    auto status = doc.GetString("status");
    return status.ok() ? *status : "<missing>";
  }

  static int64_t IdOf(const util::JsonValue& doc) {
    auto id = doc.GetNumber("id");
    return id.ok() ? static_cast<int64_t>(*id) : -1;
  }

  std::vector<prob::CountDistribution> Baseline() {
    auto spec = scenario::SpecByName("uniform");
    EXPECT_TRUE(spec.ok());
    spec->num_types = 4;
    auto instance = scenario::Generate(*spec);
    EXPECT_TRUE(instance.ok());
    return instance->alert_distributions;
  }

  std::vector<std::unique_ptr<AuditServer>> backends_;
  std::vector<std::thread> backend_threads_;
  std::unique_ptr<Router> router_;
  std::thread router_thread_;
};

TEST_F(RouterTest, CorrelationIdsRoundTripThroughRemapping) {
  StartCluster(2);
  auto baseline = Baseline();
  auto client = Connect();

  // Client-side ids deliberately collide with nothing the router uses
  // internally (sub-ids are small and even/odd-coded); every response must
  // carry back exactly the id its request was sent with.
  for (int i = 0; i < 8; ++i) {
    const int64_t id = 900000 + 7 * i;
    const std::string tenant = TenantName(i);
    const BinaryResponse ingest =
        BinaryCall(client, EncodeBinaryIngestRequest(id, tenant, baseline));
    EXPECT_EQ(ingest.status, kBinaryStatusOk);
    EXPECT_EQ(ingest.correlation_id, id);
    const BinaryResponse solve =
        BinaryCall(client, EncodeBinarySolveCycleRequest(id + 1, tenant));
    EXPECT_EQ(solve.status, kBinaryStatusOk);
    EXPECT_EQ(solve.correlation_id, id + 1);
    EXPECT_EQ(solve.cycle, 1);
  }
}

TEST_F(RouterTest, ObservePolicyTravelsThroughTheRouter) {
  StartCluster(2);
  auto client = Connect();
  // The router forwards the client's frame with only its id patched, so
  // the observe flag reaches the backend and the detection section comes
  // back: one mixed detection probability per alert type.
  const BinaryResponse solve = BinaryCall(
      client, EncodeBinarySolveCycleRequest(5, "observer", true));
  ASSERT_EQ(solve.status, kBinaryStatusOk);
  EXPECT_EQ(solve.correlation_id, 5);
  ASSERT_EQ(solve.policies.size(), 1u);
  EXPECT_EQ(solve.policies[0].detection_probs.size(), Baseline().size());
}

/// A stand-in backend that records every binary frame the router sends it
/// and answers each with an empty ok solve_cycle (JSON pings get a stats
/// reply), so a test sees the exact bytes each backend was sent.
class RecordingBackend {
 public:
  RecordingBackend() {
    auto listener = net::ListenTcp("127.0.0.1", 0);
    EXPECT_TRUE(listener.ok()) << listener.status();
    if (!listener.ok()) return;
    listener_ = std::move(*listener);
    auto port = net::LocalPort(listener_);
    EXPECT_TRUE(port.ok()) << port.status();
    if (port.ok()) port_ = *port;
    thread_ = std::thread([this] { Serve(); });
  }
  ~RecordingBackend() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

  std::string address() const {
    return "127.0.0.1:" + std::to_string(port_);
  }
  std::vector<std::string> frames() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return frames_;
  }

 private:
  void Serve() {
    pollfd listening{listener_.fd(), POLLIN, 0};
    while (!stop_ && ::poll(&listening, 1, 20) <= 0) {
    }
    if (stop_) return;
    // The accepted socket is blocking; the receive timeout lets the loop
    // notice stop_.
    net::Socket conn(::accept(listener_.fd(), nullptr, nullptr));
    const timeval timeout{0, 20000};
    ::setsockopt(conn.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
    net::FrameDecoder decoder;
    char buffer[4096];
    std::string payload;
    while (!stop_) {
      const ssize_t n = ::recv(conn.fd(), buffer, sizeof(buffer), 0);
      if (n == 0) return;
      if (n < 0) continue;
      decoder.Append(buffer, static_cast<size_t>(n));
      for (auto next = decoder.Next(&payload); next.ok() && *next;
           next = decoder.Next(&payload)) {
        std::string reply = MakeStatsResponse(0, {});
        if (IsBinaryFrame(payload)) {
          std::lock_guard<std::mutex> lock(mutex_);
          frames_.push_back(payload);
          reply = EncodeBinarySolveCycleResponse(
              BinaryCorrelationIdOf(payload), 0, {});
        }
        const std::string frame = net::EncodeFrame(reply);
        ::send(conn.fd(), frame.data(), frame.size(), MSG_NOSIGNAL);
      }
    }
  }

  net::Socket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  mutable std::mutex mutex_;
  std::vector<std::string> frames_;
  std::thread thread_;
};

TEST_F(RouterTest, ReplicaIsNotAskedToObserveThePolicy) {
  RecordingBackend backends[2];
  RouterOptions options;
  options.front.port = 0;
  for (const RecordingBackend& backend : backends) {
    options.backends.push_back(backend.address());
  }
  router_ = std::make_unique<Router>(std::move(options));
  ASSERT_TRUE(router_->Start().ok());
  router_thread_ = std::thread([this] {
    util::Status run = router_->Run();
    EXPECT_TRUE(run.ok()) << run;
  });

  // The client is answered only once both backends have, so each has
  // recorded its frame by then.
  auto client = Connect();
  const BinaryResponse solve = BinaryCall(
      client, EncodeBinarySolveCycleRequest(5, "observer", true));
  ASSERT_EQ(solve.status, kBinaryStatusOk);
  EXPECT_EQ(solve.correlation_id, 5);

  int observing = 0;
  for (const RecordingBackend& backend : backends) {
    const std::vector<std::string> frames = backend.frames();
    ASSERT_EQ(frames.size(), 1u);
    auto request = DecodeBinaryRequest(frames[0]);
    ASSERT_TRUE(request.ok()) << request.status();
    EXPECT_EQ(request->verb, Verb::kSolveCycle);
    EXPECT_EQ(request->tenant, "observer");
    if (request->observe_policy) ++observing;
  }
  // Only the primary, whose response reaches the client, observes.
  EXPECT_EQ(observing, 1);
}

TEST_F(RouterTest, StatsAggregatesRouterAndBackendCounters) {
  StartCluster(2);
  auto client = Connect();
  util::JsonValue stats = Call(client, MakeStatsRequest(42));
  EXPECT_EQ(StatusOf(stats), "ok");
  EXPECT_EQ(IdOf(stats), 42);
  const util::JsonValue* router_section = stats.Find("router");
  ASSERT_NE(router_section, nullptr);
  auto live = router_section->GetNumber("live_backends");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(static_cast<int>(*live), 2);
}

TEST_F(RouterTest, RequestsToDeadClusterAnswerBackendDown) {
  // One backend that is never started: port 1 on loopback is never
  // listening, so the live ring stays empty.
  RouterOptions options;
  options.backend_connect_wait_ms = 200;
  options.backends.push_back("127.0.0.1:1");
  options.front.port = 0;
  router_ = std::make_unique<Router>(std::move(options));
  ASSERT_TRUE(router_->Start().ok());
  router_thread_ = std::thread([this] {
    util::Status run = router_->Run();
    EXPECT_TRUE(run.ok()) << run;
  });

  auto client = Connect();
  const BinaryResponse response =
      BinaryCall(client, EncodeBinarySolveCycleRequest(7, "tenant-0"));
  EXPECT_EQ(response.status, kBinaryStatusBackendDown);
  EXPECT_EQ(response.correlation_id, 7);
}

// Start() refuses each out-of-range option instead of clamping it, before
// it binds anything.
TEST(RouterStartTest, OutOfRangeOptionsAreRefused) {
  const std::pair<const char*, void (*)(RouterOptions&)> bad[] = {
      {"virtual_nodes", [](RouterOptions& o) { o.virtual_nodes = 0; }},
      {"replica_retries", [](RouterOptions& o) { o.replica_retries = -1; }},
      {"replica_retry_backoff_ms",
       [](RouterOptions& o) { o.replica_retry_backoff_ms = 0; }},
      {"ping_interval_ms", [](RouterOptions& o) { o.ping_interval_ms = -1; }},
      {"backend_connect_wait_ms",
       [](RouterOptions& o) { o.backend_connect_wait_ms = -1; }},
      {"window", [](RouterOptions& o) { o.channel.window = 0; }},
      {"queue_capacity",
       [](RouterOptions& o) { o.channel.queue_capacity = 0; }},
      {"response_timeout_ms",
       [](RouterOptions& o) { o.channel.response_timeout_ms = 0; }},
      {"reconnect_backoff_min_ms",
       [](RouterOptions& o) { o.channel.reconnect_backoff_min_ms = 0; }},
      {"reconnect_backoff_max_ms",
       [](RouterOptions& o) {
         o.channel.reconnect_backoff_min_ms = 100;
         o.channel.reconnect_backoff_max_ms = 50;
       }},
  };
  for (const auto& [name, set] : bad) {
    RouterOptions options;
    options.front.port = 0;
    options.backends = {"127.0.0.1:1"};
    set(options);
    Router router(std::move(options));
    EXPECT_EQ(router.Start().code(), util::StatusCode::kInvalidArgument)
        << name;
  }
}

TEST_F(RouterTest, FailoverServesTenantsWarmFromTheSuccessor) {
  StartCluster(2);
  auto baseline = Baseline();
  auto client = Connect();

  // A tenant owned by backend 0 (so stopping 0 forces its failover) whose
  // mirror therefore lives on backend 1.
  std::string tenant;
  for (int i = 0; i < 64; ++i) {
    if (router_->PrimaryBackendFor(TenantName(i)) == 0) {
      tenant = TenantName(i);
      break;
    }
  }
  ASSERT_FALSE(tenant.empty()) << "no tenant hashed to backend 0";
  EXPECT_EQ(router_->SuccessorBackendFor(tenant), 1);

  int64_t id = 1000;
  int64_t last_cycle = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    const BinaryResponse ingest =
        BinaryCall(client, EncodeBinaryIngestRequest(++id, tenant, baseline));
    ASSERT_EQ(ingest.status, kBinaryStatusOk);
    const BinaryResponse solve =
        BinaryCall(client, EncodeBinarySolveCycleRequest(++id, tenant));
    ASSERT_EQ(solve.status, kBinaryStatusOk);
    EXPECT_GT(solve.cycle, last_cycle);
    last_cycle = solve.cycle;
  }

  StopBackend(0);

  // The channel notices the close within its poll granularity; retry
  // through the backend_down window until the survivor answers.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool served = false;
  while (std::chrono::steady_clock::now() < deadline) {
    const BinaryResponse solve =
        BinaryCall(client, EncodeBinarySolveCycleRequest(++id, tenant));
    if (solve.status == kBinaryStatusBackendDown ||
        solve.status == kBinaryStatusOverloaded) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    ASSERT_EQ(solve.status, kBinaryStatusOk);
    // The mirrored state answers: the cycle count survives the failover
    // (a cold survivor would restart at 1 and violate the order
    // contract)...
    EXPECT_GE(solve.cycle, last_cycle);
    // ...and the policy is served from cache or a warm solve, not cold.
    ASSERT_FALSE(solve.policies.empty());
    for (const BinaryPolicy& policy : solve.policies) {
      EXPECT_NE(policy.source, service::AuditService::Source::kColdSolve);
    }
    served = true;
    break;
  }
  EXPECT_TRUE(served) << "survivor never answered the failed-over tenant";

  // The router observed exactly one failover and saw warm traffic.
  util::JsonValue::Object report = router_->ReportBody();
  EXPECT_EQ(report.count("failovers"), 1u);
}

}  // namespace
}  // namespace auditgame::server
