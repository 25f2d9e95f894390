// Tests for the cluster layer: HashRing placement properties (the
// determinism, spread and minimal-movement guarantees failover relies
// on) and end-to-end Router behavior over real loopback sockets — two
// in-process AuditServer backends behind one Router, correlation-id
// remapping, `backend_down` semantics, and the warm-failover path: a
// stopped backend's tenants re-route to their ring successor and are
// served from the mirrored (warm) state, with cycle numbers that keep
// increasing across the switch.
#include "server/router.h"

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "scenario/generator.h"
#include "server/audit_server.h"
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
    util::JsonValue ingest =
        Call(client, MakeIngestRequest(id, tenant, baseline));
    EXPECT_EQ(StatusOf(ingest), "ok");
    EXPECT_EQ(IdOf(ingest), id);
    util::JsonValue solve =
        Call(client, MakeSolveCycleRequest(id + 1, tenant));
    EXPECT_EQ(StatusOf(solve), "ok");
    EXPECT_EQ(IdOf(solve), id + 1);
    auto cycle = solve.GetNumber("cycle");
    ASSERT_TRUE(cycle.ok());
    EXPECT_EQ(static_cast<int64_t>(*cycle), 1);
  }
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
  util::JsonValue response =
      Call(client, MakeSolveCycleRequest(7, "tenant-0"));
  EXPECT_EQ(StatusOf(response), "backend_down");
  EXPECT_EQ(IdOf(response), 7);
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
    util::JsonValue ingest =
        Call(client, MakeIngestRequest(++id, tenant, baseline));
    ASSERT_EQ(StatusOf(ingest), "ok");
    util::JsonValue solve = Call(client, MakeSolveCycleRequest(++id, tenant));
    ASSERT_EQ(StatusOf(solve), "ok");
    auto cycle_number = solve.GetNumber("cycle");
    ASSERT_TRUE(cycle_number.ok());
    EXPECT_GT(static_cast<int64_t>(*cycle_number), last_cycle);
    last_cycle = static_cast<int64_t>(*cycle_number);
  }

  StopBackend(0);

  // The channel notices the close within its poll granularity; retry
  // through the backend_down window until the survivor answers.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool served = false;
  while (std::chrono::steady_clock::now() < deadline) {
    util::JsonValue solve = Call(client, MakeSolveCycleRequest(++id, tenant));
    const std::string status = StatusOf(solve);
    if (status == "backend_down" || status == "overloaded") {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    ASSERT_EQ(status, "ok");
    auto cycle_number = solve.GetNumber("cycle");
    ASSERT_TRUE(cycle_number.ok());
    // The mirrored state answers: the cycle count survives the failover
    // (a cold survivor would restart at 1 and violate the order
    // contract)...
    EXPECT_GE(static_cast<int64_t>(*cycle_number), last_cycle);
    // ...and the policy is served from cache or a warm solve, not cold.
    const util::JsonValue* policies = solve.Find("policies");
    ASSERT_NE(policies, nullptr);
    ASSERT_TRUE(policies->is_array());
    ASSERT_FALSE(policies->as_array().empty());
    for (const util::JsonValue& policy : policies->as_array()) {
      auto source = policy.GetString("source");
      ASSERT_TRUE(source.ok());
      EXPECT_NE(*source, "cold_solve");
      EXPECT_NE(*source, "cold");
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
