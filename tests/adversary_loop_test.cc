// Closed-loop tests for the adversary subsystem (adversary/loop.h): the
// in-process Stackelberg loop tracks a best-responding attacker within the
// exact-solver floor, the remote loop (FrameClient against a live
// audit_server) agrees with the in-process loop on the same instance and
// attacker, and the observe_policy protocol extension only ships detection
// probabilities when asked.
#include "adversary/loop.h"

#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adversary/attacker.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "scenario/generator.h"
#include "server/audit_server.h"
#include "server/protocol.h"
#include "util/json.h"

namespace auditgame::adversary {
namespace {

core::GameInstance MakeInstance() {
  auto spec = scenario::SpecByName("uniform");
  EXPECT_TRUE(spec.ok());
  spec->num_types = 4;
  auto instance = scenario::Generate(*spec);
  EXPECT_TRUE(instance.ok());
  return std::move(*instance);
}

DefenderConfig MakeConfig() {
  DefenderConfig config;
  config.budget = 6.0;
  config.solver_options.ishm.step_size = 0.25;
  config.warm_start_max_drift = 0.25;
  return config;
}

std::unique_ptr<Attacker> MakeBestResponder(
    const core::GameInstance& instance) {
  auto economics = DeriveEconomics(instance);
  EXPECT_TRUE(economics.ok());
  AttackerSpec spec;
  spec.kind = AttackerKind::kBestResponse;
  spec.attack_rate = 0.6;
  auto attacker = MakeAttacker(spec, instance.alert_distributions,
                               *std::move(economics));
  EXPECT_TRUE(attacker.ok()) << attacker.status();
  return std::move(*attacker);
}

util::StatusOr<LoopReport> RunInProcessLoop(const core::GameInstance& instance,
                                            int cycles) {
  const DefenderConfig config = MakeConfig();
  auto attacker = MakeBestResponder(instance);
  InProcessDefender defender(instance, config);
  auto loop = AdversaryLoop::Create(instance, config, &defender,
                                    attacker.get());
  if (!loop.ok()) return loop.status();
  LoopSpec spec;
  spec.cycles = cycles;
  return loop->Run(spec);
}

TEST(AdversaryLoopTest, InProcessLoopStaysAtTheExactSolverFloor) {
  const core::GameInstance instance = MakeInstance();
  auto report = RunInProcessLoop(instance, 8);
  ASSERT_TRUE(report.ok()) << report.status();

  ASSERT_EQ(report->cycles.size(), 8u);
  EXPECT_EQ(report->cache_hits + report->warm_solves + report->cold_solves, 8);
  EXPECT_GE(report->cold_solves, 1);  // cycle 1 always solves from scratch

  // The in-process defender re-solves exactly whenever the drift gate
  // trips and serves exact cached solutions otherwise, so the served policy
  // is optimal for its cycle's distributions: regret and exploitability sit
  // at the oracle floor, and the within-2x tracking gate holds trivially.
  EXPECT_LE(report->regret_gap_max, 1e-9);
  EXPECT_LE(report->exploitability_gap_max, 1e-9);
  EXPECT_TRUE(report->tracking_within_2x);
  EXPECT_EQ(report->tracking_lag_max_cycles, 0);

  for (const CycleMetrics& m : report->cycles) {
    EXPECT_TRUE(m.source == "cache" || m.source == "warm" ||
                m.source == "cold")
        << m.source;
    EXPECT_GE(m.best_attack_utility, 0.0);  // clamped at "refrain"
  }
}

TEST(AdversaryLoopTest, RejectsMissingPieces) {
  const core::GameInstance instance = MakeInstance();
  const DefenderConfig config = MakeConfig();
  auto attacker = MakeBestResponder(instance);
  InProcessDefender defender(instance, config);
  EXPECT_FALSE(
      AdversaryLoop::Create(instance, config, nullptr, attacker.get()).ok());
  EXPECT_FALSE(
      AdversaryLoop::Create(instance, config, &defender, nullptr).ok());

  auto loop =
      AdversaryLoop::Create(instance, config, &defender, attacker.get());
  ASSERT_TRUE(loop.ok());
  LoopSpec spec;
  spec.cycles = 0;
  EXPECT_FALSE(loop->Run(spec).ok());
}

class RemoteLoopTest : public ::testing::Test {
 protected:
  void StartServer(core::GameInstance instance) {
    server::AuditServerOptions options;
    options.front.port = 0;  // ephemeral
    options.service.budgets = {6.0};
    options.service.solver_options.ishm.step_size = 0.25;
    options.service.num_threads = 1;
    server_ = std::make_unique<server::AuditServer>(std::move(instance),
                                                    options);
    ASSERT_TRUE(server_->Start().ok());
    thread_ = std::thread([this] {
      util::Status run = server_->Run();
      EXPECT_TRUE(run.ok()) << run;
    });
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->RequestStop();
      if (thread_.joinable()) thread_.join();
    }
  }

  net::FrameClient Connect() {
    auto client =
        net::FrameClient::Connect("127.0.0.1", server_->port(), 5000);
    EXPECT_TRUE(client.ok()) << client.status();
    EXPECT_TRUE(client->SetReceiveTimeout(30000).ok());
    return std::move(client).value();
  }

  std::unique_ptr<server::AuditServer> server_;
  std::thread thread_;
};

TEST_F(RemoteLoopTest, RemoteLoopAgreesWithInProcess) {
  const core::GameInstance instance = MakeInstance();
  StartServer(instance);

  const int kCycles = 6;
  auto local = RunInProcessLoop(instance, kCycles);
  ASSERT_TRUE(local.ok()) << local.status();

  auto client = Connect();
  const DefenderConfig config = MakeConfig();
  auto attacker = MakeBestResponder(instance);
  RemoteDefender defender(&client, "loop-tenant");
  auto loop =
      AdversaryLoop::Create(instance, config, &defender, attacker.get());
  ASSERT_TRUE(loop.ok()) << loop.status();
  LoopSpec spec;
  spec.cycles = kCycles;
  auto remote = loop->Run(spec);
  ASSERT_TRUE(remote.ok()) << remote.status();

  // The server holds a JSON-roundtripped copy of the ingested pmfs, so the
  // two runs agree to ULP-level noise (~1e-15), not bit for bit; 1e-6 is
  // the documented loop contract. The cache/warm/cold source sequence,
  // being drift-gated on the same thresholds, matches exactly.
  ASSERT_EQ(remote->cycles.size(), local->cycles.size());
  for (size_t i = 0; i < remote->cycles.size(); ++i) {
    const CycleMetrics& r = remote->cycles[i];
    const CycleMetrics& l = local->cycles[i];
    EXPECT_EQ(r.source, l.source) << "cycle " << i + 1;
    EXPECT_NEAR(r.served_loss, l.served_loss, 1e-6) << "cycle " << i + 1;
    EXPECT_NEAR(r.best_attack_utility, l.best_attack_utility, 1e-6)
        << "cycle " << i + 1;
  }
  EXPECT_NEAR(remote->served_loss_mean, local->served_loss_mean, 1e-6);
  EXPECT_NEAR(remote->oracle_loss_mean, local->oracle_loss_mean, 1e-6);
  EXPECT_LE(remote->exploitability_gap_max, 1e-6);
  EXPECT_TRUE(remote->tracking_within_2x);
}

TEST_F(RemoteLoopTest, DetectionProbsShipOnlyWhenObserved) {
  StartServer(MakeInstance());
  auto client = Connect();

  auto Call = [&](const std::string& payload) {
    auto response = client.Call(payload);
    EXPECT_TRUE(response.ok()) << response.status();
    auto doc = util::JsonValue::Parse(*response);
    EXPECT_TRUE(doc.ok()) << doc.status();
    return *std::move(doc);
  };

  // Plain solve: no detection payload (the wire stays slim by default).
  util::JsonValue doc = Call(server::MakeSolveCycleRequest(1, "acme"));
  const util::JsonValue* policies = doc.Find("policies");
  ASSERT_NE(policies, nullptr);
  ASSERT_TRUE(policies->is_array());
  ASSERT_EQ(policies->as_array().size(), 1u);
  EXPECT_EQ(policies->as_array()[0].Find("detection_probs"), nullptr);

  // observe_policy: the per-type mixed detection vector rides along.
  doc = Call(server::MakeSolveCycleRequest(2, "acme",
                                           /*observe_policy=*/true));
  auto reply = server::ParseSolveCycleReply(doc);
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply->policies.size(), 1u);
  const std::vector<double>& pal = reply->policies[0].detection_probs;
  ASSERT_EQ(pal.size(), 4u);
  for (double p : pal) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

}  // namespace
}  // namespace auditgame::adversary
