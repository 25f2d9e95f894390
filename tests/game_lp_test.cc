#include "core/game_lp.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/master_lp.h"
#include "tests/test_util.h"

namespace auditgame::core {
namespace {

using testutil::MakeMediumGame;
using testutil::MakeTinyGame;

TEST(GameLpTest, SingleOrderingIsPureStrategy) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  ASSERT_TRUE(detection->SetThresholds({2.0, 2.0}).ok());
  const auto solution =
      SolveRestrictedGameLp(*compiled, *detection, {{0, 1}});
  ASSERT_TRUE(solution.ok());
  EXPECT_NEAR(solution->ordering_probs[0], 1.0, 1e-9);
  // Matches the hand-computed best response of policy_test: loss 1.
  EXPECT_NEAR(solution->objective, 1.0, 1e-9);
}

TEST(GameLpTest, TwoOrderingsAllowMixing) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  ASSERT_TRUE(detection->SetThresholds({2.0, 2.0}).ok());
  const auto solution =
      SolveRestrictedGameLp(*compiled, *detection, {{0, 1}, {1, 0}});
  ASSERT_TRUE(solution.ok());
  // With opt-out the auditor can deter completely (see policy_test).
  EXPECT_NEAR(solution->objective, 0.0, 1e-9);
  EXPECT_NEAR(solution->ordering_probs[0] + solution->ordering_probs[1], 1.0,
              1e-9);
}

TEST(GameLpTest, ObjectiveNeverWorseWithMoreColumns) {
  const GameInstance instance = MakeMediumGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 5.0);
  ASSERT_TRUE(detection.ok());
  ASSERT_TRUE(detection->SetThresholds({3.0, 3.0, 3.0}).ok());
  const auto restricted =
      SolveRestrictedGameLp(*compiled, *detection, {{0, 1, 2}});
  const auto wider = SolveRestrictedGameLp(
      *compiled, *detection, {{0, 1, 2}, {2, 1, 0}, {1, 2, 0}});
  ASSERT_TRUE(restricted.ok());
  ASSERT_TRUE(wider.ok());
  EXPECT_LE(wider->objective, restricted->objective + 1e-9);
}

TEST(GameLpTest, DualsHaveExpectedStructure) {
  const GameInstance instance = MakeTinyGame(/*can_opt_out=*/false);
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  ASSERT_TRUE(detection->SetThresholds({2.0, 2.0}).ok());
  const auto solution =
      SolveRestrictedGameLp(*compiled, *detection, {{0, 1}, {1, 0}});
  ASSERT_TRUE(solution.ok());
  // The victim-row duals are the adversary's mixed best response: they are
  // non-negative and, per group, sum to the group weight.
  double dual_total = 0.0;
  for (double y : solution->victim_duals[0]) {
    EXPECT_GE(y, -1e-9);
    dual_total += y;
  }
  EXPECT_NEAR(dual_total, compiled->groups[0].weight, 1e-6);
}

TEST(GameLpTest, EmptyOrderingSetRejected) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  ASSERT_TRUE(detection->SetThresholds({2.0, 2.0}).ok());
  EXPECT_FALSE(SolveRestrictedGameLp(*compiled, *detection, {}).ok());
}

TEST(FullLpTest, MatchesManualMixOnTinyGame) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  const auto full = SolveFullGameLp(*compiled, *detection, {2.0, 2.0});
  ASSERT_TRUE(full.ok());
  EXPECT_NEAR(full->objective, 0.0, 1e-9);
  EXPECT_TRUE(full->policy.Validate(2).ok());
}

// The incremental master, growing one column per Solve(), must track the
// one-shot wrapper exactly: same objectives, same duals, and warm-started
// re-solves that skip phase 1 after the first.
TEST(RestrictedMasterLpTest, IncrementalMatchesOneShotAtEveryPrefix) {
  const GameInstance instance = MakeMediumGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 5.0);
  ASSERT_TRUE(detection.ok());
  ASSERT_TRUE(detection->SetThresholds({3.0, 3.0, 3.0}).ok());

  const std::vector<std::vector<int>> orderings = {
      {0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {0, 2, 1}, {2, 0, 1}, {1, 2, 0}};
  RestrictedMasterLp master(*compiled, *detection);
  std::vector<std::vector<int>> prefix;
  for (const auto& ordering : orderings) {
    ASSERT_TRUE(master.AddOrdering(ordering).ok());
    prefix.push_back(ordering);
    const auto incremental = master.Solve();
    const auto one_shot = SolveRestrictedGameLp(*compiled, *detection, prefix);
    ASSERT_TRUE(incremental.ok());
    ASSERT_TRUE(one_shot.ok());
    EXPECT_NEAR(incremental->objective, one_shot->objective, 1e-8)
        << "after " << prefix.size() << " columns";
    EXPECT_NEAR(incremental->convexity_dual, one_shot->convexity_dual, 1e-6)
        << "after " << prefix.size() << " columns";
    double total = 0.0;
    for (double p : incremental->ordering_probs) total += p;
    EXPECT_NEAR(total, 1.0, 1e-8);
  }
  EXPECT_EQ(master.stats().solves, static_cast<int>(orderings.size()));
  // Every re-solve after the first resumed from the previous basis.
  EXPECT_EQ(master.stats().warm_solves,
            static_cast<int>(orderings.size()) - 1);
}

// Re-pricing across a threshold change: a master solved at b1 is moved to
// b2 in place (SetThresholds + Reprice) and re-solved from its old basis.
// It must land on the objective of a master built fresh at b2, whichever
// way the old basis fares under the new coefficients.
class RepriceTest : public ::testing::Test {
 protected:
  const std::vector<std::vector<int>> orderings_ = {
      {0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {0, 2, 1}, {2, 0, 1}, {1, 2, 0}};
  const std::vector<double> b1_ = {3.0, 3.0, 3.0};

  void SetUp() override {
    instance_ = MakeMediumGame();
    auto compiled = Compile(instance_);
    ASSERT_TRUE(compiled.ok());
    compiled_ = *std::move(compiled);
    auto detection = DetectionModel::Create(instance_, 5.0);
    ASSERT_TRUE(detection.ok());
    detection_.emplace(*std::move(detection));
    ASSERT_TRUE(detection_->SetThresholds(b1_).ok());
    master_.emplace(compiled_, *detection_);
    for (const auto& ordering : orderings_) {
      ASSERT_TRUE(master_->AddOrdering(ordering).ok());
    }
    const auto at_b1 = master_->Solve();
    ASSERT_TRUE(at_b1.ok());
    b1_solution_ = *at_b1;
  }

  // Moves the master to `b2`, re-solves it, and checks the objective
  // against a fresh master; returns the master's stats from before the
  // re-solve.
  RestrictedMasterLp::Stats RepriceAndCheck(const std::vector<double>& b2) {
    EXPECT_TRUE(detection_->SetThresholds(b2).ok());
    EXPECT_TRUE(master_->Reprice().ok());
    const RestrictedMasterLp::Stats before = master_->stats();
    const auto repriced = master_->Solve();
    const auto fresh =
        SolveRestrictedGameLp(compiled_, *detection_, orderings_);
    EXPECT_TRUE(repriced.ok());
    EXPECT_TRUE(fresh.ok());
    if (repriced.ok() && fresh.ok()) {
      EXPECT_NEAR(repriced->objective, fresh->objective, 1e-9);
    }
    EXPECT_EQ(master_->stats().solves, before.solves + 1);
    return before;
  }

  GameInstance instance_;
  CompiledGame compiled_;
  std::optional<DetectionModel> detection_;
  std::optional<RestrictedMasterLp> master_;
  RestrictedLpSolution b1_solution_;
};

TEST_F(RepriceTest, FeasibleBasisResumesWithoutPhaseOne) {
  const RestrictedMasterLp::Stats before = RepriceAndCheck({3.0, 2.0, 3.0});
  EXPECT_EQ(master_->stats().warm_solves, before.warm_solves + 1);
}

TEST_F(RepriceTest, PrimalInfeasibleBasisIsRepaired) {
  const RestrictedMasterLp::Stats before = RepriceAndCheck({2.0, 2.0, 2.0});
  EXPECT_EQ(master_->stats().warm_solves, before.warm_solves);
  EXPECT_EQ(master_->stats().repaired_solves, before.repaired_solves + 1);
}

TEST_F(RepriceTest, SingularBasisFallsBackToColdStart) {
  // With every threshold at zero nothing is ever audited, so all columns
  // become identical, and a basis holding two of them is singular.
  int mixed = 0;
  for (double p : b1_solution_.ordering_probs) mixed += p > 1e-9 ? 1 : 0;
  ASSERT_GE(mixed, 2) << "the b1 optimum must mix orderings";
  const RestrictedMasterLp::Stats before = RepriceAndCheck({0.0, 0.0, 0.0});
  EXPECT_EQ(master_->stats().warm_solves, before.warm_solves);
  EXPECT_EQ(master_->stats().repaired_solves, before.repaired_solves);
}

TEST(RestrictedMasterLpTest, SolveWithoutColumnsIsRejected) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  ASSERT_TRUE(detection->SetThresholds({2.0, 2.0}).ok());
  RestrictedMasterLp master(*compiled, *detection);
  EXPECT_FALSE(master.Solve().ok());
}

TEST(FullLpTest, PolicyEvaluationAgreesWithLpObjective) {
  const GameInstance instance = MakeMediumGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 4.0);
  ASSERT_TRUE(detection.ok());
  const auto full = SolveFullGameLp(*compiled, *detection, {3.0, 3.0, 4.0});
  ASSERT_TRUE(full.ok());
  const auto eval = EvaluatePolicy(*compiled, *detection, full->policy);
  ASSERT_TRUE(eval.ok());
  EXPECT_NEAR(eval->auditor_loss, full->objective, 1e-6);
}

}  // namespace
}  // namespace auditgame::core
