#include "core/cggs.h"

#include <gtest/gtest.h>

#include "core/game_lp.h"
#include "data/syn_a.h"
#include "tests/test_util.h"

namespace auditgame::core {
namespace {

using testutil::MakeMediumGame;
using testutil::MakeTinyGame;

TEST(CggsTest, FindsTheMixOnTinyGame) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  const auto result = SolveCggs(*compiled, *detection, {2.0, 2.0});
  ASSERT_TRUE(result.ok());
  // Full LP optimum is 0 (complete deterrence); CGGS must reach it since
  // the other ordering has negative reduced cost.
  EXPECT_NEAR(result->objective, 0.0, 1e-9);
  EXPECT_GE(result->columns_generated, 1);
}

TEST(CggsTest, InvalidWarmStartOrderingsAreDroppedNotSolved) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  CggsOptions options;
  // A stale cached policy: wrong length, out-of-range type, a duplicate
  // type, plus one valid seed and its duplicate.
  options.initial_orderings = {{0}, {0, 5}, {1, 1}, {1, 0}, {1, 0}};
  const auto result = SolveCggs(*compiled, *detection, {2.0, 2.0}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->objective, 0.0, 1e-9);
  for (const auto& column : result->columns) {
    ASSERT_EQ(column.size(), 2u);
    EXPECT_NE(column[0], column[1]);
  }
}

TEST(CggsTest, AllInvalidWarmStartsFallBackToIdentity) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  CggsOptions options;
  options.initial_orderings = {{7, 8}, {0}};
  const auto result = SolveCggs(*compiled, *detection, {2.0, 2.0}, options);
  ASSERT_TRUE(result.ok());
  const auto cold = SolveCggs(*compiled, *detection, {2.0, 2.0});
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(result->objective, cold->objective);
}

TEST(CggsTest, NeverWorseThanInitialColumn) {
  const GameInstance instance = MakeMediumGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 5.0);
  ASSERT_TRUE(detection.ok());
  ASSERT_TRUE(detection->SetThresholds({3.0, 3.0, 3.0}).ok());
  const auto single =
      SolveRestrictedGameLp(*compiled, *detection, {{0, 1, 2}});
  ASSERT_TRUE(single.ok());
  const auto cggs = SolveCggs(*compiled, *detection, {3.0, 3.0, 3.0});
  ASSERT_TRUE(cggs.ok());
  EXPECT_LE(cggs->objective, single->objective + 1e-9);
}

TEST(CggsTest, MatchesFullLpOnSynA) {
  // On the controlled instance, CGGS should get within a small gap of the
  // exact LP over all 24 orderings (the paper's Table IV vs Table V).
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  for (double budget : {4.0, 10.0}) {
    auto detection = DetectionModel::Create(*instance, budget);
    ASSERT_TRUE(detection.ok());
    const std::vector<double> thresholds = {3.0, 3.0, 2.0, 2.0};
    const auto full = SolveFullGameLp(*compiled, *detection, thresholds);
    const auto cggs = SolveCggs(*compiled, *detection, thresholds);
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(cggs.ok());
    EXPECT_LE(cggs->objective - full->objective, 0.05)
        << "budget " << budget;
    EXPECT_GE(cggs->objective - full->objective, -1e-6) << "budget " << budget;
  }
}

TEST(CggsTest, WarmStartColumnsAreUsed) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  CggsOptions options;
  options.initial_orderings = {{0, 1}, {1, 0}};
  const auto result = SolveCggs(*compiled, *detection, {2.0, 2.0}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->objective, 0.0, 1e-9);
  // Optimal from the warm start: no columns needed to be generated.
  EXPECT_EQ(result->columns_generated, 0);
  EXPECT_EQ(result->lp_solves, 1);
}

TEST(CggsTest, WarmMasterMatchesColdSolveOfItsColumnsOnSynA) {
  // The master re-solves warm from the previous basis after every appended
  // column. A cold one-shot solve over the final column set must land on
  // the same objective, and every re-solve after the first must have been
  // warm.
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  for (double budget : {4.0, 10.0}) {
    auto detection = DetectionModel::Create(*instance, budget);
    ASSERT_TRUE(detection.ok());
    const std::vector<double> thresholds = {3.0, 3.0, 2.0, 2.0};
    const auto warm = SolveCggs(*compiled, *detection, thresholds);
    ASSERT_TRUE(warm.ok());
    const auto cold =
        SolveRestrictedGameLp(*compiled, *detection, warm->columns);
    ASSERT_TRUE(cold.ok());
    EXPECT_NEAR(warm->objective, cold->objective, 1e-9)
        << "budget " << budget;
    EXPECT_EQ(warm->warm_lp_solves, warm->lp_solves - 1);
    EXPECT_TRUE(warm->policy.Validate(4).ok());
  }
}

TEST(CggsTest, PolicyIsValidDistribution) {
  const GameInstance instance = MakeMediumGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 6.0);
  ASSERT_TRUE(detection.ok());
  const auto result = SolveCggs(*compiled, *detection, {4.0, 4.0, 4.0});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->policy.Validate(3).ok());
  // Evaluating the policy reproduces the LP objective.
  const auto eval = EvaluatePolicy(*compiled, *detection, result->policy);
  ASSERT_TRUE(eval.ok());
  EXPECT_NEAR(eval->auditor_loss, result->objective, 1e-6);
}

TEST(CggsTest, MaxColumnsCapRespected) {
  const GameInstance instance = MakeMediumGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 5.0);
  ASSERT_TRUE(detection.ok());
  CggsOptions options;
  options.max_columns = 2;
  const auto result = SolveCggs(*compiled, *detection, {3.0, 3.0, 3.0}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->columns.size(), 2u);
}

}  // namespace
}  // namespace auditgame::core
