#include "core/ishm.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/game_lp.h"
#include "data/syn_a.h"
#include "tests/test_util.h"

namespace auditgame::core {
namespace {

using testutil::MakeTinyGame;

TEST(IshmTest, RejectsBadStepSize) {
  const GameInstance instance = MakeTinyGame();
  auto evaluator = [](const std::vector<double>&)
      -> util::StatusOr<ThresholdEvaluation> {
    return ThresholdEvaluation{};
  };
  IshmOptions options;
  options.step_size = 0.0;
  EXPECT_FALSE(SolveIshm(instance, evaluator, options).ok());
  options.step_size = 1.0;
  EXPECT_FALSE(SolveIshm(instance, evaluator, options).ok());
  // NaN slips through naive range comparisons and would spin the sweep
  // forever.
  options.step_size = std::nan("");
  EXPECT_FALSE(SolveIshm(instance, evaluator, options).ok());
}

TEST(IshmTest, FindsOptimumOnTinyGame) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  IshmOptions options;
  options.step_size = 0.25;
  const auto result = SolveIshm(
      instance, MakeFullLpEvaluator(*compiled, *detection), options);
  ASSERT_TRUE(result.ok());
  // Full deterrence is achievable (policy_test): optimal loss 0.
  EXPECT_NEAR(result->objective, 0.0, 1e-9);
  EXPECT_GT(result->stats.evaluations, 0);
  EXPECT_GE(result->stats.evaluations, result->stats.distinct_evaluations);
}

TEST(IshmTest, TracksAgainstBruteForceOnSynA) {
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  for (double budget : {6.0, 12.0}) {
    const auto brute = SolveBruteForce(*instance, budget);
    ASSERT_TRUE(brute.ok());
    auto detection = DetectionModel::Create(*instance, budget);
    ASSERT_TRUE(detection.ok());
    IshmOptions options;
    options.step_size = 0.1;
    const auto ishm = SolveIshm(
        *instance, MakeFullLpEvaluator(*compiled, *detection), options);
    ASSERT_TRUE(ishm.ok());
    // ISHM can only be worse than the optimum, and per Table VI should be
    // within ~1% at eps = 0.1.
    EXPECT_GE(ishm->objective, brute->objective - 1e-9);
    EXPECT_LE(std::fabs(ishm->objective - brute->objective),
              0.01 * std::fabs(brute->objective) + 1e-6)
        << "budget " << budget;
  }
}

TEST(IshmTest, SmallerEpsNeverFewerEvaluations) {
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(*instance, 8.0);
  ASSERT_TRUE(detection.ok());
  int64_t previous = 0;
  for (double eps : {0.5, 0.25, 0.1}) {
    IshmOptions options;
    options.step_size = eps;
    const auto result = SolveIshm(
        *instance, MakeFullLpEvaluator(*compiled, *detection), options);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->stats.evaluations, previous);
    previous = result->stats.evaluations;
  }
}

TEST(IshmTest, EffectiveThresholdsAreWholeAudits) {
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(*instance, 10.0);
  ASSERT_TRUE(detection.ok());
  IshmOptions options;
  options.step_size = 0.15;
  const auto result = SolveIshm(
      *instance, MakeFullLpEvaluator(*compiled, *detection), options);
  ASSERT_TRUE(result.ok());
  for (int t = 0; t < instance->num_types(); ++t) {
    const double audits = result->effective_thresholds[static_cast<size_t>(t)] /
                          instance->audit_costs[static_cast<size_t>(t)];
    EXPECT_NEAR(audits, std::round(audits), 1e-9);
  }
}

TEST(IshmTest, CachedEvaluationsAreNotRecomputed) {
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(*instance, 8.0);
  ASSERT_TRUE(detection.ok());
  int calls = 0;
  auto counting_evaluator =
      [&](const std::vector<double>& thresholds)
      -> util::StatusOr<ThresholdEvaluation> {
    ++calls;
    return MakeFullLpEvaluator(*compiled, *detection)(thresholds);
  };
  IshmOptions options;
  options.step_size = 0.2;
  const auto result = SolveIshm(*instance, counting_evaluator, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(calls, result->stats.distinct_evaluations);
  EXPECT_LT(result->stats.distinct_evaluations, result->stats.evaluations);
}

TEST(IshmTest, WarmStartRejectsWrongSizeSeed) {
  const GameInstance instance = MakeTinyGame();
  auto evaluator = [](const std::vector<double>&)
      -> util::StatusOr<ThresholdEvaluation> {
    return ThresholdEvaluation{};
  };
  IshmOptions options;
  options.initial_thresholds = {1.0};  // instance has 2 types
  EXPECT_FALSE(SolveIshm(instance, evaluator, options).ok());
}

TEST(IshmTest, WarmStartFromOptimumMatchesColdResult) {
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(*instance, 10.0);
  ASSERT_TRUE(detection.ok());
  IshmOptions options;
  options.step_size = 0.2;
  const auto cold = SolveIshm(
      *instance, MakeFullLpEvaluator(*compiled, *detection), options);
  ASSERT_TRUE(cold.ok());

  // Re-solving the same instance seeded at the cold optimum with local
  // (single-type) repair must find nothing better, return the same
  // objective, and do far less work.
  IshmOptions warm_options = options;
  warm_options.initial_thresholds = cold->effective_thresholds;
  warm_options.max_subset_size = 1;
  const auto warm = SolveIshm(
      *instance, MakeFullLpEvaluator(*compiled, *detection), warm_options);
  ASSERT_TRUE(warm.ok());
  EXPECT_NEAR(warm->objective, cold->objective, 1e-9);
  EXPECT_LT(warm->stats.evaluations, cold->stats.evaluations);
}

TEST(IshmTest, WarmSeedIsEvaluatedBeforeAnyShrink) {
  const GameInstance instance = MakeTinyGame();
  std::vector<std::vector<double>> probes;
  auto recording_evaluator =
      [&probes](const std::vector<double>& thresholds)
      -> util::StatusOr<ThresholdEvaluation> {
    probes.push_back(thresholds);
    ThresholdEvaluation eval;
    eval.objective = 1.0;  // flat landscape: nothing ever improves
    return eval;
  };
  IshmOptions options;
  options.step_size = 0.5;
  options.initial_thresholds = {1.0, 2.0};
  const auto result = SolveIshm(instance, recording_evaluator, options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(probes.empty());
  EXPECT_EQ(probes.front(), (std::vector<double>{1.0, 2.0}));
  // On a flat landscape the seed itself must be the reported optimum.
  EXPECT_EQ(result->objective, 1.0);
  EXPECT_EQ(result->effective_thresholds, (std::vector<double>{1.0, 2.0}));
}

TEST(IshmTest, WarmSeedIsClampedToUpperBounds) {
  const GameInstance instance = MakeTinyGame();  // upper bounds C_t * 2 = 2
  std::vector<double> first_probe;
  auto recording_evaluator =
      [&first_probe](const std::vector<double>& thresholds)
      -> util::StatusOr<ThresholdEvaluation> {
    if (first_probe.empty()) first_probe = thresholds;
    ThresholdEvaluation eval;
    eval.objective = 1.0;
    return eval;
  };
  IshmOptions options;
  options.step_size = 0.5;
  options.initial_thresholds = {100.0, -3.0};
  ASSERT_TRUE(SolveIshm(instance, recording_evaluator, options).ok());
  EXPECT_EQ(first_probe, (std::vector<double>{2.0, 0.0}));
}

// Objectives that differ only by rounding noise must not steer the search:
// the first subset in the fixed order keeps a near-tie.
TEST(IshmTest, NearTieGoesToFirstSubset) {
  const GameInstance instance = MakeTinyGame();  // upper bounds 2, 2
  auto evaluator = [](const std::vector<double>& thresholds)
      -> util::StatusOr<ThresholdEvaluation> {
    ThresholdEvaluation eval;
    // Shrinking type 1 looks better by 1e-15, far below any real gain.
    eval.objective = thresholds[1] < 2.0 ? 1.0 - 1e-15 : 1.0;
    return eval;
  };
  IshmOptions options;
  options.step_size = 0.5;
  const auto result = SolveIshm(instance, evaluator, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->effective_thresholds, (std::vector<double>{1.0, 2.0}));
}

TEST(IshmTest, PolicyMatchesReportedObjective) {
  const auto instance = data::MakeSynA();
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(*instance, 10.0);
  ASSERT_TRUE(detection.ok());
  IshmOptions options;
  options.step_size = 0.2;
  const auto result = SolveIshm(
      *instance, MakeFullLpEvaluator(*compiled, *detection), options);
  ASSERT_TRUE(result.ok());
  const auto eval = EvaluatePolicy(*compiled, *detection, result->policy);
  ASSERT_TRUE(eval.ok());
  EXPECT_NEAR(eval->auditor_loss, result->objective, 1e-6);
}

}  // namespace
}  // namespace auditgame::core
