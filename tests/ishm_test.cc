#include "core/ishm.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/game_lp.h"
#include "data/syn_a.h"
#include "scenario/generator.h"
#include "tests/test_util.h"
#include "util/combinatorics.h"

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

GameInstance UniformGame(int types, uint64_t seed) {
  auto spec = scenario::SpecByName("uniform");
  EXPECT_TRUE(spec.ok());
  spec->num_types = types;
  spec->seed = seed;
  auto instance = scenario::Generate(*spec);
  EXPECT_TRUE(instance.ok());
  return *instance;
}

// A bounded probe's bound is a lower bound on the evaluator's objective at
// that probe: checked before each CGGS solve, with the duals the sweep
// held at that moment (the bound SolveIshm prunes with), and after it,
// when the probe's own duals have joined the ring.
TEST(IshmTest, SweepBoundNeverExceedsAnEvaluatedObjective) {
  int64_t pruned = 0;
  int checked = 0;
  for (const int types : {4, 5, 6}) {
    for (const uint64_t seed : {3, 8}) {
      const GameInstance instance = UniformGame(types, seed);
      const auto game = Compile(instance);
      ASSERT_TRUE(game.ok());
      for (const double budget : {6.0, 10.0}) {
        auto detection = DetectionModel::Create(instance, budget);
        ASSERT_TRUE(detection.ok());
        const ThresholdEvaluator sweep = MakeCggsEvaluator(*game, *detection);
        ObjectiveBound bound;
        auto bounded = [&](const std::vector<double>& thresholds)
            -> util::StatusOr<ThresholdEvaluation> {
          const double before =
              bound ? bound(thresholds)
                    : -std::numeric_limits<double>::infinity();
          ASSIGN_OR_RETURN(ThresholdEvaluation eval, sweep(thresholds));
          bound = eval.lower_bound;
          EXPECT_TRUE(bound) << types << " types: the sweep is bounded";
          if (!bound) return eval;
          const double margin = 1e-9 * (1.0 + std::fabs(eval.objective));
          EXPECT_LE(before, eval.objective + margin);
          EXPECT_LE(bound(thresholds), eval.objective + margin);
          ++checked;
          return eval;
        };
        IshmOptions options;
        options.step_size = 0.25;
        const auto result = SolveIshm(instance, bounded, options);
        ASSERT_TRUE(result.ok()) << result.status();
        pruned += result->stats.pruned;
      }
    }
  }
  EXPECT_GT(checked, 0);
  EXPECT_GT(pruned, 0);
}

// The exact LP over all |T|! orderings, with a weak-duality bound from the
// duals of its last four probes, as CggsSweep bounds its probes. The exact
// LP does not depend on which probes came before, so pruning can change
// only which vectors are solved, never what they are worth.
class BoundedFullLp {
 public:
  BoundedFullLp(const CompiledGame& game, DetectionModel& detection)
      : game_(game),
        detection_(detection),
        rows_(game),
        orderings_(util::AllPermutations(game.num_types)) {}

  util::StatusOr<ThresholdEvaluation> Evaluate(
      const std::vector<double>& thresholds) {
    RETURN_IF_ERROR(detection_.SetThresholds(thresholds));
    ASSIGN_OR_RETURN(RestrictedLpSolution lp,
                     SolveRestrictedGameLp(game_, detection_, orderings_));
    ThresholdEvaluation eval;
    eval.objective = lp.objective;
    eval.policy.thresholds = thresholds;
    eval.policy.budget = detection_.budget();
    for (size_t o = 0; o < orderings_.size(); ++o) {
      if (lp.ordering_probs[o] > 1e-9) {
        eval.policy.orderings.push_back(orderings_[o]);
        eval.policy.probabilities.push_back(lp.ordering_probs[o]);
      }
    }
    ProjectDualUtility(game_, rows_, lp.victim_duals, ring_[next_]);
    next_ = (next_ + 1) % ring_.size();
    filled_ = std::min(filled_ + 1, ring_.size());
    eval.lower_bound = [this](const std::vector<double>& at) {
      return Bound(at);
    };
    return eval;
  }

 private:
  double Bound(const std::vector<double>& thresholds) {
    if (!detection_.SetThresholds(thresholds).ok() ||
        !detection_.RefreshSubsetTable().ok()) {
      return -std::numeric_limits<double>::infinity();
    }
    std::vector<double> scratch;
    return MinOverOrderings(detection_, ring_.data(), filled_, scratch);
  }

  const CompiledGame& game_;
  DetectionModel& detection_;
  const UtilityRows rows_;
  const std::vector<std::vector<int>> orderings_;
  std::array<DualUtility, 4> ring_;
  size_t next_ = 0;
  size_t filled_ = 0;
};

TEST(IshmTest, PruningLeavesExactLpSweepsUnchanged) {
  for (const int types : {4, 5, 6}) {
    for (const uint64_t seed : {2, 9}) {
      const GameInstance instance = UniformGame(types, seed);
      const auto game = Compile(instance);
      ASSERT_TRUE(game.ok());
      const double budget = seed == 2 ? 6.0 : 10.0;
      const std::string where = std::to_string(types) + " types, seed " +
                                std::to_string(seed);
      auto detection = DetectionModel::Create(instance, budget);
      ASSERT_TRUE(detection.ok());
      IshmOptions options;
      options.step_size = 0.25;

      BoundedFullLp lp(*game, *detection);
      const auto pruned = SolveIshm(
          instance,
          [&lp](const std::vector<double>& thresholds) {
            return lp.Evaluate(thresholds);
          },
          options);
      const auto unpruned = SolveIshm(
          instance,
          [&lp](const std::vector<double>& thresholds)
              -> util::StatusOr<ThresholdEvaluation> {
            ASSIGN_OR_RETURN(ThresholdEvaluation eval, lp.Evaluate(thresholds));
            eval.lower_bound = nullptr;
            return eval;
          },
          options);
      ASSERT_TRUE(pruned.ok() && unpruned.ok()) << where;
      EXPECT_GT(pruned->stats.pruned, 0) << where;
      EXPECT_EQ(unpruned->stats.pruned, 0) << where;
      EXPECT_EQ(pruned->stats.evaluations, unpruned->stats.evaluations)
          << where;
      EXPECT_LT(pruned->stats.distinct_evaluations,
                unpruned->stats.distinct_evaluations)
          << where;
      EXPECT_EQ(pruned->objective, unpruned->objective) << where;
      EXPECT_EQ(pruned->effective_thresholds, unpruned->effective_thresholds)
          << where;
    }
  }
}

}  // namespace
}  // namespace auditgame::core
