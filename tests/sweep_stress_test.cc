// Stress seeds for the shared sweep master (core::CggsSweep). Re-pricing
// one master across every ISHM probe can leave its warm basis nearly
// singular; these games, at 6 to 10 types, are ones where a warm solve
// from such a basis once returned INTERNAL errors or an "optimal"
// objective its own policy did not attain. Every sweep must end ok, and
// every probe's objective must be the exact loss of the policy it returns.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/detection.h"
#include "core/game.h"
#include "core/ishm.h"
#include "core/policy.h"
#include "scenario/generator.h"

namespace auditgame {
namespace {

struct StressCase {
  int types;
  uint64_t seed;
  double budget;
};

// Uniform family, as the server builds it with --types and --game_seed.
constexpr StressCase kCases[] = {
    {6, 21, 6.0},  {8, 21, 6.0},  {9, 5, 6.0},   {9, 15, 6.0},
    {10, 10, 6.0}, {10, 11, 6.0}, {10, 16, 6.0}, {10, 21, 6.0},
};

TEST(SweepStressTest, EveryProbeReportsItsPolicysLoss) {
  for (const StressCase& stress : kCases) {
    const std::string where = std::to_string(stress.types) + " types, seed " +
                              std::to_string(stress.seed);
    auto spec = scenario::SpecByName("uniform");
    ASSERT_TRUE(spec.ok());
    spec->num_types = stress.types;
    spec->seed = stress.seed;
    const auto instance = scenario::Generate(*spec);
    ASSERT_TRUE(instance.ok()) << where;
    const auto game = core::Compile(*instance);
    ASSERT_TRUE(game.ok()) << where;
    auto detection = core::DetectionModel::Create(*instance, stress.budget);
    auto scoring = core::DetectionModel::Create(*instance, stress.budget);
    ASSERT_TRUE(detection.ok() && scoring.ok()) << where;

    const core::ThresholdEvaluator sweep =
        core::MakeCggsEvaluator(*game, *detection);
    int probes = 0;
    int wrong = 0;
    const core::ThresholdEvaluator checked =
        [&](const std::vector<double>& thresholds)
        -> util::StatusOr<core::ThresholdEvaluation> {
      auto eval = sweep(thresholds);
      if (!eval.ok()) return eval;
      ++probes;
      const auto loss = core::EvaluatePolicy(*game, *scoring, eval->policy);
      if (!loss.ok() || std::fabs(loss->auditor_loss - eval->objective) >
                            1e-6 * (1.0 + std::fabs(eval->objective))) {
        ++wrong;
      }
      return eval;
    };
    core::IshmOptions options;
    options.step_size = 0.25;
    const auto result = core::SolveIshm(*instance, checked, options);
    EXPECT_TRUE(result.ok()) << where << ": " << result.status();
    EXPECT_GT(probes, 0) << where;
    EXPECT_EQ(wrong, 0) << where << ": of " << probes << " probes";
  }
}

}  // namespace
}  // namespace auditgame
