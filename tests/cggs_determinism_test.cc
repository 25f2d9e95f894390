// The cross-cutting determinism contract of the solver core: a CGGS solve
// produces a byte-identical SolveResult fingerprint for every pricing
// thread count, and that fingerprint is pinned to a golden literal. The
// pricing path's preassigned scratch slots make thread count
// result-neutral; the kernels' canonical blocked summation order
// (math/kernels.h) fixes the bits. A change to either — a reordered
// reduction, a different pivot rule — fails here, and docs/DESIGN.md calls
// it a format break. The games span the scenario families and both
// detection modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/cggs.h"
#include "core/detection.h"
#include "core/game.h"
#include "core/ishm.h"
#include "core/policy.h"
#include "scenario/generator.h"
#include "solver/registry.h"
#include "solver/solver.h"
#include "util/serializer.h"

namespace auditgame {
namespace {

// SolveResult fingerprints of SolveFingerprint(game, 1) for games 0..19,
// and of SweepFingerprint(game, 1) for games 0..7. Regenerate them only
// for a deliberate format break, and say so in the change log.
constexpr const char* kGoldenCggs[] = {
    "9c91ce4390900929fd7d922014bbd7f9", "cb289e33faaf6eb20638898de8bb73e2",
    "062186f0ac1661af9f295a236c3721df", "157b18825fe0e242f3f7107f2311c4b2",
    "aff2cc48df3a355f39a3135f3b1c64af", "36304e773997693084592a9314f34fc0",
    "4cd23e0ce6b53172c7b646b7ff554562", "836fdb9c16fffbd8f815908b82fed328",
    "45cc5e8105b1445d5cff1074cda390cd", "fbff17645b78b5656b07156179e1e875",
    "4a274877d8ca4e1f549816b7a783f6cf", "6fbab538f0e1e2ed52fa9dba7cde0f5d",
    "51ef0d0da7ed53b66ca7b972669b2fa6", "448abf9037cc32760fd270bcce0e6246",
    "c41e4ecc088eabed390bee346bfc241d", "bffe146d54d3b82ecf732fbf28390a3e",
    "abe900b4fd4569db15369ec3ec89c2eb", "d6132797dcca438ec322916ff1291e7e",
    "12ddb000362a0a4a7c96bc5c3077035a", "239ce21146375a9f734a473406da14af",
};
constexpr const char* kGoldenSweep[] = {
    "006a6201023f45493f5894981c0d9179", "0ecff53f473d3409ef3875b44fe2c8f9",
    "582b1ad2892ba678687ca989778321a8", "80546641928cafc43d917a5a80aa2ff4",
    "d04484547ab61d6e6b6a008b680939fe", "23a6ef39de6dfc3bb30d1b009774648b",
    "ef71780a476700205910cd5fa606f3d0", "e0de2f66bda323142c0cbacc2fb81404",
};

scenario::ScenarioSpec SpecForGame(int index) {
  scenario::ScenarioSpec spec;
  switch (index % 3) {
    case 0:
      spec.family = scenario::Family::kZipfAlerts;
      spec.base_alert_mean = 10.0;
      break;
    case 1:
      spec.family = scenario::Family::kCorrelatedGroups;
      spec.group_size = 2;
      break;
    default:
      spec.family = scenario::Family::kUniformBaseline;
      break;
  }
  spec.num_types = 4 + index % 2;
  spec.num_adversaries = 3;
  spec.victims_per_adversary = 3;
  spec.seed = static_cast<uint64_t>(500 + index);
  return spec;
}

std::vector<double> FlooredMeanThresholds(const core::GameInstance& instance) {
  std::vector<double> thresholds;
  for (const auto& dist : instance.alert_distributions) {
    thresholds.push_back(std::floor(dist.Mean()));
  }
  return thresholds;
}

// Solves game `index` with cggs at the given thread count and returns the
// SolveResult fingerprint (timing fields excluded by construction).
util::Fingerprint SolveFingerprint(int index, int pricing_threads) {
  const auto instance = scenario::Generate(SpecForGame(index));
  EXPECT_TRUE(instance.ok()) << index;
  const auto compiled = core::Compile(*instance);
  EXPECT_TRUE(compiled.ok()) << index;
  const double budget = 1.5 * instance->num_types();

  core::DetectionModel::Options detection_options;
  if (index % 4 == 3) {
    // Every fourth game prices through the Monte-Carlo estimator, whose
    // detection terms take the branchy blocked-accumulator path rather
    // than the dense kernel reductions.
    detection_options.mode = core::DetectionModel::Mode::kMonteCarlo;
    detection_options.mc_samples = 400;
  }
  auto detection =
      core::DetectionModel::Create(*instance, budget, detection_options);
  EXPECT_TRUE(detection.ok()) << index;

  solver::SolverOptions options;
  options.cggs.pricing_threads = pricing_threads;
  auto cggs = solver::Create("cggs", options);
  EXPECT_TRUE(cggs.ok());
  solver::SolveRequest request;
  request.thresholds = FlooredMeanThresholds(*instance);
  auto result = (*cggs)->Solve(*compiled, *detection, request);
  EXPECT_TRUE(result.ok()) << index;
  return util::FingerprintState(*result);
}

TEST(CggsDeterminismTest, FingerprintsMatchGoldenAcrossThreads) {
  for (int game = 0; game < 20; ++game) {
    for (const int threads : {1, 2, 4}) {
      EXPECT_EQ(SolveFingerprint(game, threads).ToHex(), kGoldenCggs[game])
          << "game " << game << " threads=" << threads;
    }
  }
}

// Solves game `index` with ishm-cggs, whose sweep keeps one master LP
// across all probes, and returns the SolveResult fingerprint.
util::Fingerprint SweepFingerprint(int index, int pricing_threads) {
  const auto instance = scenario::Generate(SpecForGame(index));
  EXPECT_TRUE(instance.ok()) << index;
  const auto compiled = core::Compile(*instance);
  EXPECT_TRUE(compiled.ok()) << index;
  core::DetectionModel::Options detection_options;
  if (index % 4 == 3) {
    detection_options.mode = core::DetectionModel::Mode::kMonteCarlo;
    detection_options.mc_samples = 400;
  }
  auto detection = core::DetectionModel::Create(
      *instance, 1.5 * instance->num_types(), detection_options);
  EXPECT_TRUE(detection.ok()) << index;

  solver::SolverOptions options;
  options.ishm.step_size = 0.25;
  options.cggs.pricing_threads = pricing_threads;
  auto ishm = solver::Create("ishm-cggs", options);
  EXPECT_TRUE(ishm.ok());
  solver::SolveRequest request;
  request.instance = &*instance;
  auto result = (*ishm)->Solve(*compiled, *detection, request);
  EXPECT_TRUE(result.ok()) << index;
  return util::FingerprintState(*result);
}

// Every probe of a sweep starts from the master the previous probes left
// behind, so any nondeterminism would compound across the sweep. It must
// still be byte-identical run to run, across pricing thread counts, and
// to the golden literal.
TEST(CggsSweepTest, IshmCggsSweepsMatchGoldenAcrossRunsAndThreads) {
  for (int game = 0; game < 8; ++game) {
    EXPECT_EQ(SweepFingerprint(game, 1).ToHex(), kGoldenSweep[game])
        << "game " << game;
    EXPECT_EQ(SweepFingerprint(game, 1).ToHex(), kGoldenSweep[game])
        << "game " << game << " rerun";
    for (const int threads : {2, 4}) {
      EXPECT_EQ(SweepFingerprint(game, threads).ToHex(), kGoldenSweep[game])
          << "game " << game << " threads=" << threads;
    }
  }
}

// Past 4T+8 columns the next probe rebuilds the master from the previous
// support and the seeds. Every probe, rebuilt or re-priced, must report
// the exact loss of the policy it returns. Most sweeps stay under the cap;
// this game's sweep at budget 10 is one that grows past it.
TEST(CggsSweepTest, RebuildsPastColumnCap) {
  auto spec = scenario::SpecByName("uniform");
  ASSERT_TRUE(spec.ok());
  spec->num_types = 5;
  spec->seed = 6;
  const auto instance = scenario::Generate(*spec);
  ASSERT_TRUE(instance.ok());
  const auto compiled = core::Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = core::DetectionModel::Create(*instance, 10.0);
  ASSERT_TRUE(detection.ok());
  const int cap = 4 * instance->num_types() + 8;

  core::CggsSweep sweep(*compiled, *detection, core::CggsOptions());
  int most_columns = 0;
  const core::ThresholdEvaluator evaluator =
      [&](const std::vector<double>& thresholds)
      -> util::StatusOr<core::ThresholdEvaluation> {
    const int columns_before = sweep.num_columns();
    const int rebuilds_before = sweep.rebuilds();
    most_columns = std::max(most_columns, columns_before);
    ASSIGN_OR_RETURN(core::CggsResult cggs, sweep.Solve(thresholds));
    EXPECT_EQ(sweep.rebuilds() > rebuilds_before, columns_before > cap);
    const auto loss = core::EvaluatePolicy(*compiled, *detection, cggs.policy);
    EXPECT_TRUE(loss.ok());
    if (loss.ok()) {
      EXPECT_NEAR(loss->auditor_loss, cggs.objective, 1e-6);
    }
    core::ThresholdEvaluation eval;
    eval.objective = cggs.objective;
    eval.policy = std::move(cggs.policy);
    return eval;
  };
  core::IshmOptions options;
  options.step_size = 0.25;
  ASSERT_TRUE(core::SolveIshm(*instance, evaluator, options).ok());
  EXPECT_GT(most_columns, cap);
  EXPECT_GT(sweep.rebuilds(), 0);
}

}  // namespace
}  // namespace auditgame
