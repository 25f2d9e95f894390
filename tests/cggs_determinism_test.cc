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
    "ccdb3ba0990710ade85c2eafe2a6725d", "c4a43e5efa0124792ecd677f733e2e09",
    "e234af93bada7d6fd92cf8a4017268df", "157b18825fe0e242f3f7107f2311c4b2",
    "a48efcf3fc3e849fc379ff9c8821a42f", "26b01adcf84039d3860f88443683aba3",
    "4cd23e0ce6b53172c7b646b7ff554562", "aed424293376515556b36277d3fb09a5",
    "45cc5e8105b1445d5cff1074cda390cd", "724a89919f0287ec07d87b9ab7a371fc",
    "b013bab7c61077edf9a48bae9e84189d", "979b7b1163cf3497594cba4a4b1149c7",
    "955f859f7e6029139f0f1489acf8a643", "448abf9037cc32760fd270bcce0e6246",
    "506be9ad421989db27e5e01bf441d08b", "d11300edbabcd6a905e9611706461b39",
    "abe900b4fd4569db15369ec3ec89c2eb", "fabcba30077a87986e03c222a690e648",
    "12ddb000362a0a4a7c96bc5c3077035a", "239ce21146375a9f734a473406da14af",
};
constexpr const char* kGoldenSweep[] = {
    "546be98e044ddecf759b640adc02ed9f", "b18fd820604cbf4c015b1f08d83346fc",
    "7d7255a4035ebfc406811a1476d849f4", "80546641928cafc43d917a5a80aa2ff4",
    "fc1e534d3c814bc4daf232aecfe11994", "0857f79fe2f2d48a3b320a3e03434c3a",
    "de11fde59030c3a8ff1f11204bd79cd8", "392e4922f5f43d0340d57d8a19bc1353",
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
