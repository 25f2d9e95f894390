// The cross-cutting determinism contract of the numeric-kernel layer: a
// CGGS solve produces a byte-identical SolveResult fingerprint under every
// {kernel backend} x {pricing thread count} combination. The kernels'
// canonical blocked summation order makes scalar and SIMD bit-identical
// (math/kernels.h), and the pricing path's preassigned scratch slots make
// thread count result-neutral — this test pins both at once, over 20
// generated games spanning the scenario families and both detection modes.
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
#include "math/kernels.h"
#include "scenario/generator.h"
#include "solver/registry.h"
#include "solver/solver.h"
#include "util/serializer.h"

namespace auditgame {
namespace {

class CggsDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override {
    // The kernel backend is process-global; leave it as we found it.
    math::SetBackend(initial_backend_);
  }

 private:
  math::Backend initial_backend_ = math::ActiveBackend();
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

// Solves game `index` under the given backend and thread count and returns
// the SolveResult fingerprint (timing fields excluded by construction).
util::Fingerprint SolveFingerprint(int index, math::Backend backend,
                                   int pricing_threads) {
  EXPECT_TRUE(math::SetBackend(backend));
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

TEST_F(CggsDeterminismTest, FingerprintsIdenticalAcrossBackendsAndThreads) {
  const bool simd = math::SimdAvailable();
  if (!simd) {
    // Scalar-only build (-DAUDIT_ENABLE_SIMD=OFF or no SSE2): the thread
    // half of the matrix still runs below; the backend half is vacuous.
    GTEST_LOG_(INFO) << "SIMD backend unavailable; comparing thread counts "
                        "under the scalar backend only";
  }
  for (int game = 0; game < 20; ++game) {
    const util::Fingerprint reference =
        SolveFingerprint(game, math::Backend::kScalar, 1);
    for (const int threads : {1, 2, 4}) {
      const util::Fingerprint scalar =
          SolveFingerprint(game, math::Backend::kScalar, threads);
      EXPECT_EQ(reference.ToHex(), scalar.ToHex())
          << "game " << game << " scalar threads=" << threads;
      if (simd) {
        const util::Fingerprint vectorized =
            SolveFingerprint(game, math::Backend::kSimd, threads);
        EXPECT_EQ(reference.ToHex(), vectorized.ToHex())
            << "game " << game << " simd (" << math::BackendName()
            << ") threads=" << threads;
      }
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
// still be byte-identical run to run and across pricing thread counts.
TEST(CggsSweepTest, IshmCggsSweepsIdenticalAcrossRunsAndThreads) {
  for (int game = 0; game < 8; ++game) {
    const std::string reference = SweepFingerprint(game, 1).ToHex();
    EXPECT_EQ(reference, SweepFingerprint(game, 1).ToHex())
        << "game " << game << " rerun";
    for (const int threads : {2, 4}) {
      EXPECT_EQ(reference, SweepFingerprint(game, threads).ToHex())
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
