// The cross-cutting determinism contract of the solver core: a CGGS solve
// produces a byte-identical SolveResult fingerprint run to run, and that
// fingerprint is pinned to a golden literal. The pricing round's probe
// seeds and tie-breaking rules and the kernels' canonical blocked
// summation order (math/kernels.h) fix the bits. A change to any of them —
// a reordered reduction, a different pivot rule — fails here, and
// docs/DESIGN.md calls it a format break. The games span the scenario
// families and both detection modes. One more literal ties those goldens
// and the paper's Syn A tables to the service's config version.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cggs.h"
#include "core/detection.h"
#include "core/game.h"
#include "core/ishm.h"
#include "core/policy.h"
#include "scenario/generator.h"
#include "service/audit_service.h"
#include "solver/solver.h"
#include "util/hash.h"
#include "util/serializer.h"

namespace auditgame {
namespace {

// SolveResult fingerprints of SolveFingerprint(game) for games 0..19, and
// of SweepFingerprint(game) for games 0..7. Regenerate them only
// for a deliberate format break, and say so in the change log.
constexpr const char* kGoldenCggs[] = {
    "a6b0c7e78a795a98de929a6547a28d48", "a59b85b8db480e2a19c2d1cf7b35f11a",
    "d98855d6e21185538d786e58a8410203", "413f6410f20e75d95ce25cdf9b0de029",
    "77b3ea3c31e3fa526e890d072ed45522", "8f91ca0ea1b75508697287c12d379978",
    "b7e48459ca120a8d4cc68044a0bcbb5d", "28b91611ae70a29a950d63a2ea0ac58a",
    "73fdf44a23b51c58c637ef8cbdb654e8", "da3dea7716c0dd6993b82792492f0a39",
    "3d722907e2f4689e2154efe1863a324e", "5075b3187933fa4881b05f8d19c14458",
    "9cf7d060925a271efb9d90aa21d690ae", "508a445c04fc3362b2f71198d4df12f2",
    "be10a5f9a401a2c5c0dd0f8d213f5675", "97a9efe9f02d76b138369327431f8a81",
    "4067189f5cf4449cc2e9e3849adb486c", "ae779abaa3e4ac97d961c251f015f2e7",
    "eb1a2cbaeede817de3bc9cc8fbcc65cd", "1e4ec96ac81d4748227941a6504379d8",
};
constexpr const char* kGoldenSweep[] = {
    "3be6262440e6220b8466e41011f5ccfb", "f3723c92ee207925e80180360e1ef195",
    "272341cc308c232c56e6aaee5000287c", "cde8780668f2f19f9f4ec985fe23d96f",
    "8ff54a6e5a8cd707ce11f0a152dc8fd7", "b661370bc917fc9b386ca8331008d72b",
    "a1c7d67ea07e95975ef8929a0afb7dc7", "aa25ab3d38017795ccb8f231c35cae25",
};
// SolveResult fingerprints of ServedSweepFingerprint(budget) for budgets
// 6 and 10.
constexpr double kServedBudgets[] = {6.0, 10.0};
constexpr const char* kGoldenServedT8[] = {
    "d9bfb330cddb6275b2964e7f86bba585",
    "e4807fa7f4232bc9659efef9bbb4f859",
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

// Solves game `index` with cggs and returns the SolveResult fingerprint
// (timing fields excluded by construction).
util::Fingerprint SolveFingerprint(int index) {
  const auto instance = scenario::Generate(SpecForGame(index));
  EXPECT_TRUE(instance.ok()) << index;

  solver::EngineRequest request;
  request.solver = "cggs";
  request.instance = &*instance;
  request.budget = 1.5 * instance->num_types();
  if (index % 4 == 3) {
    // Every fourth game prices through the Monte-Carlo estimator, whose
    // detection terms take the branchy blocked-accumulator path rather
    // than the dense kernel reductions.
    request.detection_options.mode = core::DetectionModel::Mode::kMonteCarlo;
    request.detection_options.mc_samples = 400;
  }
  request.thresholds = FlooredMeanThresholds(*instance);
  auto result = solver::Solve(request);
  EXPECT_TRUE(result.ok()) << index;
  return util::FingerprintState(*result);
}

TEST(CggsDeterminismTest, FingerprintsMatchGolden) {
  for (int game = 0; game < 20; ++game) {
    EXPECT_EQ(SolveFingerprint(game).ToHex(), kGoldenCggs[game])
        << "game " << game;
  }
}

// Solves game `index` with ishm-cggs, whose sweep keeps one master LP
// across all probes, and returns the SolveResult fingerprint.
util::Fingerprint SweepFingerprint(int index) {
  const auto instance = scenario::Generate(SpecForGame(index));
  EXPECT_TRUE(instance.ok()) << index;

  solver::EngineRequest request;
  request.solver = "ishm-cggs";
  request.instance = &*instance;
  request.budget = 1.5 * instance->num_types();
  if (index % 4 == 3) {
    request.detection_options.mode = core::DetectionModel::Mode::kMonteCarlo;
    request.detection_options.mc_samples = 400;
  }
  request.options.ishm.step_size = 0.25;
  auto result = solver::Solve(request);
  EXPECT_TRUE(result.ok()) << index;
  return util::FingerprintState(*result);
}

// Every probe of a sweep starts from the master the previous probes left
// behind, so any nondeterminism would compound across the sweep. It must
// still be byte-identical run to run and to the golden literal.
TEST(CggsSweepTest, IshmCggsSweepsMatchGoldenAcrossRuns) {
  for (int game = 0; game < 8; ++game) {
    EXPECT_EQ(SweepFingerprint(game).ToHex(), kGoldenSweep[game])
        << "game " << game;
    EXPECT_EQ(SweepFingerprint(game).ToHex(), kGoldenSweep[game])
        << "game " << game << " rerun";
  }
}

// The catalog's zipf game at T = 8, swept by ishm-cggs at eps 0.25. The
// goldens above are all T = 4 or 5, where the sweep prunes probes by the
// subset-table bound; from T = 8 it does not, so these pin the other path.
util::Fingerprint ServedSweepFingerprint(double budget) {
  auto spec = scenario::SpecByName("zipf");
  EXPECT_TRUE(spec.ok());
  spec->num_types = 8;
  const auto instance = scenario::Generate(*spec);
  EXPECT_TRUE(instance.ok());

  solver::EngineRequest request;
  request.solver = "ishm-cggs";
  request.instance = &*instance;
  request.budget = budget;
  request.options.ishm.step_size = 0.25;
  auto result = solver::Solve(request);
  EXPECT_TRUE(result.ok()) << budget;
  return util::FingerprintState(*result);
}

TEST(CggsSweepTest, ZipfT8SweepsMatchGolden) {
  for (size_t i = 0; i < std::size(kServedBudgets); ++i) {
    EXPECT_EQ(ServedSweepFingerprint(kServedBudgets[i]).ToHex(),
              kGoldenServedT8[i])
        << "budget " << kServedBudgets[i];
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

// One literal pins the default service configuration's fingerprint (which
// embeds its "audit-service-config-vN" string), every golden above and the
// bytes of bench/expected/syn_a_tables.csv. A change that moves any of them
// serves different bits or prints different paper tables; it must bump the
// config version too, so a data dir written before it is refused.
TEST(ConfigVersionTest, ServedBitsArePinnedToTheConfigVersion) {
  util::FingerprintBuilder fp;
  const util::Fingerprint config =
      service::FingerprintServiceConfig(service::AuditServiceOptions());
  fp.AppendU64(config.hi);
  fp.AppendU64(config.lo);
  for (const char* golden : kGoldenCggs) fp.AppendString(golden);
  for (const char* golden : kGoldenSweep) fp.AppendString(golden);
  for (const char* golden : kGoldenServedT8) fp.AppendString(golden);
  std::ifstream csv(AUDITGAME_SYN_A_TABLES_CSV, std::ios::binary);
  ASSERT_TRUE(csv) << "cannot read " << AUDITGAME_SYN_A_TABLES_CSV;
  std::ostringstream tables;
  tables << csv.rdbuf();
  fp.AppendString(tables.str());
  EXPECT_EQ(fp.Build().ToHex(), "81fcdf6c5ff0127416ca262cb3631804")
      << "The default service config, a golden fingerprint or "
         "bench/expected/syn_a_tables.csv changed. Changing served bits "
         "requires a config-version bump: bump the audit-service-config "
         "version in FingerprintServiceConfig, then re-pin this literal "
         "(docs/DESIGN.md \"Format breaks\").";
}

}  // namespace
}  // namespace auditgame
