#include "core/game_lp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <vector>

#include "core/cggs.h"
#include "core/master_lp.h"
#include "core/policy.h"
#include "scenario/generator.h"
#include "tests/lp_oracle/dense_tableau.h"
#include "tests/test_util.h"
#include "util/random.h"

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

// A group whose victims share type_probs {0.5, 0.5}, so Pat is the same for
// all of them: A (Ua 3 at Pat = 0, -3 at Pat = 1), B (2, -3: dominated by A,
// tying at full coverage), C (3, -3 from other parameters: ties A at both
// ends, so only the lower index of the two stays), D (5, -5: undominated),
// plus E with other type_probs, which nothing can dominate.
GameInstance MakeTiedEnvelopeGame() {
  GameInstance instance = MakeTinyGame();
  auto victim = [](std::vector<double> type_probs, double benefit,
                   double penalty, double attack_cost) {
    VictimProfile v;
    v.type_probs = std::move(type_probs);
    v.benefit = benefit;
    v.penalty = penalty;
    v.attack_cost = attack_cost;
    return v;
  };
  Adversary adversary;
  adversary.can_opt_out = false;
  adversary.victims = {victim({0.5, 0.5}, 4.0, 2.0, 1.0),
                       victim({0.5, 0.5}, 3.0, 2.0, 1.0),
                       victim({0.5, 0.5}, 5.0, 1.0, 2.0),
                       victim({0.5, 0.5}, 6.0, 4.0, 1.0),
                       victim({1.0, 0.0}, 3.0, 2.0, 1.0)};
  instance.adversaries.push_back(adversary);
  return instance;
}

TEST(EnvelopeTest, KeepsUndominatedVictimsAndTheLowerIndexOfATie) {
  const auto compiled = Compile(MakeTiedEnvelopeGame());
  ASSERT_TRUE(compiled.ok());
  const AdversaryGroup* group = nullptr;
  for (const AdversaryGroup& g : compiled->groups) {
    if (g.victims.size() == 5) group = &g;
  }
  ASSERT_NE(group, nullptr);
  ASSERT_EQ(group->envelope.size(), 3u);
  EXPECT_TRUE(std::is_sorted(group->envelope.begin(), group->envelope.end()));
  // Compile orders victims by their bytes, so find A..E by parameters.
  int tie_kept = -1;
  std::vector<int> tied;
  for (size_t v = 0; v < group->victims.size(); ++v) {
    const VictimProfile& victim = group->victims[v];
    const bool kept = std::count(group->envelope.begin(),
                                 group->envelope.end(), static_cast<int>(v));
    const bool shared_types = victim.type_probs[0] == 0.5;
    if (shared_types && victim.benefit - victim.attack_cost == 3.0) {
      tied.push_back(static_cast<int>(v));  // A or C
      if (kept) tie_kept = static_cast<int>(v);
    } else {
      const bool is_b = shared_types && victim.benefit == 3.0;
      EXPECT_EQ(kept, !is_b) << "victim " << v;
    }
  }
  ASSERT_EQ(tied.size(), 2u);
  EXPECT_EQ(tie_kept, std::min(tied[0], tied[1]));
}

// The envelope is an exact presolve. For games of every scenario family
// and the hand-built tie group, the master built on the envelope must
// reach the optimum of the LP over every victim row (solved by the oracle
// over the same columns), give the pruned rows a zero dual, and serve a
// policy whose evaluated loss is its objective.
TEST(EnvelopeTest, PrunedMasterMatchesAllVictimLp) {
  std::vector<GameInstance> games;
  for (const auto family :
       {scenario::Family::kZipfAlerts, scenario::Family::kCorrelatedGroups,
        scenario::Family::kUniformBaseline}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      scenario::ScenarioSpec spec;
      spec.family = family;
      spec.num_types = 4;
      spec.num_adversaries = 4;
      spec.victims_per_adversary = 6;
      spec.base_alert_mean = 10.0;
      spec.seed = seed;
      auto instance = scenario::Generate(spec);
      ASSERT_TRUE(instance.ok());
      games.push_back(*std::move(instance));
    }
  }
  auto uniform = scenario::SpecByName("uniform");
  ASSERT_TRUE(uniform.ok());
  uniform->num_types = 5;
  auto served = scenario::Generate(*uniform);
  ASSERT_TRUE(served.ok());
  games.push_back(*std::move(served));
  games.push_back(MakeTiedEnvelopeGame());

  int pruned_rows = 0;
  for (size_t i = 0; i < games.size(); ++i) {
    const GameInstance& instance = games[i];
    const auto compiled = Compile(instance);
    ASSERT_TRUE(compiled.ok());
    pruned_rows += compiled->num_rows() - compiled->num_envelope_rows();
    CompiledGame all_victims = *compiled;
    for (AdversaryGroup& group : all_victims.groups) {
      group.envelope.resize(group.victims.size());
      std::iota(group.envelope.begin(), group.envelope.end(), 0);
    }

    auto detection =
        DetectionModel::Create(instance, 1.5 * instance.num_types());
    ASSERT_TRUE(detection.ok());
    std::vector<double> thresholds;
    for (const auto& dist : instance.alert_distributions) {
      thresholds.push_back(std::floor(dist.Mean()));
    }
    const auto cggs = SolveCggs(*compiled, *detection, thresholds);
    ASSERT_TRUE(cggs.ok()) << "game " << i;

    const auto pruned =
        SolveRestrictedGameLp(*compiled, *detection, cggs->columns);
    ASSERT_TRUE(pruned.ok());
    RestrictedMasterLp full(all_victims, *detection);
    for (const auto& ordering : cggs->columns) {
      ASSERT_TRUE(full.AddOrdering(ordering).ok());
    }
    const auto oracle = lp::DenseTableau::Solve(full.model());
    ASSERT_TRUE(oracle.ok());
    ASSERT_EQ(oracle->status, lp::SolveStatus::kOptimal);
    EXPECT_NEAR(pruned->objective, oracle->objective, 1e-9) << "game " << i;

    for (size_t g = 0; g < compiled->groups.size(); ++g) {
      const AdversaryGroup& group = compiled->groups[g];
      for (size_t v = 0; v < group.victims.size(); ++v) {
        if (std::find(group.envelope.begin(), group.envelope.end(),
                      static_cast<int>(v)) == group.envelope.end()) {
          EXPECT_EQ(pruned->victim_duals[g][v], 0.0)
              << "game " << i << " group " << g << " victim " << v;
        }
      }
    }

    const auto loss = EvaluatePolicy(*compiled, *detection, cggs->policy);
    ASSERT_TRUE(loss.ok());
    EXPECT_NEAR(loss->auditor_loss, cggs->objective, 1e-9) << "game " << i;
  }
  EXPECT_GT(pruned_rows, 0);
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
  RestrictedLpSolution incremental;
  std::vector<std::vector<int>> prefix;
  for (const auto& ordering : orderings) {
    ASSERT_TRUE(master.AddOrdering(ordering).ok());
    prefix.push_back(ordering);
    ASSERT_TRUE(master.SolveInto(incremental).ok());
    const auto one_shot = SolveRestrictedGameLp(*compiled, *detection, prefix);
    ASSERT_TRUE(one_shot.ok());
    EXPECT_NEAR(incremental.objective, one_shot->objective, 1e-8)
        << "after " << prefix.size() << " columns";
    EXPECT_NEAR(incremental.convexity_dual, one_shot->convexity_dual, 1e-6)
        << "after " << prefix.size() << " columns";
    double total = 0.0;
    for (double p : incremental.ordering_probs) total += p;
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
    ASSERT_TRUE(master_->SolveInto(b1_solution_).ok());
  }

  // Moves the master to `b2`, re-solves it, and checks the objective
  // against a fresh master; returns the master's stats from before the
  // re-solve.
  RestrictedMasterLp::Stats RepriceAndCheck(const std::vector<double>& b2) {
    EXPECT_TRUE(detection_->SetThresholds(b2).ok());
    EXPECT_TRUE(master_->Reprice().ok());
    const RestrictedMasterLp::Stats before = master_->stats();
    RestrictedLpSolution repriced;
    const util::Status solved = master_->SolveInto(repriced);
    const auto fresh =
        SolveRestrictedGameLp(compiled_, *detection_, orderings_);
    EXPECT_TRUE(solved.ok());
    EXPECT_TRUE(fresh.ok());
    if (solved.ok() && fresh.ok()) {
      EXPECT_NEAR(repriced.objective, fresh->objective, 1e-9);
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

// Reprice rewrites each column in place at its known entry positions. After
// many threshold moves the master's LP must be exactly the one a master
// built fresh on the same orderings under the final thresholds holds.
TEST(RestrictedMasterLpTest, RepricedModelMatchesFreshBuild) {
  auto spec = scenario::SpecByName("uniform");
  ASSERT_TRUE(spec.ok());
  spec->num_types = 5;
  const auto instance = scenario::Generate(*spec);
  ASSERT_TRUE(instance.ok());
  const auto compiled = Compile(*instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(*instance, 10.0);
  ASSERT_TRUE(detection.ok());

  util::Rng rng(5);
  std::vector<double> thresholds(5, 4.0);
  ASSERT_TRUE(detection->SetThresholds(thresholds).ok());
  RestrictedMasterLp master(*compiled, *detection);
  std::vector<int> ordering = {0, 1, 2, 3, 4};
  for (int o = 0; o < 8; ++o) {
    rng.Shuffle(ordering);
    if (!master.HasOrdering(ordering)) {
      ASSERT_TRUE(master.AddOrdering(ordering).ok());
    }
  }
  RestrictedLpSolution solution;
  for (int step = 0; step < 30; ++step) {
    thresholds[rng.UniformInt(uint64_t{5})] =
        static_cast<double>(rng.UniformInt(int64_t{0}, int64_t{8}));
    ASSERT_TRUE(detection->SetThresholds(thresholds).ok());
    ASSERT_TRUE(master.Reprice().ok());
    ASSERT_TRUE(master.SolveInto(solution).ok());
  }

  RestrictedMasterLp fresh(*compiled, *detection);
  for (const auto& column : master.orderings()) {
    ASSERT_TRUE(fresh.AddOrdering(column).ok());
  }
  const lp::LpModel& got = master.model();
  const lp::LpModel& want = fresh.model();
  ASSERT_EQ(got.num_variables(), want.num_variables());
  ASSERT_EQ(got.num_constraints(), want.num_constraints());
  EXPECT_EQ(got.num_constraints(), compiled->num_envelope_rows() + 1);
  for (int j = 0; j < got.num_variables(); ++j) {
    EXPECT_EQ(got.cost(j), want.cost(j));
    EXPECT_EQ(got.lower_bound(j), want.lower_bound(j));
    EXPECT_EQ(got.upper_bound(j), want.upper_bound(j));
  }
  for (int row = 0; row < got.num_constraints(); ++row) {
    EXPECT_EQ(got.sense(row), want.sense(row));
    EXPECT_EQ(got.rhs(row), want.rhs(row));
    EXPECT_EQ(got.row_vars(row), want.row_vars(row)) << "row " << row;
    ASSERT_EQ(got.row_coeffs(row).size(), want.row_coeffs(row).size());
    EXPECT_EQ(std::memcmp(got.row_coeffs(row).data(),
                          want.row_coeffs(row).data(),
                          got.row_coeffs(row).size() * sizeof(double)),
              0)
        << "row " << row;
  }
}

TEST(RestrictedMasterLpTest, SolveWithoutColumnsIsRejected) {
  const GameInstance instance = MakeTinyGame();
  const auto compiled = Compile(instance);
  ASSERT_TRUE(compiled.ok());
  auto detection = DetectionModel::Create(instance, 3.0);
  ASSERT_TRUE(detection.ok());
  ASSERT_TRUE(detection->SetThresholds({2.0, 2.0}).ok());
  RestrictedMasterLp master(*compiled, *detection);
  RestrictedLpSolution solution;
  EXPECT_FALSE(master.SolveInto(solution).ok());
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
