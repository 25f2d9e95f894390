// Tests for the strategic attacker models (adversary/attacker.h):
// per-type attack utilities against the hand formula, exact best response
// against brute-force enumeration over alert types, byte-determinism of
// every model, quantal-response softmax properties, fictitious-play
// averaging, and the exploitability oracle — the exact solver's optimal
// policy leaves the best-responding attacker a ~0 (<= 1e-9) exploitability
// gap against a deterministic re-solve.
#include "adversary/attacker.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "core/detection.h"
#include "core/policy.h"
#include "gtest/gtest.h"
#include "scenario/generator.h"
#include "solver/solver.h"

namespace auditgame::adversary {
namespace {

core::GameInstance MakeInstance() {
  auto spec = scenario::SpecByName("uniform");
  EXPECT_TRUE(spec.ok());
  spec->num_types = 4;
  auto instance = scenario::Generate(*spec);
  EXPECT_TRUE(instance.ok());
  return std::move(*instance);
}

AttackerEconomics EconomicsOf(const core::GameInstance& instance) {
  auto economics = DeriveEconomics(instance);
  EXPECT_TRUE(economics.ok());
  return std::move(*economics);
}

/// Bit-for-bit equality of two distribution vectors (support + pmf doubles).
bool SameBits(const std::vector<prob::CountDistribution>& a,
              const std::vector<prob::CountDistribution>& b) {
  if (a.size() != b.size()) return false;
  for (size_t t = 0; t < a.size(); ++t) {
    if (a[t].min_value() != b[t].min_value()) return false;
    const std::vector<double>& pa = a[t].pmf_data();
    const std::vector<double>& pb = b[t].pmf_data();
    if (pa.size() != pb.size()) return false;
    if (!pa.empty() &&
        std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// The paper's Eq. 3 specialized to a single-type attack, written out by
/// hand so the test does not share code with the implementation.
double HandUtility(const AttackerEconomics& e, const std::vector<double>& pal,
                   int t) {
  const size_t i = static_cast<size_t>(t);
  return -pal[i] * e.penalties[i] + (1.0 - pal[i]) * e.benefits[i] -
         e.attack_costs[i];
}

/// Brute force over every alert type: the utility-maximizing type, or -1
/// when refraining (utility 0) beats them all. Ties break low.
int BruteForceBestType(const AttackerEconomics& e,
                       const std::vector<double>& pal) {
  int best = -1;
  double best_utility = 0.0;
  for (int t = 0; t < e.num_types(); ++t) {
    const double u = HandUtility(e, pal, t);
    if (u > best_utility) {
      best = t;
      best_utility = u;
    }
  }
  return best;
}

std::unique_ptr<Attacker> Make(const core::GameInstance& instance,
                               AttackerKind kind, double lambda = 4.0) {
  AttackerSpec spec;
  spec.kind = kind;
  spec.lambda = lambda;
  auto attacker =
      MakeAttacker(spec, instance.alert_distributions, EconomicsOf(instance));
  EXPECT_TRUE(attacker.ok()) << attacker.status();
  return std::move(*attacker);
}

TEST(AttackerEconomicsTest, PerTypeUtilitiesMatchHandFormula) {
  const core::GameInstance instance = MakeInstance();
  const AttackerEconomics economics = EconomicsOf(instance);
  const std::vector<double> pal = {0.1, 0.3, 0.6, 0.9};
  const std::vector<double> utilities = PerTypeAttackUtilities(economics, pal);
  ASSERT_EQ(utilities.size(), 4u);
  for (int t = 0; t < 4; ++t) {
    EXPECT_NEAR(utilities[static_cast<size_t>(t)],
                HandUtility(economics, pal, t), 1e-12)
        << "type " << t;
  }
}

TEST(AttackerEconomicsTest, BestAttackUtilityIsClampedMaximum) {
  const AttackerEconomics economics = EconomicsOf(MakeInstance());
  // Full detection everywhere: every attack pays -penalty - cost < 0, so
  // the best move is to refrain and the exploitability measure clamps at 0.
  const std::vector<double> all_audited(4, 1.0);
  EXPECT_EQ(BestAttackUtility(economics, all_audited), 0.0);
  const std::vector<double> none_audited(4, 0.0);
  double expected = 0.0;
  for (int t = 0; t < 4; ++t) {
    expected = std::max(expected, HandUtility(economics, none_audited, t));
  }
  EXPECT_NEAR(BestAttackUtility(economics, none_audited), expected, 1e-12);
}

TEST(AttackerEconomicsTest, DeriveEconomicsRejectsDegenerateInstances) {
  core::GameInstance empty;
  EXPECT_FALSE(DeriveEconomics(empty).ok());
}

TEST(BestResponseAttackerTest, MatchesBruteForceEnumeration) {
  const core::GameInstance instance = MakeInstance();
  const AttackerEconomics economics = EconomicsOf(instance);
  auto attacker = Make(instance, AttackerKind::kBestResponse);

  const std::vector<std::vector<double>> observations = {
      {0.0, 0.0, 0.0, 0.0}, {0.9, 0.0, 0.9, 0.9}, {0.2, 0.8, 0.5, 0.1},
      {1.0, 1.0, 1.0, 1.0}, {0.5, 0.5, 0.5, 0.5},
  };
  for (const std::vector<double>& pal : observations) {
    ASSERT_TRUE(attacker->NextCycle(pal).ok());
    const std::vector<double>& allocation = attacker->last_allocation();
    const int expected = BruteForceBestType(economics, pal);
    for (int t = 0; t < 4; ++t) {
      EXPECT_EQ(allocation[static_cast<size_t>(t)], t == expected ? 1.0 : 0.0)
          << "pal[0]=" << pal[0] << " type " << t;
    }
  }
}

TEST(BestResponseAttackerTest, NoProfitableAttackKeepsBaselineBitForBit) {
  const core::GameInstance instance = MakeInstance();
  auto attacker = Make(instance, AttackerKind::kBestResponse);

  // Cycle 1: nothing observed yet, the attacker lies low.
  auto first = attacker->NextCycle({});
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(SameBits(*first, instance.alert_distributions));

  // Full detection: refraining dominates, so the emitted stream is the
  // benign baseline again — bit for bit, which is what lets the defender's
  // policy cache treat the cycle as an exact revisit.
  auto quiet = attacker->NextCycle({1.0, 1.0, 1.0, 1.0});
  ASSERT_TRUE(quiet.ok());
  EXPECT_TRUE(SameBits(*quiet, instance.alert_distributions));
  for (double w : attacker->last_allocation()) EXPECT_EQ(w, 0.0);

  // An unaudited stream, by contrast, gets tilted away from the baseline.
  auto attacked = attacker->NextCycle({0.0, 0.0, 0.0, 0.0});
  ASSERT_TRUE(attacked.ok());
  EXPECT_FALSE(SameBits(*attacked, instance.alert_distributions));
}

TEST(AttackerDeterminismTest, IdenticalSpecsProduceIdenticalStreams) {
  const core::GameInstance instance = MakeInstance();
  const std::vector<std::vector<double>> observations = {
      {}, {0.2, 0.8, 0.5, 0.1}, {0.6, 0.1, 0.3, 0.7}, {0.6, 0.1, 0.3, 0.7}};
  for (AttackerKind kind :
       {AttackerKind::kBestResponse, AttackerKind::kQuantalResponse,
        AttackerKind::kFictitiousPlay}) {
    auto left = Make(instance, kind);
    auto right = Make(instance, kind);
    for (const std::vector<double>& pal : observations) {
      auto a = left->NextCycle(pal);
      auto b = right->NextCycle(pal);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_TRUE(SameBits(*a, *b)) << AttackerKindName(kind);
    }
  }
}

TEST(QuantalResponseAttackerTest, AllocationIsANormalizedSoftmax) {
  const core::GameInstance instance = MakeInstance();
  const AttackerEconomics economics = EconomicsOf(instance);
  const std::vector<double> pal = {0.2, 0.8, 0.5, 0.1};

  // lambda = 0: uniform attack mass regardless of utilities.
  auto uniform = Make(instance, AttackerKind::kQuantalResponse, 0.0);
  ASSERT_TRUE(uniform->NextCycle(pal).ok());
  for (double w : uniform->last_allocation()) EXPECT_NEAR(w, 0.25, 1e-12);

  // Finite lambda: a proper distribution, tilted toward higher utility.
  auto soft = Make(instance, AttackerKind::kQuantalResponse, 4.0);
  ASSERT_TRUE(soft->NextCycle(pal).ok());
  double total = 0.0;
  for (double w : soft->last_allocation()) {
    EXPECT_GT(w, 0.0);
    total += w;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);

  // lambda -> infinity recovers the best response.
  auto sharp = Make(instance, AttackerKind::kQuantalResponse, 1e4);
  ASSERT_TRUE(sharp->NextCycle(pal).ok());
  const int target = BruteForceBestType(economics, pal);
  ASSERT_GE(target, 0);
  EXPECT_GT(sharp->last_allocation()[static_cast<size_t>(target)], 0.99);
}

TEST(FictitiousPlayAttackerTest, BestRespondsToTheEmpiricalMean) {
  const core::GameInstance instance = MakeInstance();
  const AttackerEconomics economics = EconomicsOf(instance);
  auto attacker = Make(instance, AttackerKind::kFictitiousPlay);

  // Two observations that individually favor different types; fictitious
  // play must answer the second with the best response to their mean, not
  // to the latest observation alone.
  const std::vector<double> pal1 = {0.9, 0.0, 0.9, 0.9};
  const std::vector<double> pal2 = {0.0, 0.9, 0.9, 0.9};
  std::vector<double> mean(4);
  for (int t = 0; t < 4; ++t) {
    mean[static_cast<size_t>(t)] =
        (pal1[static_cast<size_t>(t)] + pal2[static_cast<size_t>(t)]) / 2.0;
  }
  ASSERT_TRUE(attacker->NextCycle(pal1).ok());
  const int first_target = BruteForceBestType(economics, pal1);
  ASSERT_GE(first_target, 0);
  EXPECT_EQ(attacker->last_allocation()[static_cast<size_t>(first_target)],
            1.0);

  // The second answer must be the best response to the *mean* of the two
  // observations, not to pal2 alone. On this instance the mean detection
  // makes every attack unprofitable (the allocation is all zeros), while a
  // latest-observation responder would pile onto the type pal2 leaves
  // unaudited — so the expectations genuinely discriminate.
  ASSERT_TRUE(attacker->NextCycle(pal2).ok());
  const int mean_target = BruteForceBestType(economics, mean);
  EXPECT_NE(mean_target, BruteForceBestType(economics, pal2));
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(attacker->last_allocation()[static_cast<size_t>(t)],
              t == mean_target ? 1.0 : 0.0)
        << "type " << t;
  }
}

// The exploitability oracle (ISSUE satellite): solve the game exactly,
// re-solve it from scratch, and check the best-responding attacker gains
// nothing (<= 1e-9) against the first solve that it could not gain against
// the second. With the deterministic solver stack the two detection vectors
// are bit-identical, so this pins both solver determinism and the
// exploitability definition at once.
TEST(ExploitabilityOracleTest, OptimalPolicyHasZeroExploitabilityGap) {
  const core::GameInstance instance = MakeInstance();
  const AttackerEconomics economics = EconomicsOf(instance);
  const double budget = 6.0;

  solver::EngineRequest request;
  request.solver = "ishm-cggs";
  request.instance = &instance;
  request.budget = budget;
  request.options.ishm.step_size = 0.25;

  auto MixedPal = [&](const solver::SolveResult& result) {
    auto model = core::DetectionModel::Create(instance, budget, {});
    EXPECT_TRUE(model.ok());
    auto pal = core::MixedDetectionProbabilities(*model, result.policy);
    EXPECT_TRUE(pal.ok());
    return std::move(*pal);
  };

  auto first = solver::Solve(request);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = solver::Solve(request);
  ASSERT_TRUE(second.ok()) << second.status();

  const std::vector<double> pal_first = MixedPal(*first);
  const std::vector<double> pal_second = MixedPal(*second);
  const double gap = BestAttackUtility(economics, pal_first) -
                     BestAttackUtility(economics, pal_second);
  EXPECT_LE(std::abs(gap), 1e-9);
}

TEST(AttackerFactoryTest, ValidatesSpecAndParsesNames) {
  const core::GameInstance instance = MakeInstance();
  AttackerSpec spec;
  spec.attack_rate = -1.0;
  EXPECT_FALSE(
      MakeAttacker(spec, instance.alert_distributions, EconomicsOf(instance))
          .ok());
  EXPECT_FALSE(MakeAttacker({}, {}, EconomicsOf(instance)).ok());

  for (const char* name : {"best-response", "quantal", "fictitious"}) {
    auto kind = AttackerKindFromName(name);
    ASSERT_TRUE(kind.ok());
    EXPECT_STREQ(AttackerKindName(*kind), name);
  }
  EXPECT_FALSE(AttackerKindFromName("nash").ok());
}

}  // namespace
}  // namespace auditgame::adversary
