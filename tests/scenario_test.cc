#include "scenario/generator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/game_io.h"
#include "prob/count_distribution.h"
#include "scenario/stream.h"

namespace auditgame::scenario {
namespace {

std::vector<ScenarioSpec> AllFamilySpecs() {
  std::vector<ScenarioSpec> specs;
  for (const Family family :
       {Family::kZipfAlerts, Family::kCorrelatedGroups,
        Family::kUniformBaseline}) {
    ScenarioSpec spec;
    spec.family = family;
    spec.num_types = 7;
    spec.num_adversaries = 5;
    spec.seed = 42;
    specs.push_back(spec);
  }
  return specs;
}

TEST(ScenarioGeneratorTest, SameSeedSameGameBytes) {
  for (const ScenarioSpec& spec : AllFamilySpecs()) {
    const auto a = Generate(spec);
    const auto b = Generate(spec);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // Content fingerprint equality is exact double-bit equality of every
    // field the serving layer keys on — the property that makes generated
    // games valid policy-cache keys.
    EXPECT_EQ(core::FingerprintGame(*a), core::FingerprintGame(*b))
        << "family " << static_cast<int>(spec.family);
  }
}

TEST(ScenarioGeneratorTest, DifferentSeedDifferentGameBytes) {
  for (ScenarioSpec spec : AllFamilySpecs()) {
    const auto a = Generate(spec);
    spec.seed = 43;
    const auto b = Generate(spec);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NE(core::FingerprintGame(*a), core::FingerprintGame(*b))
        << "family " << static_cast<int>(spec.family);
  }
}

TEST(ScenarioGeneratorTest, GeneratedGamesValidate) {
  for (const ScenarioSpec& spec : AllFamilySpecs()) {
    const auto instance = Generate(spec);
    ASSERT_TRUE(instance.ok());
    EXPECT_TRUE(instance->Validate().ok());
    EXPECT_EQ(instance->num_types(), spec.num_types);
    EXPECT_EQ(static_cast<int>(instance->adversaries.size()),
              spec.num_adversaries);
  }
}

TEST(ScenarioGeneratorTest, ZipfMeansAreHeavyTailed) {
  ScenarioSpec spec;
  spec.family = Family::kZipfAlerts;
  spec.num_types = 10;
  spec.zipf_exponent = 1.1;
  spec.base_alert_mean = 24.0;
  const auto instance = Generate(spec);
  ASSERT_TRUE(instance.ok());
  std::vector<double> means;
  for (const auto& dist : instance->alert_distributions) {
    means.push_back(dist.Mean());
  }
  // Monotone nonincreasing in rank, and the head dominates the tail by
  // roughly 10^1.1 (truncation at 0 blunts it a little).
  for (size_t t = 1; t < means.size(); ++t) {
    EXPECT_LE(means[t], means[t - 1] + 1e-9) << "rank " << t;
  }
  EXPECT_GE(means.front() / means.back(), 5.0);
}

TEST(ScenarioGeneratorTest, CorrelatedVictimsStayInsideOneGroup) {
  ScenarioSpec spec;
  spec.family = Family::kCorrelatedGroups;
  spec.num_types = 9;
  spec.group_size = 3;
  const auto instance = Generate(spec);
  ASSERT_TRUE(instance.ok());
  for (const auto& adversary : instance->adversaries) {
    for (const auto& victim : adversary.victims) {
      int first_group = -1;
      double mass = 0.0;
      int primary_count = 0;
      for (int t = 0; t < spec.num_types; ++t) {
        const double p = victim.type_probs[static_cast<size_t>(t)];
        if (p <= 0) continue;
        mass += p;
        const int group = t / spec.group_size;
        if (first_group < 0) first_group = group;
        EXPECT_EQ(group, first_group) << "type " << t;
        if (p == spec.primary_type_prob) ++primary_count;
      }
      EXPECT_EQ(primary_count, 1);
      EXPECT_LE(mass, 1.0 + 1e-12);
    }
  }
}

TEST(ScenarioGeneratorTest, BudgetSweepEndpointsAndSpacing) {
  EXPECT_TRUE(BudgetSweep(2.0, 10.0, 0).empty());
  EXPECT_EQ(BudgetSweep(2.0, 10.0, 1), std::vector<double>({2.0}));
  const std::vector<double> sweep = BudgetSweep(2.0, 10.0, 5);
  ASSERT_EQ(sweep.size(), 5u);
  EXPECT_DOUBLE_EQ(sweep.front(), 2.0);
  EXPECT_DOUBLE_EQ(sweep.back(), 10.0);
  for (size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_NEAR(sweep[i] - sweep[i - 1], 2.0, 1e-12);
  }
}

TEST(ScenarioGeneratorTest, CatalogNamesResolve) {
  ASSERT_FALSE(Catalog().empty());
  for (const NamedScenario& entry : Catalog()) {
    const auto spec = SpecByName(entry.name);
    ASSERT_TRUE(spec.ok()) << entry.name;
    EXPECT_TRUE(Generate(*spec).ok()) << entry.name;
  }
  EXPECT_FALSE(SpecByName("no-such-scenario").ok());
}

TEST(ScenarioGeneratorTest, InvalidSpecsAreRejected) {
  ScenarioSpec spec;
  spec.num_types = 0;
  EXPECT_FALSE(Generate(spec).ok());
  spec = ScenarioSpec();
  spec.primary_type_prob = 1.5;
  EXPECT_FALSE(Generate(spec).ok());
  spec = ScenarioSpec();
  spec.benefit_lo = 5.0;
  spec.benefit_hi = 1.0;
  EXPECT_FALSE(Generate(spec).ok());
}

// ---- Streams -------------------------------------------------------------

bool SamePmf(const prob::CountDistribution& a,
             const prob::CountDistribution& b) {
  if (a.min_value() != b.min_value() || a.max_value() != b.max_value()) {
    return false;
  }
  for (int z = a.min_value(); z <= a.max_value(); ++z) {
    if (a.Pmf(z) != b.Pmf(z)) return false;
  }
  return true;
}

std::vector<prob::CountDistribution> TestBaseline() {
  return {*prob::CountDistribution::DiscretizedGaussian(6.0, 2.0, 1, 11),
          *prob::CountDistribution::DiscretizedGaussian(4.0, 1.5, 1, 9)};
}

TEST(ScenarioStreamTest, SameSpecSameCycleBytes) {
  for (const StreamKind kind :
       {StreamKind::kJitter, StreamKind::kRandomWalk, StreamKind::kSeasonal}) {
    StreamSpec spec;
    spec.kind = kind;
    spec.seed = 9;
    ScenarioStream a(TestBaseline(), spec);
    ScenarioStream b(TestBaseline(), spec);
    for (int cycle = 0; cycle < 8; ++cycle) {
      const auto da = a.Next();
      const auto db = b.Next();
      ASSERT_TRUE(da.ok());
      ASSERT_TRUE(db.ok());
      ASSERT_EQ(da->size(), db->size());
      for (size_t t = 0; t < da->size(); ++t) {
        EXPECT_TRUE(SamePmf((*da)[t], (*db)[t]))
            << "kind " << static_cast<int>(kind) << " cycle " << cycle;
      }
    }
  }
}

TEST(ScenarioStreamTest, RevisitCyclesReplayTheBaselineExactly) {
  StreamSpec spec;
  spec.kind = StreamKind::kJitter;
  spec.revisit_period = 3;
  ScenarioStream stream(TestBaseline(), spec);
  const auto baseline = TestBaseline();
  for (int cycle = 1; cycle <= 9; ++cycle) {
    const auto dists = stream.Next();
    ASSERT_TRUE(dists.ok());
    const bool is_revisit = cycle % 3 == 0;
    EXPECT_EQ(stream.IsRevisit(cycle), is_revisit);
    EXPECT_EQ(SamePmf((*dists)[0], baseline[0]), is_revisit) << cycle;
  }
}

TEST(ScenarioStreamTest, RandomWalkAccumulatesDriftBeyondJitter) {
  StreamSpec spec;
  spec.drift_amplitude = 0.1;
  spec.revisit_period = 0;
  spec.seed = 5;
  spec.kind = StreamKind::kJitter;
  ScenarioStream jitter(TestBaseline(), spec);
  spec.kind = StreamKind::kRandomWalk;
  ScenarioStream walk(TestBaseline(), spec);
  const auto baseline = TestBaseline();
  double jitter_drift = 0.0;
  double walk_drift = 0.0;
  for (int cycle = 0; cycle < 40; ++cycle) {
    const auto dj = jitter.Next();
    const auto dw = walk.Next();
    ASSERT_TRUE(dj.ok());
    ASSERT_TRUE(dw.ok());
    jitter_drift = prob::TotalVariationDistance(baseline[0], (*dj)[0]);
    walk_drift = prob::TotalVariationDistance(baseline[0], (*dw)[0]);
  }
  // After 40 steps the walk has wandered; the jitter is still a bounded
  // perturbation of the baseline.
  EXPECT_GT(walk_drift, jitter_drift);
}

TEST(ScenarioStreamTest, SeasonalTiltMovesTheMeanBothWays) {
  StreamSpec spec;
  spec.kind = StreamKind::kSeasonal;
  spec.drift_amplitude = 0.2;
  spec.revisit_period = 0;
  spec.season_period = 8;
  ScenarioStream stream(TestBaseline(), spec);
  const double base_mean = TestBaseline()[0].Mean();
  double lowest = base_mean, highest = base_mean;
  for (int cycle = 0; cycle < 8; ++cycle) {
    const auto dists = stream.Next();
    ASSERT_TRUE(dists.ok());
    const double mean = (*dists)[0].Mean();
    lowest = std::min(lowest, mean);
    highest = std::max(highest, mean);
  }
  EXPECT_GT(highest, base_mean + 0.1);
  EXPECT_LT(lowest, base_mean - 0.1);
}

// A seasonal stream refuses a period below 1 instead of running another
// period; the other kinds never read it.
TEST(ScenarioStreamTest, SeasonalPeriodBelowOneIsRefused) {
  StreamSpec spec;
  spec.revisit_period = 0;
  spec.season_period = 0;
  spec.kind = StreamKind::kSeasonal;
  ScenarioStream seasonal(TestBaseline(), spec);
  EXPECT_EQ(seasonal.Next().status().code(),
            util::StatusCode::kInvalidArgument);
  spec.kind = StreamKind::kJitter;
  ScenarioStream jitter(TestBaseline(), spec);
  EXPECT_TRUE(jitter.Next().ok());
}

TEST(ExponentialTiltTest, ZeroThetaIsIdentityAndSignMovesMean) {
  const auto baseline = TestBaseline();
  const auto same = ExponentialTilt(baseline[0], 0.0);
  ASSERT_TRUE(same.ok());
  EXPECT_NEAR(same->Mean(), baseline[0].Mean(), 1e-12);
  const auto up = ExponentialTilt(baseline[0], 0.3);
  const auto down = ExponentialTilt(baseline[0], -0.3);
  ASSERT_TRUE(up.ok());
  ASSERT_TRUE(down.ok());
  EXPECT_GT(up->Mean(), baseline[0].Mean());
  EXPECT_LT(down->Mean(), baseline[0].Mean());
}

}  // namespace
}  // namespace auditgame::scenario
