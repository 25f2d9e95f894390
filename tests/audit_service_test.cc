#include "service/audit_service.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "data/syn_a.h"
#include "tests/test_util.h"

namespace auditgame::service {
namespace {

using Source = AuditService::Source;

AuditServiceOptions FastOptions() {
  AuditServiceOptions options;
  options.budgets = {2.0, 3.0};
  options.solver_options.ishm.step_size = 0.25;
  options.num_threads = 2;
  return options;
}

// Rescale one type's pmf slightly; amplitude ~ total variation drift.
std::vector<prob::CountDistribution> Perturb(
    const std::vector<prob::CountDistribution>& dists, double amplitude) {
  std::vector<prob::CountDistribution> out;
  for (const auto& dist : dists) {
    std::vector<double> pmf;
    for (int z = dist.min_value(); z <= dist.max_value(); ++z) {
      // Tilt mass toward the low end of the support.
      const double tilt =
          1.0 + amplitude * (dist.max_value() == dist.min_value()
                                 ? 0.0
                                 : 1.0 - 2.0 *
                                       static_cast<double>(z - dist.min_value()) /
                                       (dist.max_value() - dist.min_value()));
      pmf.push_back(dist.Pmf(z) * tilt);
    }
    out.push_back(*prob::CountDistribution::FromPmf(dist.min_value(),
                                                    std::move(pmf)));
  }
  return out;
}

TEST(AuditServiceTest, FirstCycleIsColdSecondIsIdenticalCacheHit) {
  AuditService service(testutil::MakeTinyGame(), FastOptions());
  const auto first = service.RunCycle();
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->policies.size(), 2u);
  for (const auto& policy : first->policies) {
    EXPECT_EQ(policy.source, Source::kColdSolve);
    EXPECT_EQ(policy.drift, 0.0);
  }

  // No distribution update: the same fingerprints must be served from the
  // cache, bit-for-bit.
  const auto second = service.RunCycle();
  ASSERT_TRUE(second.ok()) << second.status();
  for (size_t i = 0; i < second->policies.size(); ++i) {
    const auto& a = first->policies[i];
    const auto& b = second->policies[i];
    EXPECT_EQ(b.source, Source::kCache);
    EXPECT_EQ(b.result.objective, a.result.objective);
    EXPECT_EQ(b.result.thresholds, a.result.thresholds);
    EXPECT_EQ(b.result.policy.orderings, a.result.policy.orderings);
    EXPECT_EQ(b.result.policy.probabilities, a.result.policy.probabilities);
  }
  const auto stats = service.cache_stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 2);
}

TEST(AuditServiceTest, SmallDriftWarmStartsAndStaysNearOptimal) {
  const auto syn_a = data::MakeSynA();
  ASSERT_TRUE(syn_a.ok());
  AuditServiceOptions options;
  options.budgets = {10.0};
  options.solver_options.ishm.step_size = 0.2;
  AuditService service(*syn_a, options);
  ASSERT_TRUE(service.RunCycle().ok());

  const auto drifted = Perturb(syn_a->alert_distributions, 0.05);
  ASSERT_TRUE(service.UpdateAlertDistributions(drifted).ok());
  const auto cycle = service.RunCycle();
  ASSERT_TRUE(cycle.ok()) << cycle.status();
  const auto& policy = cycle->policies[0];
  EXPECT_EQ(policy.source, Source::kWarmSolve);
  EXPECT_GT(policy.drift, 0.0);
  EXPECT_LE(policy.drift, options.warm_start_max_drift);

  // The warm solve must track a cold solve of the same drifted instance.
  core::GameInstance drifted_instance = *syn_a;
  drifted_instance.alert_distributions = drifted;
  AuditService cold_service(drifted_instance, options);
  const auto cold = cold_service.RunCycle();
  ASSERT_TRUE(cold.ok());
  EXPECT_NEAR(policy.result.objective, cold->policies[0].result.objective,
              0.05);
}

TEST(AuditServiceTest, LargeDriftFallsBackToColdSolve) {
  AuditServiceOptions options = FastOptions();
  options.warm_start_max_drift = 0.02;
  AuditService service(testutil::MakeMediumGame(), options);
  ASSERT_TRUE(service.RunCycle().ok());

  const auto drifted = Perturb(service.instance().alert_distributions, 0.6);
  ASSERT_TRUE(service.UpdateAlertDistributions(drifted).ok());
  const auto cycle = service.RunCycle();
  ASSERT_TRUE(cycle.ok()) << cycle.status();
  for (const auto& policy : cycle->policies) {
    EXPECT_EQ(policy.source, Source::kColdSolve);
    EXPECT_GT(policy.drift, options.warm_start_max_drift);
  }
}

TEST(AuditServiceTest, RevisitedDistributionsHitTheCacheDespiteDrift) {
  AuditService service(testutil::MakeTinyGame(), FastOptions());
  const auto baseline = service.instance().alert_distributions;
  ASSERT_TRUE(service.RunCycle().ok());

  ASSERT_TRUE(
      service.UpdateAlertDistributions(Perturb(baseline, 0.1)).ok());
  ASSERT_TRUE(service.RunCycle().ok());

  // Returning to the exact baseline must be a pure cache hit.
  ASSERT_TRUE(service.UpdateAlertDistributions(baseline).ok());
  const auto cycle = service.RunCycle();
  ASSERT_TRUE(cycle.ok());
  for (const auto& policy : cycle->policies) {
    EXPECT_EQ(policy.source, Source::kCache);
  }
}

TEST(AuditServiceTest, ZeroMaxDriftDisablesWarmSolvesEntirely) {
  AuditServiceOptions options = FastOptions();
  options.warm_start_max_drift = 0.0;
  options.cache_capacity = 1;  // one entry: the second budget evicts the first
  AuditService service(testutil::MakeTinyGame(), options);
  ASSERT_TRUE(service.RunCycle().ok());
  // Unchanged distributions, but the evicted budget misses the cache with
  // drift exactly 0 — it must cold-solve, not warm-start.
  const auto cycle = service.RunCycle();
  ASSERT_TRUE(cycle.ok());
  for (const auto& policy : cycle->policies) {
    EXPECT_NE(policy.source, AuditService::Source::kWarmSolve);
  }
}

TEST(AuditServiceTest, RejectsMismatchedDistributionUpdate) {
  AuditService service(testutil::MakeTinyGame(), FastOptions());
  const auto before = service.instance().alert_distributions;
  std::vector<prob::CountDistribution> wrong_size = {
      prob::CountDistribution::Constant(2)};
  const auto status = service.UpdateAlertDistributions(wrong_size);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  // Rejected updates leave the served distributions untouched.
  EXPECT_EQ(service.instance().alert_distributions.size(), before.size());
  EXPECT_TRUE(service.RunCycle().ok());
}

TEST(AuditServiceTest, MeasureDriftIsMaxTotalVariation) {
  const auto a = testutil::MakeTinyGame().alert_distributions;
  EXPECT_EQ(AuditService::MeasureDrift(a, a), 0.0);
  auto b = a;
  b[0] = prob::CountDistribution::Constant(3);  // disjoint support vs Constant(2)
  EXPECT_NEAR(AuditService::MeasureDrift(a, b), 1.0, 1e-12);
  std::vector<prob::CountDistribution> shorter(a.begin(), a.begin() + 1);
  EXPECT_EQ(AuditService::MeasureDrift(a, shorter), 1.0);
}

// Durable snapshots store this fingerprint and recovery refuses a data dir
// whose fingerprint differs. Any change that makes the same configuration
// serve different policies (a format break, docs/DESIGN.md) must bump the
// version string in FingerprintServiceConfig and then this literal, so an
// old data dir is refused instead of replayed into different policies.
TEST(AuditServiceTest, DefaultConfigFingerprintIsPinned) {
  EXPECT_EQ(FingerprintServiceConfig(AuditServiceOptions()).ToHex(),
            "ee5a472e918d3543ed0010e254de77d3");
}

}  // namespace
}  // namespace auditgame::service
