#include "service/audit_service.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/game_io.h"
#include "data/syn_a.h"
#include "tests/test_util.h"
#include "util/serializer.h"

namespace auditgame::service {
namespace {

using Source = AuditService::Source;

AuditServiceOptions FastOptions() {
  AuditServiceOptions options;
  options.budgets = {2.0, 3.0};
  options.solver_options.ishm.step_size = 0.25;
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

TEST(AuditServiceTest, InvalidGameFailsTheCycleUntilAnIngestRepairsIt) {
  core::GameInstance broken = testutil::MakeTinyGame();
  broken.alert_distributions.pop_back();
  AuditService service(std::move(broken), FastOptions());
  const auto failed = service.RunCycle();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), util::StatusCode::kInvalidArgument);

  // The failed compile is not kept: once an ingest makes the game valid,
  // the service serves what a service built on the valid game serves.
  const core::GameInstance valid = testutil::MakeTinyGame();
  ASSERT_TRUE(
      service.UpdateAlertDistributions(valid.alert_distributions).ok());
  auto repaired = service.RunCycle();
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  AuditService fresh(valid, FastOptions());
  auto expected = fresh.RunCycle();
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_EQ(repaired->policies.size(), expected->policies.size());
  for (size_t i = 0; i < expected->policies.size(); ++i) {
    EXPECT_EQ(repaired->policies[i].source, expected->policies[i].source);
    EXPECT_EQ(util::FingerprintState(repaired->policies[i].result),
              util::FingerprintState(expected->policies[i].result));
  }
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

// Request keys are computed once per instance change and reused by every
// later cycle; these pin when they are recomputed.
TEST(AuditServiceKeyCacheTest, NewIngestMissesTheCache) {
  AuditService service(testutil::MakeMediumGame(), FastOptions());
  ASSERT_TRUE(service.RunCycle().ok());
  ASSERT_TRUE(service.RunCycle().ok());
  EXPECT_EQ(service.cache_stats().misses, 2);

  ASSERT_TRUE(service
                  .UpdateAlertDistributions(
                      Perturb(service.instance().alert_distributions, 0.1))
                  .ok());
  const auto cycle = service.RunCycle();
  ASSERT_TRUE(cycle.ok()) << cycle.status();
  for (const auto& policy : cycle->policies) {
    EXPECT_NE(policy.source, Source::kCache);
    EXPECT_GT(policy.drift, 0.0);
  }
  EXPECT_EQ(service.cache_stats().misses, 4);
}

TEST(AuditServiceKeyCacheTest, ReingestingTheSameDistributionsHits) {
  AuditService service(testutil::MakeMediumGame(), FastOptions());
  const auto first = service.RunCycle();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(service
                  .UpdateAlertDistributions(
                      service.instance().alert_distributions)
                  .ok());
  const auto second = service.RunCycle();
  ASSERT_TRUE(second.ok());
  for (size_t i = 0; i < second->policies.size(); ++i) {
    EXPECT_EQ(second->policies[i].source, Source::kCache);
    EXPECT_EQ(second->policies[i].result.objective,
              first->policies[i].result.objective);
  }
  EXPECT_EQ(service.cache_stats().hits, 2);
}

TEST(AuditServiceKeyCacheTest, RejectedIngestStillHitsWithThePreviousPolicy) {
  AuditService service(testutil::MakeMediumGame(), FastOptions());
  const auto first = service.RunCycle();
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(service
                   .UpdateAlertDistributions(
                       {prob::CountDistribution::Constant(2)})
                   .ok());
  const auto second = service.RunCycle();
  ASSERT_TRUE(second.ok());
  for (size_t i = 0; i < second->policies.size(); ++i) {
    EXPECT_EQ(second->policies[i].source, Source::kCache);
    EXPECT_EQ(second->policies[i].drift, 0.0);
    EXPECT_EQ(second->policies[i].result.thresholds,
              first->policies[i].result.thresholds);
  }
}

TEST(AuditServiceKeyCacheTest, RestoreRecomputesKeysOfAServiceThatServed) {
  const AuditServiceOptions options = FastOptions();
  // The snapshot's service serves a drifted instance, so every key differs
  // from those of the service it is restored into.
  AuditService source(testutil::MakeMediumGame(), options);
  ASSERT_TRUE(source
                  .UpdateAlertDistributions(
                      Perturb(source.instance().alert_distributions, 0.3))
                  .ok());
  const auto solved = source.RunCycle();
  ASSERT_TRUE(solved.ok());
  util::Serializer w = util::Serializer::Writer();
  source.StreamState(w);

  AuditService restored(testutil::MakeMediumGame(), options);
  ASSERT_TRUE(restored.RunCycle().ok());
  ASSERT_TRUE(restored.RunCycle().ok());
  util::Serializer r = util::Serializer::Reader(w.buffer());
  restored.StreamState(r);
  r.ExpectExhausted();
  ASSERT_TRUE(r.ok()) << r.status();

  const auto expected = source.RunCycle();
  const auto cycle = restored.RunCycle();
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(cycle.ok()) << cycle.status();
  EXPECT_EQ(cycle->cycle, expected->cycle);
  for (size_t i = 0; i < cycle->policies.size(); ++i) {
    EXPECT_EQ(cycle->policies[i].source, Source::kCache);
    EXPECT_EQ(cycle->policies[i].drift, expected->policies[i].drift);
    EXPECT_EQ(cycle->policies[i].result.objective,
              solved->policies[i].result.objective);
  }
}

TEST(AuditServiceKeyCacheTest, SameKeyHitReportsExactlyZeroDrift) {
  AuditService service(testutil::MakeMediumGame(), FastOptions());
  const auto baseline = service.instance().alert_distributions;
  EXPECT_EQ(AuditService::MeasureDrift(baseline, baseline), 0.0);
  ASSERT_TRUE(service.RunCycle().ok());
  for (int i = 0; i < 3; ++i) {
    const auto cycle = service.RunCycle();
    ASSERT_TRUE(cycle.ok());
    for (const auto& policy : cycle->policies) {
      EXPECT_EQ(policy.source, Source::kCache);
      EXPECT_EQ(policy.drift, 0.0);
    }
  }
  // A hit under a key other than the baseline's still measures its drift.
  const auto drifted = Perturb(baseline, 0.1);
  ASSERT_TRUE(service.UpdateAlertDistributions(drifted).ok());
  ASSERT_TRUE(service.RunCycle().ok());
  ASSERT_TRUE(service.UpdateAlertDistributions(baseline).ok());
  const auto revisit = service.RunCycle();
  ASSERT_TRUE(revisit.ok());
  for (const auto& policy : revisit->policies) {
    EXPECT_EQ(policy.source, Source::kCache);
    EXPECT_EQ(policy.drift, AuditService::MeasureDrift(drifted, baseline));
  }
}

TEST(AuditServiceKeyCacheTest, SplitKeyEqualsFingerprintRequest) {
  const core::GameInstance game = testutil::MakeMediumGame();
  const util::Fingerprint game_key = core::FingerprintGame(game);
  solver::EngineRequest request;
  request.solver = "ishm-cggs";
  request.instance = &game;
  request.budget = 3.0;
  EXPECT_EQ(FingerprintRequestForGame(game_key, request),
            FingerprintRequest(request));
  request.options.ishm.step_size = 0.25;
  request.options.cggs.initial_orderings = {{0, 1, 2}, {2, 1, 0}};
  request.warm_start.thresholds = {1.0, 2.0, 0.5};
  request.warm_start.orderings = {{1, 0, 2}};
  request.thresholds = {3.0, 2.0, 1.0};
  const util::Fingerprint key = FingerprintRequest(request);
  EXPECT_EQ(FingerprintRequestForGame(game_key, request), key);
  // The split function reads the game only through its fingerprint.
  request.instance = nullptr;
  EXPECT_EQ(FingerprintRequestForGame(game_key, request), key);
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
