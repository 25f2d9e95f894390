#include "service/audit_service.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/game_io.h"
#include "data/syn_a.h"
#include "scenario/generator.h"
#include "scenario/stream.h"
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
  AuditService service(testutil::MakeTinyGame(), options);
  ASSERT_TRUE(service.RunCycle().ok());
  // The same distributions with a zero-mass count appended: drift exactly
  // 0, but a new fingerprint, so every budget misses the cache. The miss
  // must cold-solve, not warm-start.
  std::vector<prob::CountDistribution> padded;
  for (const auto& dist : service.instance().alert_distributions) {
    std::vector<double> pmf;
    for (int z = dist.min_value(); z <= dist.max_value(); ++z) {
      pmf.push_back(dist.Pmf(z));
    }
    pmf.push_back(0.0);
    padded.push_back(
        *prob::CountDistribution::FromPmf(dist.min_value(), std::move(pmf)));
  }
  ASSERT_TRUE(service.UpdateAlertDistributions(padded).ok());
  const auto cycle = service.RunCycle();
  ASSERT_TRUE(cycle.ok());
  for (const auto& policy : cycle->policies) {
    EXPECT_EQ(policy.drift, 0.0);
    EXPECT_EQ(policy.source, AuditService::Source::kColdSolve);
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
  // A base with other distributions fingerprints as the whole instance.
  core::GameInstance drifted = game;
  drifted.alert_distributions = Perturb(game.alert_distributions, 0.2);
  EXPECT_EQ(core::FingerprintGame(game, drifted.alert_distributions),
            core::FingerprintGame(drifted));
  EXPECT_NE(core::FingerprintGame(drifted), game_key);
}

// The default cache keeps every hit a drifting stream has: same-cycle polls
// and baseline revisits every 5 cycles (recency position below budgets × 5).
// So a default service serves exactly what a service whose cache never
// evicts serves, from the same sources, at every budget count.
TEST(AuditServiceTest, DefaultCacheServesWhatAnUnboundedCacheServes) {
  scenario::ScenarioSpec spec;
  spec.num_types = 5;
  const auto game = scenario::Generate(spec);
  ASSERT_TRUE(game.ok()) << game.status();
  constexpr int kCycles = 60;
  constexpr int kPolls = 5;
  for (const scenario::StreamKind kind :
       {scenario::StreamKind::kJitter, scenario::StreamKind::kRandomWalk,
        scenario::StreamKind::kSeasonal}) {
    for (const std::vector<double>& budgets :
         std::vector<std::vector<double>>{{6.0}, {6.0, 10.0},
                                          {6.0, 8.0, 10.0}}) {
      SCOPED_TRACE("stream " + std::to_string(static_cast<int>(kind)) +
                   ", budgets " + std::to_string(budgets.size()));
      AuditServiceOptions options;
      options.budgets = budgets;
      options.solver_options.ishm.step_size = 0.25;
      AuditService sized(*game, options);
      options.cache_entries_per_budget = 256;  // never fills in kCycles
      AuditService unbounded(*game, options);

      scenario::StreamSpec stream_spec;
      stream_spec.kind = kind;
      scenario::ScenarioStream stream(game->alert_distributions, stream_spec);
      for (int cycle = 0; cycle < kCycles; ++cycle) {
        if (cycle > 0) {
          const auto next = stream.Next();
          ASSERT_TRUE(next.ok()) << next.status();
          ASSERT_TRUE(sized.UpdateAlertDistributions(*next).ok());
          ASSERT_TRUE(unbounded.UpdateAlertDistributions(*next).ok());
        }
        for (int poll = 0; poll < kPolls; ++poll) {
          const auto a = sized.RunCycle();
          const auto b = unbounded.RunCycle();
          ASSERT_TRUE(a.ok()) << a.status();
          ASSERT_TRUE(b.ok()) << b.status();
          for (size_t i = 0; i < budgets.size(); ++i) {
            const AuditService::CyclePolicy& x = a->policies[i];
            const AuditService::CyclePolicy& y = b->policies[i];
            ASSERT_EQ(x.source, y.source) << "cycle " << cycle;
            ASSERT_EQ(x.result.objective, y.result.objective)
                << "cycle " << cycle;
            ASSERT_EQ(x.result.thresholds, y.result.thresholds);
          }
        }
      }
      const PolicyCache::Stats sized_stats = sized.cache_stats();
      const PolicyCache::Stats unbounded_stats = unbounded.cache_stats();
      EXPECT_GT(sized_stats.evictions, 0);  // the small cache did fill
      EXPECT_EQ(unbounded_stats.evictions, 0);
      EXPECT_EQ(sized_stats.hits, unbounded_stats.hits);
      EXPECT_EQ(sized_stats.reuse_distance, unbounded_stats.reuse_distance);
    }
  }
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Expects `a` and `b` to serve the same source, objective bits and
/// thresholds at every budget.
void ExpectSameServing(const AuditService::CycleReport& a,
                       const AuditService::CycleReport& b) {
  ASSERT_EQ(a.policies.size(), b.policies.size());
  for (size_t i = 0; i < a.policies.size(); ++i) {
    const AuditService::CyclePolicy& x = a.policies[i];
    const AuditService::CyclePolicy& y = b.policies[i];
    EXPECT_EQ(x.source, y.source) << "budget " << x.budget;
    EXPECT_EQ(Bits(x.result.objective), Bits(y.result.objective))
        << "budget " << x.budget;
    EXPECT_EQ(x.result.thresholds, y.result.thresholds)
        << "budget " << x.budget;
  }
}

// A shard's tenants share one base instance, one compiled game and one
// options object. Each must serve what a standalone service, which holds
// and compiles its own game, serves on the same stream: the same source,
// objective bits and thresholds.
TEST(AuditServiceSharedGameTest, TenantsServeWhatStandaloneServicesServe) {
  scenario::ScenarioSpec spec;
  spec.num_types = 5;
  const auto game = scenario::Generate(spec);
  ASSERT_TRUE(game.ok()) << game.status();
  AuditServiceOptions options;
  options.budgets = {6.0, 10.0};
  options.solver_options.ishm.step_size = 0.25;
  auto shared_options = std::make_shared<const AuditServiceOptions>(options);
  auto shared_base = std::make_shared<const core::GameInstance>(*game);
  auto compiled = core::Compile(*game);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto shared_game =
      std::make_shared<const core::CompiledGame>(*std::move(compiled));
  constexpr int kCycles = 60;
  constexpr int kPolls = 5;
  constexpr int kTenants = 2;
  for (const scenario::StreamKind kind :
       {scenario::StreamKind::kJitter, scenario::StreamKind::kRandomWalk,
        scenario::StreamKind::kSeasonal}) {
    SCOPED_TRACE("stream " + std::to_string(static_cast<int>(kind)));
    std::vector<std::unique_ptr<AuditService>> tenants;
    std::vector<std::unique_ptr<AuditService>> standalone;
    std::vector<scenario::ScenarioStream> streams;
    for (int t = 0; t < kTenants; ++t) {
      tenants.push_back(std::make_unique<AuditService>(
          shared_base, shared_options, shared_game));
      standalone.push_back(std::make_unique<AuditService>(*game, options));
      scenario::StreamSpec stream_spec;
      stream_spec.kind = kind;
      stream_spec.seed = static_cast<uint64_t>(t + 1);
      streams.emplace_back(game->alert_distributions, stream_spec);
    }
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      for (int t = 0; t < kTenants; ++t) {
        SCOPED_TRACE("tenant " + std::to_string(t) + ", cycle " +
                     std::to_string(cycle));
        if (cycle > 0) {
          const auto next = streams[t].Next();
          ASSERT_TRUE(next.ok()) << next.status();
          ASSERT_TRUE(tenants[t]->UpdateAlertDistributions(*next).ok());
          ASSERT_TRUE(standalone[t]->UpdateAlertDistributions(*next).ok());
        }
        for (int poll = 0; poll < kPolls; ++poll) {
          const auto a = tenants[t]->RunCycle();
          const auto b = standalone[t]->RunCycle();
          ASSERT_TRUE(a.ok()) << a.status();
          ASSERT_TRUE(b.ok()) << b.status();
          ExpectSameServing(*a, *b);
        }
      }
    }
    for (int t = 0; t < kTenants; ++t) {
      EXPECT_EQ(tenants[t]->compiled_game(), shared_game.get());
      EXPECT_EQ(tenants[t]->base_instance(), shared_base.get());
      EXPECT_NE(standalone[t]->compiled_game(), shared_game.get());
      EXPECT_GT(tenants[t]->stats().warm_solves, 0);
    }
  }
}

// A tenant that has not ingested serves the base instance's distributions
// object itself, and its baselines point at it too: it holds no
// distributions of its own.
TEST(AuditServiceSharedGameTest, TenantWithoutIngestSharesBaseDistributions) {
  auto base = std::make_shared<const core::GameInstance>(
      testutil::MakeMediumGame());
  auto options = std::make_shared<const AuditServiceOptions>(FastOptions());
  AuditService tenant(base, options, nullptr);
  const AuditService& view = tenant;
  EXPECT_EQ(&view.alert_distributions(), &base->alert_distributions);
  ASSERT_TRUE(tenant.RunCycle().ok());
  EXPECT_EQ(&view.alert_distributions(), &base->alert_distributions);
  for (double budget : options->budgets) {
    EXPECT_EQ(view.baseline_distributions(budget), &base->alert_distributions);
  }
  // An ingest gives the tenant its own distributions and keeps the base.
  ASSERT_TRUE(tenant
                  .UpdateAlertDistributions(
                      Perturb(base->alert_distributions, 0.1))
                  .ok());
  EXPECT_NE(&view.alert_distributions(), &base->alert_distributions);
  EXPECT_EQ(view.base_instance(), base.get());
}

// After each cycle every baseline and the current distributions are one
// object, whether the cycle solved, hit under a new key or hit under the
// baseline's own key.
TEST(AuditServiceTest, BaselinesAreTheCurrentDistributions) {
  AuditService service(testutil::MakeMediumGame(), FastOptions());
  const auto baseline = service.alert_distributions();
  const auto expect_one_object = [&service] {
    for (double budget : service.options().budgets) {
      EXPECT_EQ(service.baseline_distributions(budget),
                &service.alert_distributions())
          << "budget " << budget;
    }
  };
  EXPECT_EQ(service.baseline_distributions(2.0), nullptr);
  ASSERT_TRUE(service.RunCycle().ok());
  expect_one_object();
  ASSERT_TRUE(service.UpdateAlertDistributions(Perturb(baseline, 0.1)).ok());
  ASSERT_TRUE(service.RunCycle().ok());  // warm solves
  expect_one_object();
  ASSERT_TRUE(service.RunCycle().ok());  // same-key hits
  expect_one_object();
  ASSERT_TRUE(service.UpdateAlertDistributions(baseline).ok());
  const auto revisit = service.RunCycle();  // hits under a new key
  ASSERT_TRUE(revisit.ok());
  EXPECT_EQ(revisit->policies[0].source, Source::kCache);
  expect_one_object();
}

// A state read keeps a shared base instance only when the instance read has
// the same fixed parts, and a shared compiled game only when it has the
// same adversaries. A tenant that reads other adversaries gets its own base,
// compiles its own game and serves what the service that wrote the state
// serves.
TEST(AuditServiceSharedGameTest, RestoredOtherAdversariesCompileTheirOwnGame) {
  const core::GameInstance base = testutil::MakeMediumGame();
  core::GameInstance other = base;
  other.adversaries[0].victims[0].benefit += 1.0;
  ASSERT_FALSE(core::SameCompileInputs(base, other));
  auto shared_base = std::make_shared<const core::GameInstance>(base);
  auto shared_options =
      std::make_shared<const AuditServiceOptions>(FastOptions());
  auto compiled = core::Compile(base);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto shared_game =
      std::make_shared<const core::CompiledGame>(*std::move(compiled));
  const auto write_state = [](AuditService& service) {
    util::Serializer w = util::Serializer::Writer();
    service.StreamState(w);
    EXPECT_TRUE(w.ok()) << w.status();
    return w.TakeBuffer();
  };
  const auto read_state = [](AuditService& service, const std::string& bytes) {
    util::Serializer r = util::Serializer::Reader(bytes);
    service.StreamState(r);
    r.ExpectExhausted();
    ASSERT_TRUE(r.ok()) << r.status();
  };

  // Same adversaries: the read keeps the shared game.
  AuditService writer_on_base(base, FastOptions());
  ASSERT_TRUE(writer_on_base.RunCycle().ok());
  ASSERT_TRUE(writer_on_base
                  .UpdateAlertDistributions(
                      Perturb(base.alert_distributions, 0.1))
                  .ok());
  ASSERT_TRUE(writer_on_base.RunCycle().ok());
  AuditService same(shared_base, shared_options, shared_game);
  const std::string same_bytes = write_state(writer_on_base);
  read_state(same, same_bytes);
  EXPECT_EQ(same.compiled_game(), shared_game.get());
  EXPECT_EQ(same.base_instance(), shared_base.get());
  EXPECT_EQ(write_state(same), same_bytes);

  // Other audit costs: the read keeps the compiled game (Compile() does not
  // read costs) but not the base.
  core::GameInstance other_costs = base;
  other_costs.audit_costs[0] *= 2.0;
  ASSERT_TRUE(core::SameCompileInputs(base, other_costs));
  ASSERT_FALSE(core::SameFixedParts(base, other_costs));
  AuditService writer_on_costs(other_costs, FastOptions());
  ASSERT_TRUE(writer_on_costs.RunCycle().ok());
  AuditService costs(shared_base, shared_options, shared_game);
  read_state(costs, write_state(writer_on_costs));
  EXPECT_EQ(costs.compiled_game(), shared_game.get());
  EXPECT_NE(costs.base_instance(), shared_base.get());
  EXPECT_EQ(costs.base_instance()->audit_costs, other_costs.audit_costs);

  // Other adversaries: the read drops it, and the next cycle compiles the
  // instance read.
  AuditService fresh(other, FastOptions());
  ASSERT_TRUE(fresh.RunCycle().ok());
  AuditService tenant(shared_base, shared_options, shared_game);
  read_state(tenant, write_state(fresh));
  EXPECT_EQ(tenant.compiled_game(), nullptr);
  EXPECT_NE(tenant.base_instance(), shared_base.get());
  for (int cycle = 0; cycle < 4; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    const auto drifted = Perturb(other.alert_distributions, 0.05 * cycle);
    ASSERT_TRUE(tenant.UpdateAlertDistributions(drifted).ok());
    ASSERT_TRUE(fresh.UpdateAlertDistributions(drifted).ok());
    const auto a = tenant.RunCycle();
    const auto b = fresh.RunCycle();
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    ExpectSameServing(*a, *b);
  }
  EXPECT_GT(tenant.stats().warm_solves + tenant.stats().cold_solves, 0);
  EXPECT_NE(tenant.compiled_game(), nullptr);
  EXPECT_NE(tenant.compiled_game(), shared_game.get());
  EXPECT_EQ(core::FingerprintGame(*tenant.base_instance()),
            core::FingerprintGame(*fresh.base_instance()));
}

// Durable snapshots store this fingerprint and recovery refuses a data dir
// whose fingerprint differs. Any change that makes the same configuration
// serve different policies (a format break, docs/DESIGN.md) must bump the
// version string in FingerprintServiceConfig and then this literal, so an
// old data dir is refused instead of replayed into different policies.
TEST(AuditServiceTest, DefaultConfigFingerprintIsPinned) {
  EXPECT_EQ(FingerprintServiceConfig(AuditServiceOptions()).ToHex(),
            "23b2d9db57f194e76140c783e64ed377");
}

}  // namespace
}  // namespace auditgame::service
