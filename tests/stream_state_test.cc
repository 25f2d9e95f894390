// Round-trip coverage for every StreamState-bearing layer: a value
// serialized by Serializer::Writer and restored by Serializer::Reader must
// be bit-for-bit identical (content fingerprints equal, doubles unchanged
// at the bit level) — the contract shard snapshots are built on.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/game.h"
#include "core/game_io.h"
#include "core/policy.h"
#include "prob/count_distribution.h"
#include "server/shard.h"
#include "service/audit_service.h"
#include "service/policy_cache.h"
#include "solver/solver.h"
#include "tests/test_util.h"
#include "util/serializer.h"

namespace auditgame {
namespace {

using Source = service::AuditService::Source;
using util::Serializer;

/// Writer → Reader round trip of any StreamState type; fails the test on
/// any stream error and returns the restored value.
template <typename T>
T RoundTrip(T& value) {
  Serializer w = Serializer::Writer();
  value.StreamState(w);
  EXPECT_TRUE(w.ok()) << w.status();
  T restored;
  Serializer r = Serializer::Reader(w.buffer());
  restored.StreamState(r);
  r.ExpectExhausted();
  EXPECT_TRUE(r.ok()) << r.status();
  return restored;
}

service::AuditServiceOptions FastOptions() {
  service::AuditServiceOptions options;
  options.budgets = {2.0, 3.0};
  options.solver_options.ishm.step_size = 0.25;
  return options;
}

TEST(StreamStateTest, CountDistributionRoundTripsBitForBit) {
  auto dist = prob::CountDistribution::DiscretizedGaussian(4.0, 1.5, 0, 9);
  ASSERT_TRUE(dist.ok());
  prob::CountDistribution restored = RoundTrip(*dist);
  ASSERT_EQ(restored.min_value(), dist->min_value());
  ASSERT_EQ(restored.max_value(), dist->max_value());
  for (int z = dist->min_value(); z <= dist->max_value(); ++z) {
    // Bit-for-bit, not approximately: replay determinism depends on it.
    EXPECT_EQ(restored.Pmf(z), dist->Pmf(z));
    EXPECT_EQ(restored.Cdf(z), dist->Cdf(z));
  }
}

TEST(StreamStateTest, GameInstanceRoundTripsAndRevalidates) {
  core::GameInstance game = testutil::MakeMediumGame();
  core::GameInstance restored = RoundTrip(game);
  EXPECT_EQ(core::FingerprintGame(restored), core::FingerprintGame(game));
  EXPECT_EQ(restored.type_names, game.type_names);
  EXPECT_EQ(restored.adversaries.size(), game.adversaries.size());
}

TEST(StreamStateTest, InvalidGameInstanceIsRejectedOnRead) {
  core::GameInstance game = testutil::MakeTinyGame();
  Serializer w = Serializer::Writer();
  game.StreamState(w);
  // Corrupt the tail (the last adversary's doubles) so the instance parses
  // structurally but fails Validate() — restore must refuse, not serve a
  // broken game.
  std::string bytes = w.TakeBuffer();
  for (size_t i = bytes.size() - 8; i < bytes.size(); ++i) bytes[i] = '\xff';
  core::GameInstance restored;
  Serializer r = Serializer::Reader(bytes);
  restored.StreamState(r);
  EXPECT_FALSE(r.ok());
}

TEST(StreamStateTest, AuditPolicyRoundTrip) {
  core::AuditPolicy policy;
  policy.orderings = {{0, 1, 2}, {2, 0, 1}};
  policy.probabilities = {0.25, 0.75};
  policy.thresholds = {1.0, 2.0, 0.5};
  policy.budget = 6.5;
  core::AuditPolicy restored = RoundTrip(policy);
  EXPECT_EQ(restored.orderings, policy.orderings);
  EXPECT_EQ(restored.probabilities, policy.probabilities);
  EXPECT_EQ(restored.thresholds, policy.thresholds);
  EXPECT_EQ(restored.budget, policy.budget);
}

TEST(StreamStateTest, SolveResultRoundTripFromRealSolve) {
  service::AuditService service(testutil::MakeTinyGame(), FastOptions());
  auto report = service.RunCycle();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_FALSE(report->policies.empty());
  solver::SolveResult& result = report->policies[0].result;

  solver::SolveResult restored = RoundTrip(result);
  EXPECT_EQ(restored.solver, result.solver);
  EXPECT_EQ(restored.objective, result.objective);  // bit-for-bit
  EXPECT_EQ(restored.thresholds, result.thresholds);
  EXPECT_EQ(restored.policy.probabilities, result.policy.probabilities);
  EXPECT_EQ(restored.stats.evaluations, result.stats.evaluations);
  // Wall-clock fields are measurements, never on the wire.
  EXPECT_EQ(restored.stats.seconds, 0.0);
  EXPECT_EQ(restored.stats.pricing_seconds, 0.0);
  EXPECT_EQ(util::FingerprintState(restored), util::FingerprintState(result));
}

TEST(StreamStateTest, PolicyCachePreservesEntriesAndLruOrder) {
  service::AuditService service(testutil::MakeTinyGame(), FastOptions());
  auto report = service.RunCycle();
  ASSERT_TRUE(report.ok()) << report.status();
  solver::SolveResult result = report->policies[0].result;

  auto key = [](uint64_t n) {
    util::Fingerprint fp;
    fp.hi = n;
    fp.lo = ~n;
    return fp;
  };

  service::PolicyCache cache(/*capacity=*/3);
  for (uint64_t i = 0; i < 3; ++i) {
    solver::SolveResult entry = result;
    entry.objective = static_cast<double>(i);
    cache.Insert(key(i), std::move(entry));
  }
  // Touch key 0 so the recency order is 1 < 2 < 0 (oldest first).
  ASSERT_TRUE(cache.Lookup(key(0)).has_value());

  service::PolicyCache restored(/*capacity=*/3);
  {
    Serializer w = Serializer::Writer();
    cache.StreamState(w);
    ASSERT_TRUE(w.ok()) << w.status();
    Serializer r = Serializer::Reader(w.buffer());
    restored.StreamState(r);
    r.ExpectExhausted();
    ASSERT_TRUE(r.ok()) << r.status();
  }

  EXPECT_EQ(restored.size(), cache.size());
  for (uint64_t i = 0; i < 3; ++i) {
    auto entry = restored.Lookup(key(i));
    ASSERT_TRUE(entry.has_value()) << "key " << i;
    EXPECT_EQ(entry->objective, static_cast<double>(i));
  }

  // The restored recency order must match the original: inserting one new
  // entry into a restored-but-untouched copy must evict key 1 (the oldest),
  // not key 0 (refreshed before the snapshot).
  service::PolicyCache untouched(/*capacity=*/3);
  {
    Serializer w = Serializer::Writer();
    cache.StreamState(w);
    Serializer r = Serializer::Reader(w.buffer());
    untouched.StreamState(r);
    ASSERT_TRUE(r.ok()) << r.status();
  }
  untouched.Insert(key(100), result);
  EXPECT_FALSE(untouched.Lookup(key(1)).has_value()) << "LRU order lost";
  EXPECT_TRUE(untouched.Lookup(key(0)).has_value());
  EXPECT_TRUE(untouched.Lookup(key(2)).has_value());
}

TEST(StreamStateTest, PolicyCacheCapacityMismatchIsRejected) {
  service::PolicyCache cache(/*capacity=*/8);
  Serializer w = Serializer::Writer();
  cache.StreamState(w);
  service::PolicyCache smaller(/*capacity=*/4);
  Serializer r = Serializer::Reader(w.buffer());
  smaller.StreamState(r);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(StreamStateTest, AuditServiceRoundTripServesIdenticalCycles) {
  const core::GameInstance game = testutil::MakeTinyGame();
  service::AuditService original(game, FastOptions());
  ASSERT_TRUE(original.RunCycle().ok());
  auto perturbed = game.alert_distributions;
  perturbed[0] = prob::CountDistribution::Constant(3);
  ASSERT_TRUE(original.UpdateAlertDistributions(perturbed).ok());
  ASSERT_TRUE(original.RunCycle().ok());

  // The restored service first serves a different game, so it holds that
  // game's compiled form when it reads the tiny game's state; a stale
  // compiled game would change every later solve.
  service::AuditService restored(testutil::MakeMediumGame(), FastOptions());
  ASSERT_TRUE(restored.RunCycle().ok());
  {
    Serializer w = Serializer::Writer();
    original.StreamState(w);
    ASSERT_TRUE(w.ok()) << w.status();
    Serializer r = Serializer::Reader(w.buffer());
    restored.StreamState(r);
    r.ExpectExhausted();
    ASSERT_TRUE(r.ok()) << r.status();
  }
  EXPECT_EQ(util::FingerprintState(restored), util::FingerprintState(original));
  EXPECT_EQ(restored.stats().cycles, original.stats().cycles);

  // The restored service must continue exactly where the original would:
  // same sources (cache hits stay hits), same policies, bit-for-bit.
  // The second cycle follows an ingest the cache has not seen, so it
  // re-solves on the compiled game.
  perturbed[1] = prob::CountDistribution::Constant(3);
  for (int round = 0; round < 2; ++round) {
    if (round == 1) {
      ASSERT_TRUE(original.UpdateAlertDistributions(perturbed).ok());
      ASSERT_TRUE(restored.UpdateAlertDistributions(perturbed).ok());
    }
    auto next_original = original.RunCycle();
    auto next_restored = restored.RunCycle();
    ASSERT_TRUE(next_original.ok());
    ASSERT_TRUE(next_restored.ok()) << next_restored.status();
    ASSERT_EQ(next_restored->policies.size(), next_original->policies.size());
    for (size_t i = 0; i < next_original->policies.size(); ++i) {
      EXPECT_EQ(next_restored->policies[i].source,
                next_original->policies[i].source);
      EXPECT_EQ(next_restored->policies[i].source == Source::kCache,
                round == 0);
      EXPECT_EQ(next_restored->policies[i].drift,
                next_original->policies[i].drift);
      EXPECT_EQ(
          util::FingerprintState(next_restored->policies[i].result),
          util::FingerprintState(next_original->policies[i].result));
    }
  }
}

TEST(StreamStateTest, ShardStateRoundTripsBetweenSameConfigShards) {
  const core::GameInstance game = testutil::MakeTinyGame();
  auto no_respond = [](std::vector<server::Shard::Response>) {};
  server::Shard a(0, game, FastOptions(), /*queue_capacity=*/4,
                  /*max_batch=*/2, no_respond, nullptr);
  std::string state = a.SerializeState();

  server::Shard b(0, game, FastOptions(), /*queue_capacity=*/4,
                  /*max_batch=*/2, no_respond, nullptr);
  Serializer r = Serializer::Reader(state);
  b.StreamState(r);
  r.ExpectExhausted();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(b.StateFingerprint(), a.StateFingerprint());
}

TEST(StreamStateTest, ShardV1BodyIsRefusedAtItsFirstField) {
  // Shard v1 snapshots carried counters and a latency window; v2 holds
  // only the config guard and the tenants, and refuses the old layout.
  Serializer w = Serializer::Writer();
  w.Section("shard", 1);
  util::Fingerprint config;
  w.Object(config);
  auto no_respond = [](std::vector<server::Shard::Response>) {};
  server::Shard shard(0, testutil::MakeTinyGame(), FastOptions(),
                      /*queue_capacity=*/4, /*max_batch=*/2, no_respond,
                      nullptr);
  Serializer r = Serializer::Reader(w.buffer());
  shard.StreamState(r);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("section 'shard' version mismatch"),
            std::string::npos)
      << r.status();
}

TEST(StreamStateTest, ShardConfigMismatchRefusesRestore) {
  const core::GameInstance game = testutil::MakeTinyGame();
  auto no_respond = [](std::vector<server::Shard::Response>) {};
  server::Shard a(0, game, FastOptions(), /*queue_capacity=*/4,
                  /*max_batch=*/2, no_respond, nullptr);
  const std::string state = a.SerializeState();

  service::AuditServiceOptions different = FastOptions();
  different.solver_options.ishm.step_size = 0.5;  // a different search
  server::Shard b(0, game, different, /*queue_capacity=*/4,
                  /*max_batch=*/2, no_respond, nullptr);
  Serializer r = Serializer::Reader(state);
  b.StreamState(r);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kFailedPrecondition);

  // A different base game must refuse just the same.
  server::Shard c(0, testutil::MakeMediumGame(), FastOptions(),
                  /*queue_capacity=*/4, /*max_batch=*/2, no_respond, nullptr);
  Serializer r2 = Serializer::Reader(state);
  c.StreamState(r2);
  EXPECT_FALSE(r2.ok());
}

}  // namespace
}  // namespace auditgame
