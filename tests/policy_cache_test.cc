#include "service/policy_cache.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/game_io.h"
#include "tests/test_util.h"
#include "util/lru_cache.h"

namespace auditgame::service {
namespace {

using testutil::MakeTinyGame;
using testutil::MakeMediumGame;

solver::EngineRequest MakeRequest(const core::GameInstance& instance) {
  solver::EngineRequest request;
  request.solver = "ishm-cggs";
  request.instance = &instance;
  request.budget = 4.0;
  request.options.ishm.step_size = 0.25;
  return request;
}

solver::SolveResult MakeResult(double objective) {
  solver::SolveResult result;
  result.solver = "ishm-cggs";
  result.objective = objective;
  result.thresholds = {1.0, 2.0};
  return result;
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  util::LruCache<int, int> cache(2);
  cache.Insert(1, 10);
  cache.Insert(2, 20);
  ASSERT_NE(cache.Lookup(1), nullptr);  // 1 is now warmer than 2
  cache.Insert(3, 30);                  // evicts 2
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_NE(cache.Lookup(3), nullptr);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, InsertOverwritesAndRefreshes) {
  util::LruCache<int, int> cache(2);
  cache.Insert(1, 10);
  cache.Insert(2, 20);
  cache.Insert(1, 11);  // overwrite refreshes 1; 2 is coldest
  cache.Insert(3, 30);
  EXPECT_EQ(cache.Lookup(2), nullptr);
  ASSERT_NE(cache.Lookup(1), nullptr);
  EXPECT_EQ(*cache.Lookup(1), 11);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, PeekDoesNotRefresh) {
  util::LruCache<int, int> cache(2);
  cache.Insert(1, 10);
  cache.Insert(2, 20);
  ASSERT_NE(cache.Peek(1), nullptr);  // no recency bump
  cache.Insert(3, 30);                // 1 is still the coldest -> evicted
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_NE(cache.Lookup(2), nullptr);
}

TEST(FingerprintTest, GameFingerprintIsContentAddressed) {
  const core::GameInstance a = MakeTinyGame();
  const core::GameInstance b = MakeTinyGame();  // different object, same bits
  EXPECT_EQ(core::FingerprintGame(a), core::FingerprintGame(b));
  EXPECT_NE(core::FingerprintGame(a), core::FingerprintGame(MakeMediumGame()));

  core::GameInstance tweaked = MakeTinyGame();
  tweaked.adversaries[0].victims[0].benefit += 1e-9;
  EXPECT_NE(core::FingerprintGame(a), core::FingerprintGame(tweaked));
  EXPECT_EQ(core::FingerprintGame(a).ToHex().size(), 32u);
}

TEST(FingerprintTest, RequestFingerprintCoversConfiguration) {
  const core::GameInstance tiny = MakeTinyGame();
  const solver::EngineRequest base = MakeRequest(tiny);
  const util::Fingerprint key = FingerprintRequest(base);
  EXPECT_EQ(key, FingerprintRequest(base));  // deterministic

  solver::EngineRequest other = base;
  other.budget = 5.0;
  EXPECT_NE(key, FingerprintRequest(other));

  other = base;
  other.solver = "ishm-full";
  EXPECT_NE(key, FingerprintRequest(other));

  other = base;
  other.options.ishm.step_size = 0.1;
  EXPECT_NE(key, FingerprintRequest(other));

  other = base;
  other.detection_options.semantics =
      core::DetectionModel::Semantics::kInclusiveAttack;
  EXPECT_NE(key, FingerprintRequest(other));

  other = base;
  other.thresholds = {1.0, 1.0};
  EXPECT_NE(key, FingerprintRequest(other));
}

TEST(FingerprintTest, SearchConfigurationChangesTheKey) {
  // A differently configured search (seed, subset cap, column pool) can
  // reach different heuristic optima, so services with different standing
  // configurations must never collide in a shared cache. (AuditService
  // still caches its warm re-solves under the base key — it fingerprints
  // before applying warm overrides.)
  const core::GameInstance tiny = MakeTinyGame();
  const solver::EngineRequest cold = MakeRequest(tiny);
  const util::Fingerprint key = FingerprintRequest(cold);

  solver::EngineRequest other = cold;
  other.options.ishm.max_subset_size = 1;
  EXPECT_NE(key, FingerprintRequest(other));

  other = cold;
  other.options.ishm.initial_thresholds = {2.0, 1.0};
  EXPECT_NE(key, FingerprintRequest(other));

  other = cold;
  other.options.cggs.initial_orderings = {{0, 1}};
  EXPECT_NE(key, FingerprintRequest(other));

  other = cold;
  other.options.cggs.max_columns = 50;
  EXPECT_NE(key, FingerprintRequest(other));

  // pricing_threads is result-neutral by contract, but it is still part of
  // the configuration image the key must cover.
  other = cold;
  other.options.cggs.pricing_threads = 4;
  EXPECT_NE(key, FingerprintRequest(other));

  other = cold;
  other.warm_start.thresholds = {2.0, 1.0};
  EXPECT_NE(key, FingerprintRequest(other));

  other = cold;
  other.warm_start.orderings = {{1, 0}};
  EXPECT_NE(key, FingerprintRequest(other));
}

TEST(PolicyCacheTest, LookupInsertAndStats) {
  PolicyCache cache(4);
  const core::GameInstance tiny = MakeTinyGame();
  const util::Fingerprint key = FingerprintRequest(MakeRequest(tiny));
  EXPECT_FALSE(cache.Lookup(key).has_value());
  cache.Insert(key, MakeResult(1.5));
  const auto hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->objective, 1.5);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.capacity(), 4u);
}

TEST(PolicyCacheTest, EvictsBeyondCapacity) {
  PolicyCache cache(2);
  for (int i = 0; i < 4; ++i) {
    util::Fingerprint key{static_cast<uint64_t>(i), 0};
    cache.Insert(key, MakeResult(i));
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 2);
  EXPECT_FALSE(cache.Lookup(util::Fingerprint{0, 0}).has_value());
  EXPECT_TRUE(cache.Lookup(util::Fingerprint{3, 0}).has_value());
}

// Hammer one shared cache from several threads (the engine-worker pattern):
// no crashes, and every lookup that hits returns the value inserted under
// that exact key. Run under the CI ASan/UBSan job, this is the race check
// for the concurrent cache path.
TEST(PolicyCacheTest, ConcurrentLookupInsertIsSafe) {
  PolicyCache cache(16);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&cache, w] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t slot = static_cast<uint64_t>((w + i) % 32);
        const util::Fingerprint key{slot, slot * 7919};
        if (const auto hit = cache.Lookup(key)) {
          EXPECT_EQ(hit->objective, static_cast<double>(slot));
        } else {
          cache.Insert(key, MakeResult(static_cast<double>(slot)));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kOpsPerThread);
}

}  // namespace
}  // namespace auditgame::service
